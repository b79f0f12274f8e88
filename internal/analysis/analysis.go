// Package analysis is a small, dependency-free analogue of
// golang.org/x/tools/go/analysis: just enough framework to express
// CrowdFill's source-level invariants as typed AST checks and drive them
// from one multichecker binary (cmd/crowdfill-lint) and from analysistest
// suites. The container this repo builds in has no module proxy access, so
// the framework is built entirely on go/ast, go/parser, go/types and the
// standard library's source importer.
//
// The shape mirrors x/tools on purpose — Analyzer{Name, Doc, Run},
// Pass{Pkg, Report} — so the suite could be ported to the real framework
// by swapping imports if a vendored x/tools ever lands. The one analyzer
// left, locks, reads the whole module through Shared rather than one
// package's syntax, so Pass carries no more than it uses.
package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one source-level invariant check.
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:allow directives.
	Name string
	// Doc is a one-paragraph description of the invariant the analyzer
	// guards (shown by crowdfill-lint -help).
	Doc string
	// Run inspects one package and reports findings through pass.Report.
	Run func(pass *Pass) error
}

// Pass hands one package to an analyzer.
type Pass struct {
	Pkg *types.Package
	// Report records one finding.
	Report func(Diagnostic)
	// Shared carries whole-run state (every loaded package, memoized
	// cross-package artifacts like the call graph). Never nil inside Run.
	Shared *Shared
}

// Shared is the whole-run state handed to every analyzer pass: the full set
// of packages loaded for this lint/test invocation and a memo space for
// expensive cross-package artifacts (the call graph locks walks is built
// once here). The driver builds one Shared after loading everything and
// before running anything, so module-wide analyses see the whole program.
type Shared struct {
	Packages []*Package
	memo     map[string]any
}

// NewShared returns the run-wide state over pkgs.
func NewShared(pkgs []*Package) *Shared {
	return &Shared{Packages: pkgs, memo: make(map[string]any)}
}

// Memo builds an artifact once per run and caches it under key.
func (s *Shared) Memo(key string, build func() any) any {
	if v, ok := s.memo[key]; ok {
		return v
	}
	v := build()
	s.memo[key] = v
	return v
}

// Finding is one diagnostic of a module-wide pass, tagged with the package
// its position belongs to.
type Finding struct {
	PkgPath string
	Diagnostic
}

// ModuleRun is the Run of an analyzer whose findings come from one memoized
// pass over the whole module (locks, over the call graph): compute runs once
// per run, and each package's pass reports the findings positioned in it.
func ModuleRun(key string, compute func(*Shared) []Finding) func(*Pass) error {
	return func(pass *Pass) error {
		for _, f := range pass.Shared.Memo(key, func() any { return compute(pass.Shared) }).([]Finding) {
			if f.PkgPath == pass.Pkg.Path() {
				pass.Report(f.Diagnostic)
			}
		}
		return nil
	}
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// RunAnalyzer executes one analyzer over a loaded package and returns its
// raw diagnostics (before //lint:allow filtering), sorted by position.
// shared may be nil, in which case a single-package Shared is synthesized —
// interprocedural analyzers then see only this package.
func RunAnalyzer(a *Analyzer, pkg *Package, shared *Shared) ([]Diagnostic, error) {
	if shared == nil {
		shared = NewShared([]*Package{pkg})
	}
	var diags []Diagnostic
	pass := &Pass{
		Pkg:    pkg.Types,
		Report: func(d Diagnostic) { diags = append(diags, d) },
		Shared: shared,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	sortDiags(pkg.Fset, diags)
	return diags, nil
}

func sortDiags(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
}
