// Command crowdfill-lint runs the internal/analysis invariant suite over the
// module: publishedmut, locks, bufown and msgfield on every package, simdet
// on the simulation packages, and a check that every //lint: directive is
// one the suite reads. TestModuleLintsClean runs the same suite inside
// `go test ./...`. The message path's allocation budget is not a lint rule:
// testing.AllocsPerRun tests in each package hold it.
//
// Usage:
//
//	crowdfill-lint [-list] [-tests] [-json] [-github] [-time] [import-path ...]
//
// With no arguments every buildable package in the module is checked. The
// run is two-phase: every package loads (and type-checks) first, then the
// analyzers run with the whole module visible — the call-graph analyzer
// (locks) needs cross-package summaries. With -tests each
// package's in-package _test.go files are type-checked and analyzed
// alongside its regular sources.
//
// Findings print as "file:line:col: [analyzer] message" by default, as a
// JSON array with -json, and as GitHub Actions workflow commands
// ("::error file=...") with -github so CI findings annotate PR diffs. The
// exit status is 1 if any finding survives //lint:allow filtering.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"crowdfill/internal/analysis"
	"crowdfill/internal/analysis/bufown"
	"crowdfill/internal/analysis/locks"
	"crowdfill/internal/analysis/msgfield"
	"crowdfill/internal/analysis/publishedmut"
	"crowdfill/internal/analysis/simdet"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	tests := flag.Bool("tests", false, "also analyze in-package _test.go files")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array (file/line/col/analyzer/message)")
	github := flag.Bool("github", false, "emit findings as GitHub Actions ::error workflow commands")
	timing := flag.Bool("time", false, "report load/analyze wall times to stderr")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: crowdfill-lint [-list] [-tests] [-json] [-github] [-time] [import-path ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := suite()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	opts := options{tests: *tests, json: *jsonOut, github: *github, timing: *timing}
	n, err := run(analyzers, flag.Args(), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crowdfill-lint:", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "crowdfill-lint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// suite returns fresh instances of every analyzer (msgfield accumulates
// cross-package facts, so each run needs its own).
func suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		publishedmut.New(),
		locks.New(),
		bufown.New(),
		msgfield.New(),
		simdet.New(),
	}
}

type options struct {
	tests  bool
	json   bool
	github bool
	timing bool
}

// finding is one emitted diagnostic, shaped for the -json output mode.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// run analyzes the requested packages (all module packages when paths is
// empty) and returns the number of findings emitted.
func run(analyzers []*analysis.Analyzer, paths []string, opts options) (int, error) {
	start := time.Now()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		return 0, err
	}
	if len(paths) == 0 {
		paths, err = loader.ModulePackages()
		if err != nil {
			return 0, err
		}
	}

	// Phase 1: load everything, so the Shared state (and the call graph
	// built over it) covers the whole module before any analyzer runs.
	pkgs := make([]*analysis.Package, 0, len(paths))
	for _, path := range paths {
		var pkg *analysis.Package
		if opts.tests {
			pkg, err = loader.LoadImportPathTests(path)
		} else {
			pkg, err = loader.LoadImportPath(path)
		}
		if err != nil {
			return 0, fmt.Errorf("load %s: %w", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	shared := analysis.NewShared(pkgs)
	loaded := time.Now()

	// simdet's determinism rules only bind inside the simulation harness.
	simPkgs := make(map[string]bool, len(simdet.DefaultPackages))
	for _, p := range simdet.DefaultPackages {
		simPkgs[p] = true
	}

	var findings []finding
	emit := func(name string, d analysis.Diagnostic) {
		pos := loader.Fset.Position(d.Pos)
		file := pos.Filename
		if rel, err := filepath.Rel(loader.ModRoot(), file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		findings = append(findings, finding{File: file, Line: pos.Line, Col: pos.Column, Analyzer: name, Message: d.Message})
	}

	// Phase 2: analyze. Allow filtering runs per package, after each
	// analyzer, so a directive no finding used is reported stale. A
	// directive the suite would not read is a finding of its own, outside
	// any analyzer's allow.
	names := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		names[a.Name] = true
	}
	for _, pkg := range pkgs {
		for _, d := range analysis.CheckDirectives(pkg.Fset, pkg.Files, names) {
			emit("directive", d)
		}
		allows := analysis.CollectAllows(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			if a.Name == "simdet" && !simPkgs[pkg.Path] {
				continue
			}
			diags, err := analysis.RunAnalyzer(a, pkg, shared)
			if err != nil {
				return 0, err
			}
			kept, extras := analysis.Filter(pkg.Fset, allows, a.Name, diags)
			for _, d := range kept {
				emit(a.Name, d)
			}
			for _, d := range extras {
				emit(a.Name, d)
			}
		}
	}

	// Cross-package contracts (msgfield's accept-vs-replay comparison) fire
	// once the whole module has been seen. Finish findings are contract
	// breaks between packages and have no //lint:allow escape hatch.
	for _, a := range analyzers {
		if a.Finish != nil {
			a.Finish(func(d analysis.Diagnostic) { emit(a.Name, d) })
		}
	}
	analyzed := time.Now()

	switch {
	case opts.json:
		out := findings
		if out == nil {
			out = []finding{} // emit [] rather than null
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return 0, err
		}
		fmt.Println(string(data))
	case opts.github:
		for _, f := range findings {
			// GitHub's workflow-command parser terminates the message at a
			// newline; findings are single-line by construction.
			fmt.Printf("::error file=%s,line=%d,col=%d,title=crowdfill-lint %s::%s\n",
				f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	default:
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if opts.timing {
		fmt.Fprintf(os.Stderr, "crowdfill-lint: %d pkgs, load %s, analyze %s, total %s\n",
			len(pkgs), loaded.Sub(start).Round(time.Millisecond),
			analyzed.Sub(loaded).Round(time.Millisecond),
			time.Since(start).Round(time.Millisecond))
	}
	return len(findings), nil
}
