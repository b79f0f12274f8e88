// Command crowdfill-lint runs the internal/analysis invariant suite over the
// module: locks, over the module-wide call graph, and a check that every
// //lint: directive is one the suite reads. TestModuleLintsClean runs the
// same suite inside `go test ./...`. The suite is what no run-time test can
// see: a lock-order cycle, or a blocking call under a //lint:nonblocking
// lock on a path no test happens to drive. The other invariants the code
// relies on are held by tests that fail on their breach: seed determinism
// by TestSimTraceGolden, TestSimTraceDeterministic and
// TestRepresentativeDeterminism, read-lease ownership by TestWSRecvBatch,
// immutable vectors by TestLoadSnapshotSharesVectors and
// TestConcurrentFillSameRow, the accepted-versus-replayed message set by
// TestMsgType and TestMsgTypeAcceptedIsReplayed, a join's immutable
// private messages by TestJoinCarriesMasterState, and the message path's
// allocation budget by testing.AllocsPerRun pins.
//
// Usage:
//
//	crowdfill-lint [-list] [-tests] [-github] [-time] [import-path ...]
//
// With no arguments every buildable package in the module is checked. The
// run is two-phase: every package loads (and type-checks) first, then the
// analyzers run with the whole module visible — the call-graph analyzer
// (locks) needs cross-package summaries. With -tests each
// package's in-package _test.go files are type-checked and analyzed
// alongside its regular sources.
//
// Findings print as "file:line:col: [analyzer] message" by default, and as
// GitHub Actions workflow commands ("::error file=...") with -github so CI
// findings annotate PR diffs. The exit status is 1 if any finding survives
// //lint:allow filtering.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"crowdfill/internal/analysis"
	"crowdfill/internal/analysis/locks"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	tests := flag.Bool("tests", false, "also analyze in-package _test.go files")
	github := flag.Bool("github", false, "emit findings as GitHub Actions ::error workflow commands")
	timing := flag.Bool("time", false, "report load/analyze wall times to stderr")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: crowdfill-lint [-list] [-tests] [-github] [-time] [import-path ...]\n")
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

	opts := options{tests: *tests, github: *github, timing: *timing}
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

// suite returns the analyzers a run applies.
func suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{locks.New()}
}

type options struct {
	tests  bool
	github bool
	timing bool
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

	n := 0
	emit := func(name string, d analysis.Diagnostic) {
		n++
		pos := loader.Fset.Position(d.Pos)
		file := pos.Filename
		if rel, err := filepath.Rel(loader.ModRoot(), file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		if opts.github {
			// GitHub's workflow-command parser terminates the message at a
			// newline; findings are single-line by construction.
			fmt.Printf("::error file=%s,line=%d,col=%d,title=crowdfill-lint %s::%s\n",
				file, pos.Line, pos.Column, name, d.Message)
		} else {
			fmt.Printf("%s:%d:%d: [%s] %s\n", file, pos.Line, pos.Column, name, d.Message)
		}
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
	analyzed := time.Now()

	if opts.timing {
		fmt.Fprintf(os.Stderr, "crowdfill-lint: %d pkgs, load %s, analyze %s, total %s\n",
			len(pkgs), loaded.Sub(start).Round(time.Millisecond),
			analyzed.Sub(loaded).Round(time.Millisecond),
			time.Since(start).Round(time.Millisecond))
	}
	return n, nil
}
