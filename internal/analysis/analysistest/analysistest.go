// Package analysistest runs an analyzer over a testdata package and checks
// its diagnostics against // want "regexp" comments, mirroring
// golang.org/x/tools/go/analysis/analysistest on the stdlib-only framework.
//
// Layout: <testdata>/src/<pkg>/*.go. A comment of the form
//
//	code() // want "regexp" "another regexp"
//
// asserts that each listed pattern matches the message of a distinct
// diagnostic reported on that line; lines without a want comment must be
// diagnostic-free. The //lint:allow filtering (including stale-directive and
// missing-justification findings) is applied before matching, exactly as
// cmd/crowdfill-lint applies it.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"crowdfill/internal/analysis"
)

// Run analyzes testdata/src/<pkg> for each named package and reports
// mismatches as test errors.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		dir := filepath.Join(testdata, "src", pkg)
		runOne(t, dir, pkg, a)
	}
}

func runOne(t *testing.T, dir, name string, a *analysis.Analyzer) {
	t.Helper()
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	pkg, err := loader.LoadDir(dir, name)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	// One Shared per testdata package: interprocedural analyzers see just
	// this package.
	shared := analysis.NewShared([]*analysis.Package{pkg})
	raw, err := analysis.RunAnalyzer(a, pkg, shared)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	kept, extras := analysis.Filter(pkg.Fset, analysis.CollectAllows(pkg.Fset, pkg.Files), a.Name, raw)
	diags := append(kept, extras...)

	wants := collectWants(t, pkg.Fset, pkg.Files)
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		key := lineKey(pos.Filename, pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.rx.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, list := range wants {
		for _, w := range list {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", w.pos, w.rx)
			}
		}
	}
}

type want struct {
	rx      *regexp.Regexp
	pos     token.Position
	matched bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[string][]*want {
	t.Helper()
	out := make(map[string][]*want)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range splitQuoted(m[1]) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					key := lineKey(pos.Filename, pos.Line)
					out[key] = append(out[key], &want{rx: rx, pos: pos})
				}
			}
		}
	}
	return out
}

// splitQuoted extracts the double-quoted and backquoted strings from s.
func splitQuoted(s string) []string {
	var out []string
	for {
		i := strings.IndexAny(s, "\"`")
		if i < 0 {
			return out
		}
		quote := s[i]
		j := i + 1
		for j < len(s) {
			if quote == '"' && s[j] == '\\' {
				j += 2
				continue
			}
			if s[j] == quote {
				break
			}
			j++
		}
		if j >= len(s) {
			return out
		}
		out = append(out, s[i:j+1])
		s = s[j+1:]
	}
}

func lineKey(file string, line int) string {
	return fmt.Sprintf("%s:%d", file, line)
}
