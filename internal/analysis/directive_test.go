package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parseSrc writes src to a real file (onOwnLine re-reads the source) and
// parses it with comments.
func parseSrc(t *testing.T, src string) (*token.FileSet, []*Allow) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "f.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, CollectAllows(fset, []*ast.File{f})
}

func TestCollectAllowsCoverage(t *testing.T) {
	src := `package p

func a() {
	_ = 1 //lint:allow simdet inline covers its own line
	//lint:allow bufown standalone covers the next line
	_ = 2
	_ = 3 //lint:allow locks reason text // trailing comment is not justification
}
`
	fset, allows := parseSrc(t, src)
	_ = fset
	if len(allows) != 3 {
		t.Fatalf("collected %d allows, want 3: %+v", len(allows), allows)
	}
	byAnalyzer := make(map[string]*Allow)
	for _, a := range allows {
		byAnalyzer[a.Analyzer] = a
	}
	if a := byAnalyzer["simdet"]; a.Line != 4 {
		t.Errorf("inline directive covers line %d, want its own line 4", a.Line)
	}
	if a := byAnalyzer["bufown"]; a.Line != 6 {
		t.Errorf("standalone directive covers line %d, want the next line 6", a.Line)
	}
	if a := byAnalyzer["locks"]; a.Justification != "reason text" {
		t.Errorf("justification = %q, want the nested // comment cut off", a.Justification)
	}
}

// TestMultiAnalyzerSameLine: when two analyzers report on one line, an allow
// suppresses only the analyzer it names; the other finding survives, and
// neither directive goes stale.
func TestMultiAnalyzerSameLine(t *testing.T) {
	fset := token.NewFileSet()
	f := fset.AddFile("f.go", -1, 1000)
	f.SetLines([]int{0, 50, 100, 150, 200})
	pos := f.LineStart(3)

	allows := []*Allow{
		{Analyzer: "simdet", Justification: "seeded", File: "f.go", Line: 3},
		{Analyzer: "locks", Justification: "startup only", File: "f.go", Line: 3},
	}
	simdetDiags := []Diagnostic{{Pos: pos, Message: "wall clock"}}
	lockDiags := []Diagnostic{{Pos: pos, Message: "send under lock"}}

	kept, extras := Filter(fset, allows, "simdet", simdetDiags)
	if len(kept) != 0 || len(extras) != 0 {
		t.Fatalf("simdet: kept=%v extras=%v, want both empty", kept, extras)
	}
	kept, extras = Filter(fset, allows, "locks", lockDiags)
	if len(kept) != 0 || len(extras) != 0 {
		t.Fatalf("locks: kept=%v extras=%v, want both empty", kept, extras)
	}
	// A Filter run for an analyzer with no diagnostics must not consume or
	// complain about the other analyzers' directives.
	kept, extras = Filter(fset, allows, "bufown", nil)
	if len(kept) != 0 || len(extras) != 0 {
		t.Fatalf("bufown: kept=%v extras=%v, want no cross-analyzer effects", kept, extras)
	}
}

// TestStaleWhenFindingMoves: a directive whose finding drifted to another
// line stops suppressing and is itself reported, so the original finding
// resurfaces rather than rotting silently.
func TestStaleWhenFindingMoves(t *testing.T) {
	fset := token.NewFileSet()
	f := fset.AddFile("f.go", -1, 1000)
	f.SetLines([]int{0, 50, 100, 150, 200, 250})

	allows := []*Allow{
		{Analyzer: "simdet", Justification: "was on line 3", File: "f.go", Line: 3},
	}
	diags := []Diagnostic{{Pos: f.LineStart(5), Message: "moved finding"}}
	kept, extras := Filter(fset, allows, "simdet", diags)
	if len(kept) != 1 || kept[0].Message != "moved finding" {
		t.Fatalf("kept = %+v, want the moved finding reported", kept)
	}
	if len(extras) != 1 {
		t.Fatalf("extras = %+v, want one stale-directive finding", extras)
	}
}

// TestCheckDirectives: every //lint: comment names a directive the suite
// reads, and every allow names an analyzer it runs; anything else would be
// ignored in silence — a misspelt nonblocking un-guards a lock, an allow for
// a retired analyzer suppresses nothing and never goes stale.
func TestCheckDirectives(t *testing.T) {
	suite := map[string]bool{"locks": true, "bufown": true, "simdet": true}
	cases := []struct {
		name, line string
		want       string // "" = no finding
	}{
		{"allow", "_ = 1 //lint:allow simdet seeded", ""},
		{"allow with tab", "_ = 1 //lint:allow\tsimdet seeded", ""},
		{"nonblocking", "//lint:nonblocking", ""},
		{"before", "//lint:before bcastLog.mu", ""},
		{"prose mentioning a directive", "// a //lint:nonblock in prose is not a directive", ""},
		{"unknown analyzer", "_ = 1 //lint:allow nosuchanalyzer reason", "//lint:allow names no analyzer"},
		{"retired lockscope", "_ = 1 //lint:allow lockscope reason", "//lint:allow names no analyzer"},
		{"retired lockorder", "_ = 1 //lint:allow lockorder reason", "//lint:allow names no analyzer"},
		{"allow without analyzer", "_ = 1 //lint:allow", "//lint:allow names no analyzer"},
		{"misspelt nonblocking", "//lint:nonblock", "unknown directive //lint:nonblock"},
		{"word run on", "_ = 1 //lint:allowed simdet", "unknown directive //lint:allowed"},
		{"empty word", "//lint: allow simdet", "unknown directive //lint:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := "package p\n\nfunc f() {\n\t" + tc.line + "\n\t_ = 2\n}\n"
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "f.go", src, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			diags := CheckDirectives(fset, []*ast.File{f}, suite)
			switch {
			case tc.want == "" && len(diags) != 0:
				t.Fatalf("unexpected findings %+v", diags)
			case tc.want != "" && (len(diags) != 1 || !strings.HasPrefix(diags[0].Message, tc.want)):
				t.Fatalf("findings %+v, want one starting %q", diags, tc.want)
			}
		})
	}
}
