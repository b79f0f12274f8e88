package analysis

import (
	"go/token"
	"testing"
)

func TestLoaderLoadsServerPackage(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadImportPath("crowdfill/internal/server")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types.Name() != "server" {
		t.Fatalf("package name = %q, want server", pkg.Types.Name())
	}
	if len(pkg.Files) == 0 {
		t.Fatal("no files loaded")
	}
	// Loading again hits the cache (same pointer).
	again, err := l.LoadImportPath("crowdfill/internal/server")
	if err != nil {
		t.Fatal(err)
	}
	if again != pkg {
		t.Fatal("second load did not hit the cache")
	}
}

func TestLoadImportPathTests(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := l.LoadImportPath("crowdfill/internal/wsock")
	if err != nil {
		t.Fatal(err)
	}
	withTests, err := l.LoadImportPathTests("crowdfill/internal/wsock")
	if err != nil {
		t.Fatal(err)
	}
	if len(withTests.Files) <= len(plain.Files) {
		t.Fatalf("test variant has %d files, plain %d; want in-package _test.go files added",
			len(withTests.Files), len(plain.Files))
	}
	testFiles := 0
	for _, f := range withTests.Files {
		if name := l.Fset.Position(f.Pos()).Filename; contains(name, "_test.go") {
			testFiles++
		}
	}
	if testFiles == 0 {
		t.Fatal("test variant loaded no _test.go files")
	}
	// The two variants are distinct cache entries: the plain load is not
	// clobbered by the test-augmented one.
	plainAgain, err := l.LoadImportPath("crowdfill/internal/wsock")
	if err != nil {
		t.Fatal(err)
	}
	if plainAgain != plain {
		t.Fatal("plain load no longer cached after test-variant load")
	}
	testsAgain, err := l.LoadImportPathTests("crowdfill/internal/wsock")
	if err != nil {
		t.Fatal(err)
	}
	if testsAgain != withTests {
		t.Fatal("test-variant load not cached")
	}
}

func TestModulePackagesSkipsTestdata(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(paths))
	for _, p := range paths {
		seen[p] = true
	}
	for _, want := range []string{"crowdfill", "crowdfill/internal/server", "crowdfill/internal/sync"} {
		if !seen[want] {
			t.Errorf("ModulePackages missing %s (got %d paths)", want, len(paths))
		}
	}
	for p := range seen {
		if contains(p, "testdata") {
			t.Errorf("ModulePackages included testdata package %s", p)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestFilterAllows(t *testing.T) {
	fset := token.NewFileSet()
	f := fset.AddFile("f.go", -1, 1000)
	f.SetLines([]int{0, 50, 100, 150, 200, 250, 300, 350, 400, 450})
	posOnLine := func(line int) token.Pos { return f.LineStart(line) }

	allows := []*Allow{
		{Analyzer: "simdet", Justification: "covered by a seeded rand", File: "f.go", Line: 3},
		{Analyzer: "simdet", Justification: "never fires", File: "f.go", Line: 9},
		{Analyzer: "simdet", File: "f.go", Line: 5}, // used but unjustified
		{Analyzer: "locks", Justification: "other analyzer", File: "f.go", Line: 3},
	}
	diags := []Diagnostic{
		{Pos: posOnLine(3), Message: "suppressed"},
		{Pos: posOnLine(5), Message: "suppressed without justification"},
		{Pos: posOnLine(7), Message: "kept"},
	}
	kept, extras := Filter(fset, allows, "simdet", diags)
	if len(kept) != 1 || kept[0].Message != "kept" {
		t.Fatalf("kept = %+v, want only the unsuppressed diagnostic", kept)
	}
	// One stale directive (line 9) + one missing justification (line 5).
	if len(extras) != 2 {
		t.Fatalf("extras = %+v, want stale + unjustified", extras)
	}
}
