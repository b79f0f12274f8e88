package main

import "testing"

// TestModuleLintsClean runs the whole suite over the module with in-package
// tests loaded, as `make lint` does, so `go test ./...` holds the
// invariants too: a blocking call under a //lint:nonblocking lock, an
// undeclared lock nesting or any other finding fails it. The findings print
// above the failure in crowdfill-lint's usual format.
func TestModuleLintsClean(t *testing.T) {
	n, err := run(suite(), nil, options{tests: true})
	if err != nil {
		t.Fatal(err)
	}
	if n > 0 {
		t.Fatalf("crowdfill-lint: %d finding(s)", n)
	}
}
