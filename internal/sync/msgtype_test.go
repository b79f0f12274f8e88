package sync

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"sort"
	"testing"
)

// declaredMsgTypes returns the names of the MsgType constants message.go
// declares, read from its source so that a new kind cannot be left out of a
// table by forgetting it.
func declaredMsgTypes(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "message.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		// In a const block a spec with neither type nor values repeats the
		// one before it (iota), so it has that spec's type.
		typed := false
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if vs.Type != nil || len(vs.Values) > 0 {
				id, ok := vs.Type.(*ast.Ident)
				typed = ok && id.Name == "MsgType"
			}
			if typed {
				for _, n := range vs.Names {
					names = append(names, n.Name)
				}
			}
		}
	}
	sort.Strings(names)
	return names
}

// TestMsgType holds the message vocabulary's one table of table operations:
// every declared MsgType has its own String name, and IsOp — the set
// the core accepts from clients, the trace records and replay re-applies —
// holds for the six replica-changing kinds and for nothing else, including
// values outside the declared range.
func TestMsgType(t *testing.T) {
	cases := []struct {
		decl string
		t    MsgType
		name string
		op   bool
	}{
		{"MsgInsert", MsgInsert, "insert", true},
		{"MsgReplace", MsgReplace, "replace", true},
		{"MsgUpvote", MsgUpvote, "upvote", true},
		{"MsgDownvote", MsgDownvote, "downvote", true},
		{"MsgSnapshot", MsgSnapshot, "snapshot", false},
		{"MsgDone", MsgDone, "done", false},
		{"MsgEstimate", MsgEstimate, "estimate", false},
		{"MsgUnupvote", MsgUnupvote, "unupvote", true},
		{"MsgUndownvote", MsgUndownvote, "undownvote", true},
	}
	var listed []string
	for _, c := range cases {
		listed = append(listed, c.decl)
		if name := c.t.String(); name != c.name {
			t.Errorf("%s.String() = %q, want %q", c.decl, name, c.name)
		}
		if got := c.t.IsOp(); got != c.op {
			t.Errorf("%s.IsOp() = %v, want %v", c.decl, got, c.op)
		}
	}
	sort.Strings(listed)
	if declared := declaredMsgTypes(t); !slices.Equal(declared, listed) {
		t.Fatalf("declared MsgTypes %v, table lists %v: add the new kind here, with its name and whether it is a table operation", declared, listed)
	}
	for _, bad := range []MsgType{0, MsgUndownvote + 1, -1} {
		if bad.IsOp() {
			t.Errorf("undeclared MsgType %d is a table operation", int(bad))
		}
	}
}
