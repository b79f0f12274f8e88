// Package publishedmut enforces the aliasing contract of the encode-once
// broadcast design (DESIGN.md §7–8): once a sync.Message, *sync.Prepared,
// server.Broadcast or server.Outbound value has been handed to the publish
// side — NewPrepared, HandleBroadcast/Handle, a transport Send, or the
// broadcast log — it is shared by every cursor follower and must never be
// written again. A Message's reference-typed parts (Vec, Snapshot,
// Estimates) alias the published copy even though the struct itself is
// passed by value, and NewPrepared's doc makes the whole struct immutable
// after wrapping; this analyzer turns that comment into a diagnostic.
//
// The check is intraprocedural and position-ordered: a field or element
// write that textually follows the value's escape in the same function body
// is flagged. Writes before the escape (stamping Origin/Worker/TS before
// Apply+publish) are the sanctioned pattern and pass.
//
// A model.Vector is immutable from the moment it is built (DESIGN.md §17):
// a link's decode cache hands one vector to every message that repeats it,
// and rows, vote histories, snapshots and vote messages share vectors
// instead of copying them. So a write into the cells of a vector reached
// through the Vec field of a model.Row or a sync.Message — an assignment to
// v.Vec[i] or one of its cell's fields, or a copy into v.Vec — is flagged
// wherever it occurs. Only code that builds a vector of its own (NewVector,
// VectorOf, With, a decoder) writes cells, before the vector reaches a Vec
// field.
package publishedmut

import (
	"go/ast"
	"go/token"
	"go/types"

	"crowdfill/internal/analysis"
)

// targetTypes are the shared-after-publish types, by package path and name.
var targetTypes = map[[2]string]bool{
	{"crowdfill/internal/sync", "Message"}:     true,
	{"crowdfill/internal/sync", "Prepared"}:    true,
	{"crowdfill/internal/server", "Broadcast"}: true,
	{"crowdfill/internal/server", "Outbound"}:  true,
}

// sinkNames are functions and methods through which a value escapes to the
// broadcast plane.
var sinkNames = map[string]bool{
	"Publish": true, "publish": true,
	"HandleBroadcast": true, "Send": true, "WriteText": true,
	"NewPrepared": true,
}

// vecOwners are the types whose Vec field holds a shared model.Vector.
var vecOwners = map[[2]string]bool{
	{"crowdfill/internal/model", "Row"}:    true,
	{"crowdfill/internal/sync", "Message"}: true,
}

// New returns the publishedmut analyzer.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "publishedmut",
		Doc: "flags writes through sync.Message/sync.Prepared/server.Broadcast/" +
			"server.Outbound values after they escape to the publish side " +
			"(NewPrepared, HandleBroadcast, transport Send, the broadcast log), " +
			"and any write into the cells of a model.Row's or sync.Message's Vec; " +
			"published messages are immutable because every recipient aliases " +
			"them, and vectors because rows, histories and messages share them",
		Run: run,
	}
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkBody(pass, n.Body)
				}
				return false // bodies handle their own nested FuncLits
			}
			return true
		})
	}
	return nil
}

// checkBody analyzes one function body. Nested function literals get their
// own independent scope: a closure mutating a captured message is a dynamic
// question this positional analysis cannot answer, so each body is judged on
// its own ordering.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	escaped := make(map[*types.Var]token.Pos) // var -> earliest escape
	type write struct {
		v    *types.Var
		pos  token.Pos
		name string
	}
	var writes []write

	var walk func(n ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				checkBody(pass, n.Body)
				return false
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "copy" && len(n.Args) == 2 {
					if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
						reportVecWrite(pass, n.Args[0], true)
					}
				}
				if calleeName(n) != "" && sinkNames[calleeName(n)] {
					for _, arg := range n.Args {
						if v := targetRoot(pass, arg); v != nil {
							if p, ok := escaped[v]; !ok || n.Pos() < p {
								escaped[v] = n.Pos()
							}
						}
					}
				}
			case *ast.CompositeLit:
				// Placing a value into a Broadcast/Outbound/record literal
				// shares it with the broadcast plane.
				if isTargetType(pass.TypesInfo.Types[n].Type) {
					for _, el := range n.Elts {
						expr := el
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							expr = kv.Value
						}
						if v := targetRoot(pass, expr); v != nil {
							if p, ok := escaped[v]; !ok || n.Pos() < p {
								escaped[v] = n.Pos()
							}
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					reportVecWrite(pass, lhs, false)
					if v, steps := rootVar(pass, lhs); v != nil && steps > 0 && isTargetType(v.Type()) {
						writes = append(writes, write{v: v, pos: lhs.Pos(), name: v.Name()})
					}
				}
			case *ast.IncDecStmt:
				if v, steps := rootVar(pass, n.X); v != nil && steps > 0 && isTargetType(v.Type()) {
					writes = append(writes, write{v: v, pos: n.Pos(), name: v.Name()})
				}
			}
			return true
		})
	}
	walk(body)

	for _, w := range writes {
		if esc, ok := escaped[w.v]; ok && esc < w.pos {
			pass.Reportf(w.pos, "write to field of %s after it escaped at line %d; published messages are shared by every recipient and may not be mutated",
				w.name, pass.Fset.Position(esc).Line)
		}
	}
}

// reportVecWrite reports dst if it writes into the cells of a shared vector:
// an assignment to owner.Vec[i] or to a field of it, or — byCopy — a copy
// into owner.Vec or a slice of it, where owner is a model.Row or a
// sync.Message. An assignment to owner.Vec itself rebinds the field, which
// writes the owner, not the vector.
func reportVecWrite(pass *analysis.Pass, dst ast.Expr, byCopy bool) {
	e := ast.Unparen(dst)
	if sel, ok := e.(*ast.SelectorExpr); ok && isCellField(pass, sel) {
		e = ast.Unparen(sel.X)
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = ast.Unparen(x.X)
	case *ast.SliceExpr:
		if !byCopy {
			return
		}
		e = ast.Unparen(x.X)
	default:
		if !byCopy {
			return
		}
	}
	if sel, ok := e.(*ast.SelectorExpr); ok && isSharedVec(pass, sel) {
		pass.Reportf(dst.Pos(), "write into a cell of %s; a vector is immutable once built, and rows, vote histories, snapshots and messages share it: build a new one (With, VectorOf, NewVector) instead",
			types.ExprString(sel))
	}
}

// isCellField reports whether sel selects a field of a model.Cell.
func isCellField(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	s, ok := pass.TypesInfo.Selections[sel]
	return ok && s.Kind() == types.FieldVal && isNamed(s.Recv(), "crowdfill/internal/model", "Cell")
}

// isSharedVec reports whether sel is the Vec field of a vecOwners type.
func isSharedVec(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal || sel.Sel.Name != "Vec" {
		return false
	}
	for owner := range vecOwners {
		if isNamed(s.Recv(), owner[0], owner[1]) {
			return true
		}
	}
	return false
}

// isNamed reports whether t, or what it points to, is the named type
// path.name.
func isNamed(t types.Type, path, name string) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == path && named.Obj().Name() == name
}

// calleeName returns the called function or method name.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// targetRoot returns the variable at the root of expr if expr denotes (part
// of) a value of a target type: v, &v, v.Field, v[i] and chains thereof.
func targetRoot(pass *analysis.Pass, expr ast.Expr) *types.Var {
	v, _ := rootVar(pass, expr)
	if v == nil || !isTargetType(v.Type()) {
		return nil
	}
	return v
}

// rootVar unwraps selector/index/deref/address chains to the root variable,
// counting the selector and index steps taken.
func rootVar(pass *analysis.Pass, expr ast.Expr) (*types.Var, int) {
	steps := 0
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.SelectorExpr:
			// Only field selections stay on the value; package selectors and
			// method values do not.
			if sel, ok := pass.TypesInfo.Selections[e]; !ok || sel.Kind() != types.FieldVal {
				return nil, 0
			}
			expr = e.X
			steps++
		case *ast.IndexExpr:
			expr = e.X
			steps++
		case *ast.StarExpr:
			expr = e.X
		case *ast.UnaryExpr:
			if e.Op != token.AND {
				return nil, 0
			}
			expr = e.X
		case *ast.Ident:
			if v, ok := pass.TypesInfo.Uses[e].(*types.Var); ok {
				return v, steps
			}
			return nil, 0
		default:
			return nil, 0
		}
	}
}

// isTargetType reports whether t (or what it points to) is one of the
// shared-after-publish types.
func isTargetType(t types.Type) bool {
	if t == nil {
		return false
	}
	for target := range targetTypes {
		if isNamed(t, target[0], target[1]) {
			return true
		}
	}
	return false
}
