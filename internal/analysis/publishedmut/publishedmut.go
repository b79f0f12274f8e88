// Package publishedmut enforces the aliasing contract of the encode-once
// broadcast design (DESIGN.md §7–8): once a sync.Message, *sync.Prepared,
// server.Broadcast or server.Outbound value has been handed to the publish
// side — NewPrepared, HandleBroadcast/Handle, a transport Send, or the
// broadcast log — it is shared by every cursor follower and must never be
// written again. A Message's reference-typed parts (Vec, Snapshot,
// Estimates) alias the published copy even though the struct itself is
// passed by value, and NewPrepared's doc makes the whole struct immutable
// after wrapping; this analyzer turns that comment into a diagnostic.
// Replica.Apply is a sink for the same reason (DESIGN.md §17): it adopts the
// message's vector into the row or vote-history entry it builds, so a write
// to the message after Apply would rewrite replica state.
//
// The check is intraprocedural and position-ordered: a field or element
// write that textually follows the value's escape in the same function body
// is flagged. Writes before the escape (stamping Origin/Worker/TS before
// Apply+publish) are the sanctioned pattern and pass.
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
// broadcast plane, or into a replica that adopts its vector.
var sinkNames = map[string]bool{
	"Publish": true, "publish": true,
	"HandleBroadcast": true, "Send": true, "WriteText": true,
	"NewPrepared": true, "Apply": true,
}

// New returns the publishedmut analyzer.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "publishedmut",
		Doc: "flags writes through sync.Message/sync.Prepared/server.Broadcast/" +
			"server.Outbound values after they escape to the publish side " +
			"(NewPrepared, HandleBroadcast, transport Send, the broadcast log) " +
			"or to Replica.Apply; published messages are immutable because every " +
			"recipient aliases them, and Apply adopts the message's vector",
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
			pass.Reportf(w.pos, "write to field of %s after it escaped at line %d; published messages are shared by every recipient, Replica.Apply adopts their vectors, and neither may be mutated",
				w.name, pass.Fset.Position(esc).Line)
		}
	}
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
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	return targetTypes[[2]string{obj.Pkg().Path(), obj.Name()}]
}
