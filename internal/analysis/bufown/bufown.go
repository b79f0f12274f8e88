// Package bufown guards the read-buffer lease protocol (DESIGN.md §11): the
// slice returned by wsock.Conn.ReadTextLease/TryReadTextLease aliases the
// connection's reusable read buffer and is valid only until the next read
// call on that connection. A caller that retains the lease past that point
// sees the bytes of some later frame — a silent corruption, not a crash — so
// the rule is enforced statically.
//
// The analysis is intraprocedural, a branch-cloning walk like the call
// graph's lock tracking: it tracks variables bound to lease-returning calls
// (and their aliases through plain assignments, slicings, and
// append-with-lease-as-base), and flags
//
//   - returning a lease (or a slice of one) from the function;
//   - storing a lease in a struct field, package-level variable, or
//     slice/map element;
//   - sending a lease on a channel or capturing one in a go statement;
//   - using a lease after a later read call on any connection invalidated it
//     (loop bodies are walked twice so back-edge invalidations are seen).
//
// Passing a lease to a function call is allowed — the protocol requires
// callees to copy what they keep (DecodeMessageInto does), and the built-in
// copy patterns (append to a fresh slice, string conversion) are how callers
// take ownership.
package bufown

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"crowdfill/internal/analysis"
)

// leaseMethods return a slice aliasing the connection's read buffer.
var leaseMethods = map[string]bool{
	"ReadTextLease":    true,
	"TryReadTextLease": true,
}

// invalidatingMethods end every outstanding lease on call: any read that
// advances the connection reuses the backing buffer.
var invalidatingMethods = map[string]bool{
	"ReadText": true, "ReadTextLease": true, "TryReadTextLease": true,
	"Recv": true, "RecvBatch": true,
}

// New returns the bufown analyzer.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "bufown",
		Doc: "flags leased read buffers (wsock ReadTextLease/TryReadTextLease) " +
			"escaping the caller or being used after a later read invalidated " +
			"the lease",
		Run: run,
	}
}

// leaseInfo is the per-variable lease state; the map is copied by value into
// branches so branch-local invalidation does not leak out.
type leaseInfo struct {
	stale bool
}

type leaseState map[types.Object]leaseInfo

func clone(st leaseState) leaseState {
	cp := make(leaseState, len(st))
	for k, v := range st {
		cp[k] = v
	}
	return cp
}

type checker struct {
	pass *analysis.Pass
	// seen dedups diagnostics: loop bodies are walked twice, and the second
	// pass must only add back-edge findings, not repeat first-pass ones.
	seen map[string]bool
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, seen: make(map[string]bool)}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.walkStmts(fd.Body.List, leaseState{})
			}
		}
	}
	return nil
}

func (c *checker) reportf(pos token.Pos, msg string) {
	key := fmt.Sprintf("%d:%s", pos, msg)
	if c.seen[key] {
		return
	}
	c.seen[key] = true
	c.pass.Report(analysis.Diagnostic{Pos: pos, Message: msg})
}

func (c *checker) walkStmts(stmts []ast.Stmt, st leaseState) {
	for _, s := range stmts {
		c.walkStmt(s, st)
	}
}

func (c *checker) walkStmt(s ast.Stmt, st leaseState) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		c.handleAssign(s, st)
	case *ast.DeclStmt:
		c.handleDecl(s, st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.checkStaleUses(r, st)
			if obj := c.aliasedLease(r, st); obj != nil {
				c.reportf(r.Pos(), "returning a leased read buffer (valid only until the next read on the connection); copy it first")
			}
		}
	case *ast.SendStmt:
		c.checkStaleUses(s.Chan, st)
		c.checkStaleUses(s.Value, st)
		if obj := c.aliasedLease(s.Value, st); obj != nil {
			c.reportf(s.Value.Pos(), "leased read buffer sent on a channel (outlives the lease); copy it first")
		}
	case *ast.GoStmt:
		ast.Inspect(s.Call, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
					if _, tracked := st[obj]; tracked {
						c.reportf(id.Pos(), "leased read buffer captured by a spawned goroutine (outlives the lease); copy it first")
					}
				}
			}
			return true
		})
	case *ast.ExprStmt:
		c.checkStaleUses(s.X, st)
		if c.containsInvalidatingCall(s.X) {
			invalidate(st)
		}
	case *ast.DeferStmt:
		c.checkStaleUses(s.Call, st)
	case *ast.BlockStmt:
		c.walkStmts(s.List, st)
	case *ast.LabeledStmt:
		c.walkStmt(s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		c.checkStaleUses(s.Cond, st)
		c.walkStmts(s.Body.List, clone(st))
		if s.Else != nil {
			c.walkStmt(s.Else, clone(st))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			c.checkStaleUses(s.Cond, st)
		}
		// Two passes over the body: the second sees the state the first
		// produced, so a lease taken in iteration k and used in iteration
		// k+1 (after the loop's own read call invalidated it) is caught.
		body := clone(st)
		for i := 0; i < 2; i++ {
			c.walkStmts(s.Body.List, body)
			if s.Post != nil {
				c.walkStmt(s.Post, body)
			}
		}
	case *ast.RangeStmt:
		c.checkStaleUses(s.X, st)
		body := clone(st)
		for i := 0; i < 2; i++ {
			c.walkStmts(s.Body.List, body)
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			c.checkStaleUses(s.Tag, st)
		}
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				c.walkStmts(cl.Body, clone(st))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				c.walkStmts(cl.Body, clone(st))
			}
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CommClause); ok {
				if cl.Comm != nil {
					c.walkStmt(cl.Comm, clone(st))
				}
				c.walkStmts(cl.Body, clone(st))
			}
		}
	default:
		if s != nil {
			c.checkStaleUsesNode(s, st)
		}
	}
}

// handleAssign processes one assignment: stale checks on the right, then
// invalidation from any read call, then left-hand binding — fresh leases,
// alias propagation, and escape detection for non-local destinations.
func (c *checker) handleAssign(a *ast.AssignStmt, st leaseState) {
	for _, r := range a.Rhs {
		c.checkStaleUses(r, st)
	}
	// Capture alias sources before invalidation/rebinding mutates the state:
	// `a, b = b, a` style swaps read the pre-assignment state.
	srcs := make([]types.Object, len(a.Rhs))
	for i, r := range a.Rhs {
		srcs[i] = c.aliasedLease(r, st)
	}
	fresh := false
	for _, r := range a.Rhs {
		if c.containsInvalidatingCall(r) {
			invalidate(st)
			fresh = fresh || c.isLeaseCall(r)
		}
	}
	// Multi-value lease bind: data, ... := conn.ReadTextLease().
	if fresh && len(a.Rhs) == 1 && len(a.Lhs) >= 1 {
		if obj := c.lhsLocalObj(a.Lhs[0]); obj != nil {
			st[obj] = leaseInfo{}
		} else if !isBlank(a.Lhs[0]) {
			c.reportf(a.Lhs[0].Pos(), "leased read buffer stored outside the function (the lease ends at the next read); copy it first")
		}
		return
	}
	if len(a.Lhs) != len(a.Rhs) {
		return
	}
	for i, lhs := range a.Lhs {
		src := srcs[i]
		if obj := c.lhsLocalObj(lhs); obj != nil {
			if src != nil {
				st[obj] = st[src] // alias carries the source's staleness
			} else {
				delete(st, obj) // rebound to a non-lease value
			}
			continue
		}
		if src != nil && !isBlank(lhs) {
			c.reportf(lhs.Pos(), "leased read buffer stored outside the function (the lease ends at the next read); copy it first")
		}
	}
}

// handleDecl processes `var x = <lease expr>` declarations.
func (c *checker) handleDecl(d *ast.DeclStmt, st leaseState) {
	gd, ok := d.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, v := range vs.Values {
			c.checkStaleUses(v, st)
		}
		if len(vs.Values) == 1 && c.isLeaseCall(vs.Values[0]) {
			invalidate(st)
			if len(vs.Names) >= 1 {
				if obj := c.pass.TypesInfo.Defs[vs.Names[0]]; obj != nil {
					st[obj] = leaseInfo{}
				}
			}
			continue
		}
		for i, name := range vs.Names {
			if i >= len(vs.Values) {
				break
			}
			if src := c.aliasedLease(vs.Values[i], st); src != nil {
				if obj := c.pass.TypesInfo.Defs[name]; obj != nil {
					st[obj] = st[src]
				}
			}
		}
	}
}

// lhsLocalObj resolves an assignment destination to a function-local
// variable object, or nil when the destination escapes the frame (struct
// field, slice/map element, dereference, or package-level variable).
func (c *checker) lhsLocalObj(lhs ast.Expr) types.Object {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := c.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return nil
	}
	if v, ok := obj.(*types.Var); ok {
		if v.Parent() != nil && v.Parent() != c.pass.Pkg.Scope() && !v.IsField() {
			return obj
		}
	}
	return nil
}

func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

// aliasedLease reports the tracked lease object an expression's value may
// alias: the lease variable itself, a slice of it, or an append growing it.
// Results of ordinary calls are not aliases — the protocol obliges callees
// to copy — and neither are copying constructs (append to a fresh base,
// string conversion).
func (c *checker) aliasedLease(e ast.Expr, st leaseState) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := c.pass.TypesInfo.Uses[e]; obj != nil {
			if _, ok := st[obj]; ok {
				return obj
			}
		}
	case *ast.SliceExpr:
		return c.aliasedLease(e.X, st)
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" && len(e.Args) > 0 {
			if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				return c.aliasedLease(e.Args[0], st)
			}
		}
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if obj := c.aliasedLease(elt, st); obj != nil {
				return obj
			}
		}
	}
	return nil
}

// checkStaleUses flags references to invalidated leases inside an expression.
func (c *checker) checkStaleUses(node ast.Expr, st leaseState) {
	if node == nil {
		return
	}
	c.checkStaleUsesNode(node, st)
}

func (c *checker) checkStaleUsesNode(node ast.Node, st leaseState) {
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
				if info, tracked := st[obj]; tracked && info.stale {
					c.reportf(id.Pos(), "use of a leased read buffer after a later read invalidated the lease; copy before the next read")
				}
			}
		}
		return true
	})
}

// containsInvalidatingCall reports whether the expression performs a read
// call that ends outstanding leases (receiver is a connection-like type).
func (c *checker) containsInvalidatingCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if invalidatingMethods[sel.Sel.Name] && receiverTypeName(c.pass, sel.X) == "Conn" {
			found = true
		}
		return true
	})
	return found
}

// isLeaseCall reports whether the expression is (exactly) a lease-returning
// call on a connection.
func (c *checker) isLeaseCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return leaseMethods[sel.Sel.Name] && receiverTypeName(c.pass, sel.X) == "Conn"
}

func invalidate(st leaseState) {
	for k, v := range st {
		v.stale = true
		st[k] = v
	}
}

// receiverTypeName returns the named type of expr after stripping pointers.
func receiverTypeName(pass *analysis.Pass, expr ast.Expr) string {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return ""
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
