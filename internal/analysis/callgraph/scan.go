package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"

	"crowdfill/internal/analysis"
)

// blockingConnMethods are the transport/syscall leaves: methods that perform
// (or wait on) I/O when called on a connection-like receiver (a type named
// Conn — transport.Conn, wsock.Conn and test doubles alike). This is the one
// hand-maintained blocking list left after the summary migration: everything
// above these leaves is derived from the call graph.
var blockingConnMethods = map[string]bool{
	"Send": true, "SendPreparedBatch": true,
	"Recv": true, "RecvBatch": true,
	"Read": true, "Write": true, "ReadText": true, "WriteText": true,
	"ReadTextLease": true, "WritePrepared": true, "WritePreparedBatch": true,
}

// scanner walks one function body tracking the locks held (branch analysis
// on cloned state, defer-Unlock holds to return, function literals and go
// statements skipped) and records events on its node.
type scanner struct {
	pkg   *analysis.Package
	graph *Graph
	node  *Node
}

func (sc *scanner) emit(ev Event, state *[]Lock) {
	ev.Held = append([]Lock(nil), *state...)
	sc.node.Events = append(sc.node.Events, ev)
}

func (sc *scanner) walkStmts(stmts []ast.Stmt, state *[]Lock) {
	for _, s := range stmts {
		sc.walkStmt(s, state)
	}
}

// clone copies the lock state for a branch: acquisitions and releases inside
// a conditional do not propagate to the statements after it (branches in
// this codebase that unlock early always return).
func clone(state *[]Lock) *[]Lock {
	cp := append([]Lock(nil), *state...)
	return &cp
}

func (sc *scanner) walkStmt(s ast.Stmt, state *[]Lock) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && sc.mutexOp(call, state) {
			return
		}
		sc.scan(s, state, false)
	case *ast.DeferStmt:
		if sc.isUnlockCall(s.Call) {
			return // defer mu.Unlock(): held until return; nothing to pop
		}
		// Other deferred calls run at return time: held-state checks do not
		// apply, but the call's footprint belongs to this function.
		sc.scan(s.Call, state, true)
	case *ast.GoStmt:
		// The goroutine does not run under the caller's locks and is not a
		// call edge.
	case *ast.BlockStmt:
		sc.walkStmts(s.List, state)
	case *ast.LabeledStmt:
		sc.walkStmt(s.Stmt, state)
	case *ast.IfStmt:
		if s.Init != nil {
			sc.walkStmt(s.Init, state)
		}
		sc.scan(s.Cond, state, false)
		sc.walkStmts(s.Body.List, clone(state))
		if s.Else != nil {
			sc.walkStmt(s.Else, clone(state))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			sc.walkStmt(s.Init, state)
		}
		if s.Cond != nil {
			sc.scan(s.Cond, state, false)
		}
		body := clone(state)
		sc.walkStmts(s.Body.List, body)
		if s.Post != nil {
			sc.walkStmt(s.Post, body)
		}
	case *ast.RangeStmt:
		if tv, ok := sc.pkg.TypesInfo.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				sc.emit(Event{Kind: KBlock, Pos: s.Pos(), What: "ranging over a channel (blocking receive)"}, state)
			}
		}
		sc.scan(s.X, state, false)
		sc.walkStmts(s.Body.List, clone(state))
	case *ast.SwitchStmt:
		if s.Init != nil {
			sc.walkStmt(s.Init, state)
		}
		if s.Tag != nil {
			sc.scan(s.Tag, state, false)
		}
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				sc.walkStmts(cl.Body, clone(state))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				sc.walkStmts(cl.Body, clone(state))
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CommClause); ok && cl.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			sc.emit(Event{Kind: KBlock, Pos: s.Pos(), What: "select without a default clause (blocking)"}, state)
		}
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CommClause); ok {
				sc.walkStmts(cl.Body, clone(state))
			}
		}
	case *ast.SendStmt:
		sc.emit(Event{Kind: KBlock, Pos: s.Pos(), What: "channel send"}, state)
		sc.scan(s.Chan, state, false)
		sc.scan(s.Value, state, false)
	default:
		sc.scan(s, state, false)
	}
}

// scan inspects an expression-bearing node, recording blocking and call
// events. Function literals are not entered: their bodies do not run here.
func (sc *scanner) scan(node ast.Node, state *[]Lock, deferred bool) {
	if node == nil {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				sc.emit(Event{Kind: KBlock, Pos: n.Pos(), What: "channel receive", Deferred: deferred}, state)
			}
		case *ast.CallExpr:
			sc.checkCall(n, state, deferred)
		}
		return true
	})
}

func (sc *scanner) checkCall(call *ast.CallExpr, state *[]Lock, deferred bool) {
	info := sc.pkg.TypesInfo
	fun := ast.Unparen(call.Fun)

	// Type conversions are not calls.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return
	}

	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Builtin:
			// Builtins neither block nor call module code.
		case *types.Func:
			if obj.Pkg() != nil && sc.isModulePkg(obj.Pkg().Path()) {
				sc.emit(Event{Kind: KCall, Pos: call.Pos(),
					Callees: []string{FuncKey(obj)}, Display: displayName(obj), Deferred: deferred}, state)
			}
		default:
			// Function value (local, parameter, or field shorthand).
			if isLogfName(fun.Name) {
				sc.emit(Event{Kind: KBlock, Pos: call.Pos(),
					What: "call through " + fun.Name + " (may block on log I/O)", Deferred: deferred}, state)
				return
			}
			sc.emit(Event{Kind: KCall, Pos: call.Pos(), Dynamic: true, Display: fun.Name, Deferred: deferred}, state)
		}
	case *ast.SelectorExpr:
		sc.checkSelectorCall(call, fun, state, deferred)
	}
	// Immediate calls of function literals and other exotic callees are out
	// of scope.
}

func (sc *scanner) checkSelectorCall(call *ast.CallExpr, sel *ast.SelectorExpr, state *[]Lock, deferred bool) {
	info := sc.pkg.TypesInfo
	name := sel.Sel.Name

	// Package-qualified references: time.Sleep, encoding/json, fmt, module
	// package-level functions.
	if pkg := pkgPathOf(info, sel); pkg != "" {
		if sc.isModulePkg(pkg) {
			if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
				sc.emit(Event{Kind: KCall, Pos: call.Pos(),
					Callees: []string{FuncKey(fn)}, Display: displayName(fn), Deferred: deferred}, state)
			} else {
				sc.emit(Event{Kind: KCall, Pos: call.Pos(), Dynamic: true, Display: name, Deferred: deferred}, state)
			}
			return
		}
		sc.checkStdCall(call, pkg, name, state, deferred)
		return
	}

	recv := receiverTypeName(info, sel.X)

	// sync.Cond is the sanctioned in-lock wait/wake mechanism.
	if recv == "Cond" && (name == "Wait" || name == "Broadcast" || name == "Signal") {
		return
	}
	if recv == "Conn" && blockingConnMethods[name] {
		sc.emit(Event{Kind: KBlock, Pos: call.Pos(),
			What: "transport " + name + " (blocks until the peer drains)", Deferred: deferred}, state)
		return
	}
	if recv == "WaitGroup" && name == "Wait" {
		sc.emit(Event{Kind: KBlock, Pos: call.Pos(), What: "sync.WaitGroup.Wait", Deferred: deferred}, state)
		return
	}
	if isLogfName(name) {
		sc.emit(Event{Kind: KBlock, Pos: call.Pos(),
			What: "call through " + name + " (may block on log I/O)", Deferred: deferred}, state)
		return
	}

	s, ok := info.Selections[sel]
	if !ok {
		return
	}
	switch s.Kind() {
	case types.MethodVal:
		fn, ok := s.Obj().(*types.Func)
		if !ok {
			return
		}
		if iface, ok := s.Recv().Underlying().(*types.Interface); ok {
			// Interface dispatch: candidates are every module implementation.
			// Interfaces with no module implementation (stdlib error values
			// and friends) resolve to nothing and follow the stdlib default
			// (assumed non-blocking).
			impls := sc.graph.implementers(iface, name)
			if len(impls) > 0 {
				sc.emit(Event{Kind: KCall, Pos: call.Pos(), Callees: impls,
					Display: receiverTypeName(info, sel.X) + "." + name, Deferred: deferred}, state)
			}
			return
		}
		if fn.Pkg() != nil && sc.isModulePkg(fn.Pkg().Path()) {
			sc.emit(Event{Kind: KCall, Pos: call.Pos(),
				Callees: []string{FuncKey(fn)}, Display: displayName(fn), Deferred: deferred}, state)
		}
	case types.FieldVal:
		// Calling a function-typed field: dynamic.
		sc.emit(Event{Kind: KCall, Pos: call.Pos(), Dynamic: true, Display: name, Deferred: deferred}, state)
	}
}

// mutexOp handles a statement-level mutex call, updating state and emitting
// an acquire event. Returns true when the call was Lock/RLock/Unlock/RUnlock
// on a sync.Mutex or RWMutex.
func (sc *scanner) mutexOp(call *ast.CallExpr, state *[]Lock) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	name := sel.Sel.Name
	if name != "Lock" && name != "RLock" && name != "Unlock" && name != "RUnlock" {
		return false
	}
	recvType, ok := sc.pkg.TypesInfo.Types[sel.X]
	if !ok || !IsMutex(recvType.Type) {
		return false
	}
	lk := sc.mutexIdentity(sel.X)
	switch name {
	case "Lock", "RLock":
		sc.emit(Event{Kind: KAcquire, Pos: call.Pos(), Lock: lk}, state)
		*state = append(*state, lk)
	case "Unlock", "RUnlock":
		for i := len(*state) - 1; i >= 0; i-- {
			h := (*state)[i]
			if h.Key == lk.Key {
				*state = append((*state)[:i], (*state)[i+1:]...)
				break
			}
		}
	}
	return true
}

// isUnlockCall reports whether call is <mutex>.Unlock or RUnlock.
func (sc *scanner) isUnlockCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Unlock" && sel.Sel.Name != "RUnlock") {
		return false
	}
	tv, ok := sc.pkg.TypesInfo.Types[sel.X]
	return ok && IsMutex(tv.Type)
}

// mutexIdentity resolves a mutex expression (s.mu, l.mu, mu) to a Lock with
// a universe-stable key.
func (sc *scanner) mutexIdentity(expr ast.Expr) Lock {
	info := sc.pkg.TypesInfo
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if s, ok := info.Selections[e]; ok && s.Kind() == types.FieldVal {
			obj := s.Obj()
			pkgPath := ""
			if obj.Pkg() != nil {
				pkgPath = obj.Pkg().Path()
			}
			owner, name := receiverTypeName(info, e.X), obj.Name()
			display := name
			if owner != "" {
				display = owner + "." + name
			}
			return Lock{Key: LockKey(pkgPath, owner, name), Name: display}
		}
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			pos := sc.pkg.Fset.Position(obj.Pos())
			return Lock{Key: "var@" + pos.String(), Name: obj.Name()}
		}
	}
	return Lock{}
}

// isModulePkg reports whether path was loaded into this run (and therefore
// has graph nodes): exactly the packages whose calls can resolve to edges.
func (sc *scanner) isModulePkg(path string) bool {
	_, ok := sc.graph.byPkg[path]
	return ok
}

// checkStdCall models a standard-library package-level call: only the few
// blocking ones (time.Sleep, JSON encoding) are events.
func (sc *scanner) checkStdCall(call *ast.CallExpr, pkg, name string, state *[]Lock, deferred bool) {
	switch {
	case pkg == "time" && name == "Sleep":
		sc.emit(Event{Kind: KBlock, Pos: call.Pos(), What: "time.Sleep", Deferred: deferred}, state)
	case pkg == "encoding/json" && (name == "Marshal" || name == "MarshalIndent" || name == "Unmarshal"):
		sc.emit(Event{Kind: KBlock, Pos: call.Pos(),
			What: "json." + name + " (encode/decode off-lock and publish the bytes)", Deferred: deferred}, state)
	}
}

func isLogfName(name string) bool { return name == "logf" || name == "Logf" }

// receiverTypeName returns the named type of expr after stripping pointers.
func receiverTypeName(info *types.Info, expr ast.Expr) string {
	tv, ok := info.Types[expr]
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

// IsMutex reports whether t is sync.Mutex or sync.RWMutex (or a pointer to
// one).
func IsMutex(t types.Type) bool {
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
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// pkgPathOf returns the import path when sel is a package-qualified
// reference (time.Sleep), or "".
func pkgPathOf(info *types.Info, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}
