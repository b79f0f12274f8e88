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
	// amortized marks append calls of the self-growth shape
	// (x = append(x, ...) and return append(dst, ...)): the pooled-buffer
	// idiom whose growth is amortized by the caller-owned backing array.
	amortized map[*ast.CallExpr]bool
	// elided marks []byte→string conversions the compiler performs without
	// copying: the key of a map read (m[string(b)] anywhere but the left of
	// an assignment — the stack-built lookup key), an operand of a
	// comparison, and the tag of a switch whose cases are all constants.
	elided map[*ast.CallExpr]bool
}

func (sc *scanner) scanFunc() {
	sc.amortized = make(map[*ast.CallExpr]bool)
	sc.elided = make(map[*ast.CallExpr]bool)
	stored := make(map[ast.Expr]bool) // map elements being written (parents are visited first)
	ast.Inspect(sc.node.Decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.IncDecStmt:
			stored[ast.Unparen(s.X)] = true
		case *ast.IndexExpr:
			if tv, ok := sc.pkg.TypesInfo.Types[s.X]; ok && tv.Type != nil && !stored[s] {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					sc.markElided(s.Index)
				}
			}
		case *ast.BinaryExpr:
			switch s.Op {
			case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
				sc.markElided(s.X)
				sc.markElided(s.Y)
			}
		case *ast.SwitchStmt:
			if s.Tag != nil && sc.constantCases(s) {
				sc.markElided(s.Tag)
			}
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				stored[ast.Unparen(lhs)] = true
			}
			if len(s.Lhs) == len(s.Rhs) {
				for i, rhs := range s.Rhs {
					if call := appendCall(sc.pkg, rhs); call != nil && len(call.Args) > 0 &&
						types.ExprString(s.Lhs[i]) == types.ExprString(call.Args[0]) {
						sc.amortized[call] = true
					}
				}
			}
		case *ast.ReturnStmt:
			// return append(dst, ...) extends a caller-provided buffer; the
			// caller's own assignment shape decides whether that's amortized.
			for _, r := range s.Results {
				if call := appendCall(sc.pkg, r); call != nil {
					sc.amortized[call] = true
				}
			}
		}
		return true
	})
	state := &[]Lock{}
	sc.walkStmts(sc.node.Decl.Body.List, state)
}

// markElided records e as a copy-free conversion when it is one: a direct
// string(b) call. checkConversion still decides what kind of conversion the
// call is; the mark only silences the []byte→string case.
func (sc *scanner) markElided(e ast.Expr) {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := sc.pkg.TypesInfo.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
			sc.elided[call] = true
		}
	}
}

// constantCases reports whether every case expression of s is a constant:
// the condition under which the compiler switches on string(b) in place.
func (sc *scanner) constantCases(s *ast.SwitchStmt) bool {
	for _, c := range s.Body.List {
		for _, e := range c.(*ast.CaseClause).List {
			if tv, ok := sc.pkg.TypesInfo.Types[e]; !ok || tv.Value == nil {
				return false
			}
		}
	}
	return true
}

func appendCall(pkg *analysis.Package, e ast.Expr) *ast.CallExpr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return nil
	}
	if b, ok := pkg.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	return call
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
		// call edge; the statement itself allocates the new goroutine.
		sc.emit(Event{Kind: KAlloc, Pos: s.Pos(), What: "go statement (new goroutine)"}, state)
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

// scan inspects an expression-bearing node, recording blocking, call and
// allocation events. Function literals are recorded as one allocation and
// not entered: their bodies do not run here.
func (sc *scanner) scan(node ast.Node, state *[]Lock, deferred bool) {
	if node == nil {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			sc.emit(Event{Kind: KAlloc, Pos: n.Pos(), What: "closure (function literal)", Deferred: deferred}, state)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				sc.emit(Event{Kind: KBlock, Pos: n.Pos(), What: "channel receive", Deferred: deferred}, state)
			}
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					sc.emit(Event{Kind: KAlloc, Pos: n.Pos(), What: "address-taken composite literal", Deferred: deferred}, state)
				}
			}
		case *ast.BinaryExpr:
			sc.checkConcat(n, state, deferred)
		case *ast.CompositeLit:
			sc.checkCompositeLit(n, state, deferred)
		case *ast.CallExpr:
			sc.checkCall(n, state, deferred)
		}
		return true
	})
}

// checkConcat flags non-constant string concatenation (a fresh backing
// array every evaluation).
func (sc *scanner) checkConcat(n *ast.BinaryExpr, state *[]Lock, deferred bool) {
	if n.Op != token.ADD {
		return
	}
	tv, ok := sc.pkg.TypesInfo.Types[n]
	if !ok || tv.Value != nil || tv.Type == nil {
		return
	}
	if basic, ok := tv.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
		sc.emit(Event{Kind: KAlloc, Pos: n.Pos(), What: "string concatenation", Deferred: deferred}, state)
	}
}

// checkCompositeLit flags heap-bound composite literals: address-taken
// struct literals, and slice/map literals (which allocate their backing
// store). A plain struct value literal is copied into place and flagged only
// if something else makes it escape.
func (sc *scanner) checkCompositeLit(n *ast.CompositeLit, state *[]Lock, deferred bool) {
	tv, ok := sc.pkg.TypesInfo.Types[n]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		sc.emit(Event{Kind: KAlloc, Pos: n.Pos(), What: "slice literal", Deferred: deferred}, state)
	case *types.Map:
		sc.emit(Event{Kind: KAlloc, Pos: n.Pos(), What: "map literal", Deferred: deferred}, state)
	}
}

func (sc *scanner) checkCall(call *ast.CallExpr, state *[]Lock, deferred bool) {
	info := sc.pkg.TypesInfo
	fun := ast.Unparen(call.Fun)

	// Type conversions.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		sc.checkConversion(call, tv.Type, state, deferred)
		return
	}

	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Builtin:
			sc.checkBuiltin(call, obj.Name(), state, deferred)
			return
		case *types.Func:
			sc.boxingArgs(call, state, deferred)
			if obj.Pkg() != nil && sc.isModulePkg(obj.Pkg().Path()) {
				sc.emit(Event{Kind: KCall, Pos: call.Pos(),
					Callees: []string{FuncKey(obj)}, Display: displayName(obj), Deferred: deferred}, state)
			}
			return
		default:
			// Function value (local, parameter, or field shorthand).
			if isLogfName(fun.Name) {
				sc.emit(Event{Kind: KBlock, Pos: call.Pos(),
					What: "call through " + fun.Name + " (may block on log I/O)", Deferred: deferred}, state)
				return
			}
			sc.boxingArgs(call, state, deferred)
			sc.emit(Event{Kind: KCall, Pos: call.Pos(), Dynamic: true, Display: fun.Name, Deferred: deferred}, state)
			return
		}
	case *ast.SelectorExpr:
		sc.checkSelectorCall(call, fun, state, deferred)
		return
	}
	// Immediate calls of function literals and other exotic callees: the
	// literal's alloc event is recorded by scan; the call is out of scope.
}

func (sc *scanner) checkSelectorCall(call *ast.CallExpr, sel *ast.SelectorExpr, state *[]Lock, deferred bool) {
	info := sc.pkg.TypesInfo
	name := sel.Sel.Name

	// Package-qualified references: time.Sleep, encoding/json, fmt, module
	// package-level functions.
	if pkg := pkgPathOf(info, sel); pkg != "" {
		if sc.isModulePkg(pkg) {
			sc.boxingArgs(call, state, deferred)
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
		sc.boxingArgs(call, state, deferred)
		if iface, ok := s.Recv().Underlying().(*types.Interface); ok {
			// Interface dispatch: candidates are every module implementation.
			// Interfaces with no module implementation (stdlib error values
			// and friends) resolve to nothing and follow the stdlib default
			// (assumed non-blocking, allocation-free).
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
			return
		}
		sc.checkStdMethod(call, fn, recv, name, state, deferred)
	case types.FieldVal:
		// Calling a function-typed field: dynamic.
		sc.boxingArgs(call, state, deferred)
		sc.emit(Event{Kind: KCall, Pos: call.Pos(), Dynamic: true, Display: name, Deferred: deferred}, state)
	}
}

func (sc *scanner) checkBuiltin(call *ast.CallExpr, name string, state *[]Lock, deferred bool) {
	switch name {
	case "make":
		sc.emit(Event{Kind: KAlloc, Pos: call.Pos(), What: "make", Deferred: deferred}, state)
	case "new":
		sc.emit(Event{Kind: KAlloc, Pos: call.Pos(), What: "new", Deferred: deferred}, state)
	case "append":
		if !sc.amortized[call] {
			sc.emit(Event{Kind: KAlloc, Pos: call.Pos(), What: "append into a fresh slice", Deferred: deferred}, state)
		}
	}
}

// checkConversion flags conversions that copy into a fresh backing store or
// box into an interface.
func (sc *scanner) checkConversion(call *ast.CallExpr, target types.Type, state *[]Lock, deferred bool) {
	if len(call.Args) != 1 {
		return
	}
	argTV, ok := sc.pkg.TypesInfo.Types[call.Args[0]]
	if !ok || argTV.Type == nil {
		return
	}
	if argTV.Value != nil {
		return // constant conversions are materialized at compile time
	}
	switch tt := target.Underlying().(type) {
	case *types.Interface:
		if boxes(argTV.Type) {
			sc.emit(Event{Kind: KAlloc, Pos: call.Pos(), What: "interface conversion (boxing)", Deferred: deferred}, state)
		}
	case *types.Basic:
		if tt.Info()&types.IsString != 0 {
			if _, isSlice := argTV.Type.Underlying().(*types.Slice); isSlice && !sc.elided[call] {
				sc.emit(Event{Kind: KAlloc, Pos: call.Pos(), What: "[]byte→string conversion", Deferred: deferred}, state)
			}
		}
	case *types.Slice:
		if basic, ok := argTV.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
			sc.emit(Event{Kind: KAlloc, Pos: call.Pos(), What: "string→slice conversion", Deferred: deferred}, state)
		}
	}
}

// boxingArgs flags non-constant, non-pointer-shaped arguments passed to
// interface-typed parameters: each such pass heap-allocates the value's box.
func (sc *scanner) boxingArgs(call *ast.CallExpr, state *[]Lock, deferred bool) {
	tv, ok := sc.pkg.TypesInfo.Types[ast.Unparen(call.Fun)]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	if np == 0 {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				if i == np-1 {
					pt = sig.Params().At(np - 1).Type() // x... passes the slice itself
				}
			} else if st, ok := sig.Params().At(np - 1).Type().(*types.Slice); ok {
				pt = st.Elem()
			}
		case i < np:
			pt = sig.Params().At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		atv, ok := sc.pkg.TypesInfo.Types[arg]
		if !ok || atv.Type == nil || atv.Value != nil || atv.IsNil() {
			continue
		}
		if boxes(atv.Type) {
			sc.emit(Event{Kind: KAlloc, Pos: arg.Pos(), What: "interface boxing of argument", Deferred: deferred}, state)
		}
	}
}

// boxes reports whether converting a value of type t to an interface
// heap-allocates: pointer-shaped values (pointers, maps, channels, funcs,
// unsafe pointers) ride in the interface word; interfaces re-wrap for free.
func boxes(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return false
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Kind() != types.UnsafePointer && b.Kind() != types.Invalid
	}
	return true
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

// stdAllocFns lists standard-library package-level functions that allocate
// on every call. Unlisted stdlib calls are assumed allocation-free — extend
// this table as hot paths grow new dependencies.
var stdAllocFns = map[string]map[string]bool{
	"fmt": {"*": true},
	"errors": {
		"New": true, "Join": true,
	},
	"strconv": {
		"Itoa": true, "FormatInt": true, "FormatUint": true, "FormatFloat": true,
		"FormatBool": true, "Quote": true, "QuoteToASCII": true, "Unquote": true,
	},
	"strings": {
		"Split": true, "SplitN": true, "SplitAfter": true, "SplitAfterN": true,
		"Fields": true, "FieldsFunc": true, "Join": true, "Repeat": true,
		"Replace": true, "ReplaceAll": true, "ToUpper": true, "ToLower": true,
		"ToTitle": true, "Map": true, "Clone": true,
		"NewReader": true, "NewReplacer": true,
	},
	"bytes": {
		"Split": true, "SplitN": true, "SplitAfter": true, "SplitAfterN": true,
		"Fields": true, "Join": true, "Repeat": true, "Replace": true,
		"ReplaceAll": true, "ToUpper": true, "ToLower": true, "Clone": true,
		"NewReader": true, "NewBuffer": true, "NewBufferString": true,
	},
	"sort": {
		"Slice": true, "SliceStable": true, "SliceIsSorted": true, // reflect.Swapper allocates
	},
	"time": {
		"NewTimer": true, "NewTicker": true, "After": true, "Tick": true,
		"AfterFunc": true, "Parse": true, "ParseDuration": true,
	},
	"slices": {
		"Clone": true, "Collect": true, "Sorted": true, "Concat": true,
		"Insert": true, "AppendSeq": true,
	},
	"maps": {
		"Clone": true, "Collect": true,
	},
	"log":             {"*": true},
	"encoding/json":   {"*": true},
	"encoding/base64": {"*": true},
	"encoding/hex":    {"*": true},
	"regexp":          {"*": true},
	"reflect":         {"*": true},
}

// stdAllocMethods lists allocating methods on stdlib types, by receiver type
// name then method name.
var stdAllocMethods = map[string]map[string]bool{
	"Builder": {"String": true, "Grow": true, "WriteString": true, "WriteByte": true, "Write": true, "WriteRune": true},
	"Buffer":  {"String": true, "Bytes": true},
	"Time":    {"Format": true, "String": true},
	"Regexp":  {"*": true},
}

func stdTableHas(table map[string]map[string]bool, key, name string) bool {
	m, ok := table[key]
	if !ok {
		return false
	}
	return m["*"] || m[name]
}

// checkStdCall models a standard-library package-level call: the few
// blocking ones (time.Sleep, JSON encoding), plus the allocation table.
func (sc *scanner) checkStdCall(call *ast.CallExpr, pkg, name string, state *[]Lock, deferred bool) {
	switch {
	case pkg == "time" && name == "Sleep":
		sc.emit(Event{Kind: KBlock, Pos: call.Pos(), What: "time.Sleep", Deferred: deferred}, state)
		return
	case pkg == "encoding/json" && (name == "Marshal" || name == "MarshalIndent" || name == "Unmarshal"):
		sc.emit(Event{Kind: KBlock, Pos: call.Pos(),
			What: "json." + name + " (encode/decode off-lock and publish the bytes)", Deferred: deferred}, state)
		sc.emit(Event{Kind: KAlloc, Pos: call.Pos(), What: "allocating call to json." + name, Deferred: deferred}, state)
		return
	}
	sc.boxingArgs(call, state, deferred)
	if stdTableHas(stdAllocFns, pkg, name) {
		base := pkg
		if i := lastSlash(pkg); i >= 0 {
			base = pkg[i+1:]
		}
		sc.emit(Event{Kind: KAlloc, Pos: call.Pos(), What: "allocating call to " + base + "." + name, Deferred: deferred}, state)
	}
}

// checkStdMethod models methods on stdlib receivers via the allocation
// table; everything else defaults to free.
func (sc *scanner) checkStdMethod(call *ast.CallExpr, fn *types.Func, recv, name string, state *[]Lock, deferred bool) {
	if stdTableHas(stdAllocMethods, recv, name) {
		sc.emit(Event{Kind: KAlloc, Pos: call.Pos(), What: "allocating call to " + recv + "." + name, Deferred: deferred}, state)
	}
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
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
