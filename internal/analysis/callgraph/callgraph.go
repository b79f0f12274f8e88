// Package callgraph builds a module-wide call graph with per-function
// summaries, the interprocedural substrate under the locks analyzer
// (DESIGN.md §13).
//
// The graph covers every function declaration in the packages of one
// analysis run (analysis.Shared). Call edges are static: direct calls and
// method calls resolve to their declarations; calls through interface
// methods resolve to every module type implementing the interface (the
// repo's interface surface — transport.Conn, model.ProbableDeltaListener —
// is small, so the over-approximation is tight); calls through function
// values are recorded as dynamic and never resolved. Goroutine launches and
// function literals are deliberately not edges: code spawned with `go` does
// not run under the caller's locks, and a closure built somewhere does not
// run there.
//
// Each function gets a scanner pass (scan.go) that records events — lock
// acquisitions by qualified mutex identity, blocking leaf operations, call
// sites — each with a snapshot of the locks held at
// that point, computed by a branch-cloning walk. A fixed point over call
// edges then derives per-function summaries: does the function
// (transitively) block, and which locks does it (transitively) acquire.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"crowdfill/internal/analysis"
)

// Lock identifies one mutex by a string key that is stable across separate
// type-check universes (the plain and test-augmented variants of a package
// re-type-check the same sources into distinct types.Object sets; string
// identity keeps their locks unified).
type Lock struct {
	// Key is "pkgpath:Owner.field" for struct-field mutexes and
	// "var@file:line:col" for local or package-level mutex variables.
	Key string
	// Name is the display name: "bcastLog.mu" or a bare variable name.
	Name string
}

// LockKey is the Key of the mutex field named field of struct type owner
// declared in package pkgPath.
func LockKey(pkgPath, owner, field string) string {
	return pkgPath + ":" + owner + "." + field
}

// Kind discriminates scanner events.
type Kind int

const (
	// KAcquire is a literal mu.Lock()/mu.RLock() on a sync mutex.
	KAcquire Kind = iota
	// KBlock is a blocking leaf: channel ops, blocking select, time.Sleep,
	// WaitGroup.Wait, transport I/O, logf, encoding/json.
	KBlock
	// KCall is a call site with statically resolved candidate callees (or
	// Dynamic when unresolvable).
	KCall
)

// Event is one scanner observation inside a function body.
type Event struct {
	Kind Kind
	Pos  token.Pos
	// Held snapshots the locks held just before the event.
	Held []Lock
	// Lock is the acquired mutex (KAcquire only).
	Lock Lock
	// What is the blocking operation (KBlock), phrased exactly as locks
	// reports it.
	What string
	// Callees holds candidate callee node keys (KCall).
	Callees []string
	// Display names the callee for messages: "Queue.Push".
	Display string
	// Dynamic marks a call through a function value (unresolvable).
	Dynamic bool
	// Deferred marks a deferred call: it runs at return time, so held-state
	// checks do not apply, but its lock footprint still belongs to the
	// function's summary.
	Deferred bool
}

// Acq is one (transitively) acquired lock in a summary.
type Acq struct {
	Lock Lock
	// Via is the call chain below this function ([] for a direct acquire).
	Via []string
}

// Summary is the derived interprocedural footprint of one function.
type Summary struct {
	// Blocks is set when the function may block (transitively).
	Blocks bool
	// BlockWhat is the leaf blocking operation, phrased as Event.What.
	BlockWhat string
	// BlockVia is the call chain from this function down to the leaf's
	// containing function ([] when the leaf is in this function).
	BlockVia []string
	// Acquires maps lock key → acquisition info, transitively.
	Acquires map[string]Acq
}

// Node is one function declaration in the graph.
type Node struct {
	// Key is "pkgpath.Recv.Name" for methods, "pkgpath.Name" for functions.
	Key string
	// Display is "Recv.Name" or "Name".
	Display string
	PkgPath string
	Decl    *ast.FuncDecl
	Events  []Event
	Sum     Summary
}

// Graph is the module-wide call graph for one analysis run.
type Graph struct {
	Nodes map[string]*Node

	byPkg      map[string][]*Node
	sortedKeys []string
	namedTypes []*types.Named
	implCache  map[implKey]bool
}

type implKey struct {
	named *types.Named
	iface *types.Interface
	ptr   bool
}

// Get returns the call graph for the run, building it on first use and
// memoizing it in shared.
func Get(shared *analysis.Shared) *Graph {
	return shared.Memo("callgraph", func() any { return build(shared) }).(*Graph)
}

// PkgNodes returns the graph nodes declared in the named package, in source
// order.
func (g *Graph) PkgNodes(pkgPath string) []*Node { return g.byPkg[pkgPath] }

// SortedAcquires returns a summary's acquisitions in deterministic (key)
// order.
func SortedAcquires(sum *Summary) []Acq {
	keys := make([]string, 0, len(sum.Acquires))
	for k := range sum.Acquires {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Acq, 0, len(keys))
	for _, k := range keys {
		out = append(out, sum.Acquires[k])
	}
	return out
}

func build(shared *analysis.Shared) *Graph {
	g := &Graph{
		Nodes:     make(map[string]*Node),
		byPkg:     make(map[string][]*Node),
		implCache: make(map[implKey]bool),
	}
	// Pass 1: register every function declaration and collect the module's
	// named types for interface-call resolution.
	for _, pkg := range shared.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				key := FuncKey(fn)
				if key == "" || g.Nodes[key] != nil {
					continue
				}
				n := &Node{
					Key:     key,
					Display: displayName(fn),
					PkgPath: pkg.Path,
					Decl:    fd,
				}
				g.Nodes[key] = n
				g.byPkg[pkg.Path] = append(g.byPkg[pkg.Path], n)
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				if _, isIface := named.Underlying().(*types.Interface); !isIface {
					g.namedTypes = append(g.namedTypes, named)
				}
			}
		}
	}
	g.sortedKeys = make([]string, 0, len(g.Nodes))
	for k := range g.Nodes {
		g.sortedKeys = append(g.sortedKeys, k)
	}
	sort.Strings(g.sortedKeys)

	// Pass 2: scan every body into events.
	for _, pkg := range shared.Packages {
		for _, n := range g.byPkg[pkg.Path] {
			sc := &scanner{pkg: pkg, graph: g, node: n}
			sc.walkStmts(n.Decl.Body.List, &[]Lock{})
		}
	}

	g.propagate()
	return g
}

// FuncKey names a function or method by package path, receiver type and
// name — a string so the plain and test-augmented type-check universes of a
// package agree on node identity.
func FuncKey(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		rname := namedName(recv.Type())
		if rname == "" {
			return ""
		}
		return pkg.Path() + "." + rname + "." + fn.Name()
	}
	return pkg.Path() + "." + fn.Name()
}

func displayName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if rname := namedName(sig.Recv().Type()); rname != "" {
			return rname + "." + fn.Name()
		}
	}
	return fn.Name()
}

// namedName strips pointers and reports the named type's name, "" otherwise.
func namedName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// implementers returns the node keys of the module methods satisfying an
// interface method call: for every module named type implementing iface, the
// defining declaration of its method named name.
func (g *Graph) implementers(iface *types.Interface, name string) []string {
	var keys []string
	for _, named := range g.namedTypes {
		ptr := types.NewPointer(named)
		if !g.implementsCached(named, iface, false) && !g.implementsCached(named, iface, true) {
			continue
		}
		sel := types.NewMethodSet(ptr).Lookup(nil, name)
		if sel == nil {
			// Method may be package-private to the interface's package.
			if named.Obj().Pkg() != nil {
				sel = types.NewMethodSet(ptr).Lookup(named.Obj().Pkg(), name)
			}
		}
		if sel == nil {
			continue
		}
		if fn, ok := sel.Obj().(*types.Func); ok {
			if key := FuncKey(fn); key != "" {
				keys = append(keys, key)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

func (g *Graph) implementsCached(named *types.Named, iface *types.Interface, ptr bool) bool {
	k := implKey{named: named, iface: iface, ptr: ptr}
	if v, ok := g.implCache[k]; ok {
		return v
	}
	var t types.Type = named
	if ptr {
		t = types.NewPointer(named)
	}
	v := types.Implements(t, iface) || implementsByString(t, iface)
	g.implCache[k] = v
	return v
}

// implementsByString is the cross-universe fallback for types.Implements.
// With -tests, a package's test variant re-type-checks its sources into a
// fresh universe while its dependents still import the plain variant, so an
// interface and its implementation can come from different types.Object
// worlds and pointer-identity comparison fails. Signatures printed with
// full package paths are stable across universes, so method-by-method string
// comparison recovers the relation.
func implementsByString(t types.Type, iface *types.Interface) bool {
	if iface.NumMethods() == 0 {
		return false // interface{} matches everything; never a call target here
	}
	ms := types.NewMethodSet(t)
	for i := 0; i < iface.NumMethods(); i++ {
		want := iface.Method(i)
		sel := ms.Lookup(want.Pkg(), want.Name())
		if sel == nil {
			// The implementation may live in another package; exported
			// methods are found with a nil package qualifier.
			sel = ms.Lookup(nil, want.Name())
		}
		if sel == nil {
			return false
		}
		got, ok1 := sel.Obj().Type().(*types.Signature)
		wsig, ok2 := want.Type().(*types.Signature)
		if !ok1 || !ok2 || !sigEqualStable(got, wsig) {
			return false
		}
	}
	return true
}

// sigEqualStable compares two signatures by their parameter and result types
// printed with full package paths (parameter names ignored — declarations
// and interfaces are free to name them differently).
func sigEqualStable(a, b *types.Signature) bool {
	if a.Variadic() != b.Variadic() {
		return false
	}
	return tupleEqualStable(a.Params(), b.Params()) &&
		tupleEqualStable(a.Results(), b.Results())
}

func tupleEqualStable(a, b *types.Tuple) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if typeStringStable(a.At(i).Type()) != typeStringStable(b.At(i).Type()) {
			return false
		}
	}
	return true
}

// typeStringStable prints a type with full package paths, identical across
// separate type-check universes of the same sources.
func typeStringStable(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Path() })
}

// propagate runs the summary fixed point: direct events seed each node, then
// call edges (excluding goroutine launches and function literals, which are
// never edges) union callee acquisitions and blocking into callers until
// stable. The merge is monotone — acquire keys are only added, the first
// block witness wins — so termination is by lattice height.
func (g *Graph) propagate() {
	for _, key := range g.sortedKeys {
		n := g.Nodes[key]
		n.Sum.Acquires = make(map[string]Acq)
		for _, ev := range n.Events {
			switch ev.Kind {
			case KAcquire:
				if _, ok := n.Sum.Acquires[ev.Lock.Key]; !ok {
					n.Sum.Acquires[ev.Lock.Key] = Acq{Lock: ev.Lock}
				}
			case KBlock:
				if !n.Sum.Blocks {
					n.Sum.Blocks = true
					n.Sum.BlockWhat = ev.What
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, key := range g.sortedKeys {
			n := g.Nodes[key]
			for _, ev := range n.Events {
				if ev.Kind != KCall {
					continue
				}
				for _, ck := range ev.Callees {
					c := g.Nodes[ck]
					if c == nil || c == n {
						continue
					}
					for lk, acq := range c.Sum.Acquires {
						if _, ok := n.Sum.Acquires[lk]; ok {
							continue
						}
						via := append([]string{c.Display}, acq.Via...)
						n.Sum.Acquires[lk] = Acq{Lock: acq.Lock, Via: via}
						changed = true
					}
					if c.Sum.Blocks && !n.Sum.Blocks {
						n.Sum.Blocks = true
						n.Sum.BlockWhat = c.Sum.BlockWhat
						n.Sum.BlockVia = append([]string{c.Display}, c.Sum.BlockVia...)
						changed = true
					}
				}
			}
		}
	}
}
