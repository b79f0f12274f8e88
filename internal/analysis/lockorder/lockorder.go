// Package lockorder detects lock-order deadlocks module-wide: it assembles
// the global lock-acquisition-order graph from the call graph's summaries
// (an edge A → B for every site that acquires B — directly or through any
// chain of calls — while holding A) and reports every cycle in that
// relation. Two threads traversing a cycle's edges in different positions
// can each hold one lock and wait for the other forever; an acyclic global
// order makes that impossible, whatever the interleaving.
//
// On top of cycle detection, neverNested pins PR 6's collect-then-push
// discipline as a checked invariant: bcastLog.mu and its work queue's mutex
// (parkq.Queue.mu) must not nest in either direction — producers collect dirty connections under the
// log lock, release it, then push to the queue; flushers claim work under
// the queue lock and drain the log only after releasing it. A nesting in
// only one direction is not yet a cycle, so the cycle check alone would
// accept the first half of a future deadlock; the pair check rejects it
// outright.
package lockorder

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"crowdfill/internal/analysis"
	"crowdfill/internal/analysis/callgraph"
)

// neverNested lists owner pairs that must not nest in either direction.
var neverNested = [][2]string{
	{"bcastLog", "Queue"},
	// The flight recorder's ring lock must not nest with the broadcast
	// log's either way: drop/evict notes are recorded only after bcastLog.mu
	// is released (the single-noter teardown discipline), and the recorder
	// never calls back into the serving plane. Pinned here so a future
	// "just record it under the lock" shortcut fails the build instead of
	// putting the recorder's sink I/O on the publish path.
	{"bcastLog", "Recorder"},
	// The readiness poller mirrors the flusher pool's discipline: the
	// waiter resolves ready tokens under Poller.mu, releases it, then
	// pushes to the dispatch queue; workers claim under the queue lock and
	// run handlers after releasing it. Pinning the pair keeps epoll-side
	// bookkeeping and dispatch parking from ever nesting.
	{"Poller", "Queue"},
}

// New returns the lockorder analyzer.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "lockorder",
		Doc: "assembles the global lock-acquisition-order graph from call-graph " +
			"summaries and reports cycles (potential deadlocks) and forbidden " +
			"nestings (bcastLog.mu or Poller.mu vs Queue.mu, the collect-then-push rule)",
		Run: run,
	}
}

// rec is one computed finding with the package that owns its position.
type rec struct {
	pkgPath string
	diag    analysis.Diagnostic
}

func run(pass *analysis.Pass) error {
	recs := pass.Shared.Memo("lockorder.findings", func() any {
		return compute(pass.Shared)
	}).([]rec)
	for _, r := range recs {
		if r.pkgPath == pass.Pkg.Path() {
			pass.Report(r.diag)
		}
	}
	return nil
}

// compute runs once per lint invocation over the whole module's order graph.
func compute(shared *analysis.Shared) []rec {
	g := callgraph.Get(shared)
	fset := token.NewFileSet()
	if len(shared.Packages) > 0 {
		fset = shared.Packages[0].Fset
	}
	var recs []rec

	// Forbidden pairs: any edge between the named owners, either direction.
	for _, e := range g.OrderEdges {
		for _, p := range neverNested {
			if (e.From.Owner == p[0] && e.To.Owner == p[1]) ||
				(e.From.Owner == p[1] && e.To.Owner == p[0]) {
				msg := fmt.Sprintf(
					"forbidden nesting: %s acquired while holding %s in %s%s; %s.mu and %s.mu must never nest (collect under the log lock, release, then push)",
					e.To.Name, e.From.Name, e.FnDisplay, viaSuffix(e.Via), p[0], p[1])
				recs = append(recs, rec{pkgPath: e.PkgPath, diag: analysis.Diagnostic{Pos: e.Pos, Message: msg}})
			}
		}
	}

	// Cycles: strongly connected components of the order graph with more
	// than one lock. One finding per component, anchored at its first
	// witness edge.
	adj := make(map[string][]callgraph.OrderEdge)
	for _, e := range g.OrderEdges {
		adj[e.From.Key] = append(adj[e.From.Key], e)
	}
	for _, comp := range sccs(adj) {
		if len(comp) < 2 {
			continue
		}
		recs = append(recs, cycleFinding(fset, adj, comp))
	}
	return recs
}

func viaSuffix(via []string) string {
	if len(via) == 0 {
		return ""
	}
	return " (via " + strings.Join(via, " → ") + ")"
}

// cycleFinding walks one deterministic cycle inside a strongly connected
// component and formats it with per-edge witnesses.
func cycleFinding(fset *token.FileSet, adj map[string][]callgraph.OrderEdge, comp []string) rec {
	in := make(map[string]bool, len(comp))
	for _, k := range comp {
		in[k] = true
	}
	sort.Strings(comp)

	// Greedy smallest-successor walk from the smallest lock: inside an SCC
	// every step stays walkable, so the path must revisit a node; the
	// segment from the first visit is the reported cycle.
	next := func(k string) (callgraph.OrderEdge, bool) {
		var best callgraph.OrderEdge
		found := false
		for _, e := range adj[k] {
			if !in[e.To.Key] {
				continue
			}
			if !found || e.To.Key < best.To.Key {
				best, found = e, true
			}
		}
		return best, found
	}
	pathIdx := map[string]int{comp[0]: 0}
	var edges []callgraph.OrderEdge
	cur := comp[0]
	for {
		e, ok := next(cur)
		if !ok {
			break // unreachable for a true SCC; bail defensively
		}
		edges = append(edges, e)
		if i, seen := pathIdx[e.To.Key]; seen {
			edges = edges[i:]
			break
		}
		pathIdx[e.To.Key] = len(edges)
		cur = e.To.Key
	}
	if len(edges) == 0 {
		return rec{diag: analysis.Diagnostic{Message: "lock-order cycle among " + strings.Join(comp, ", ")}}
	}

	var names, wits []string
	for _, e := range edges {
		names = append(names, e.From.Name)
		pos := fset.Position(e.Pos)
		wits = append(wits, fmt.Sprintf("%s → %s in %s%s (%s:%d)",
			e.From.Name, e.To.Name, e.FnDisplay, viaSuffix(e.Via), pos.Filename, pos.Line))
	}
	names = append(names, edges[0].From.Name)
	msg := fmt.Sprintf("lock-order cycle: %s [%s]",
		strings.Join(names, " → "), strings.Join(wits, "; "))
	first := edges[0]
	return rec{pkgPath: first.PkgPath, diag: analysis.Diagnostic{Pos: first.Pos, Message: msg}}
}

// sccs returns the strongly connected components of the order graph
// (Tarjan, iterative over sorted keys for determinism).
func sccs(adj map[string][]callgraph.OrderEdge) [][]string {
	keys := make([]string, 0, len(adj))
	seenKey := make(map[string]bool)
	addKey := func(k string) {
		if !seenKey[k] {
			seenKey[k] = true
			keys = append(keys, k)
		}
	}
	for k, edges := range adj {
		addKey(k)
		for _, e := range edges {
			addKey(e.To.Key)
		}
	}
	sort.Strings(keys)

	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var comps [][]string
	counter := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range adj[v] {
			w := e.To.Key
			if _, ok := index[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			comps = append(comps, comp)
		}
	}
	for _, k := range keys {
		if _, ok := index[k]; !ok {
			strongconnect(k)
		}
	}
	return comps
}
