// Package hotalloc enforces allocation-freedom on the module's hot paths.
// A function whose doc comment carries //lint:hotpath (the codec append and
// decode paths, the wsock prepared-frame writers, the flusher's drainBatch,
// the planner's incremental Repair, the estimator's delta path) must be
// transitively allocation-free: the analyzer walks the call graph from every
// annotated root and reports each allocation site it can reach — composite
// literals, make/new, non-amortized appends, closures, goroutine launches,
// string conversions, interface boxing, allocating stdlib calls — plus every
// dynamic call, which cannot be proven free.
//
// Two suppression shapes exist, both spelled //lint:allow hotalloc <reason>:
// on an allocation site it excuses that one site (a cold error path, a
// debug-only branch); on a call site it prunes the call edge, excusing the
// whole subtree (a callee that only runs under a debug flag). Pruning
// consumes the directive through the shared allow state, so the
// stale-directive check still fires when the code moves out from under it.
package hotalloc

import (
	"go/token"
	"sort"
	"strings"

	"crowdfill/internal/analysis"
	"crowdfill/internal/analysis/callgraph"
)

// New returns the hotalloc analyzer.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "hotalloc",
		Doc: "requires //lint:hotpath-annotated functions to be transitively " +
			"allocation-free (per call-graph summaries), apart from " +
			"//lint:allow hotalloc sites and pruned call edges",
		Run: analysis.ModuleRun("hotalloc.findings", compute),
	}
}

// visit records how a node became hot-reachable: the annotated root and the
// call chain (function display names) from the root's first callee down to
// the node itself (empty for the root).
type visit struct {
	root string
	via  []string
}

// compute walks the call graph from every //lint:hotpath root (BFS over call
// edges, deferred calls included — a deferred allocation on the hot path is
// still an allocation) and reports the allocation sites and dynamic calls of
// every reachable function. Call edges whose site carries
// //lint:allow hotalloc are pruned, consuming the directive.
func compute(shared *analysis.Shared) []analysis.Finding {
	g := callgraph.Get(shared)
	fset := token.NewFileSet()
	if len(shared.Packages) > 0 {
		fset = shared.Packages[0].Fset
	}

	keys := make([]string, 0, len(g.Nodes))
	for k := range g.Nodes {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	visited := make(map[string]visit)
	var queue []string
	for _, k := range keys {
		if g.Nodes[k].Hot {
			visited[k] = visit{root: g.Nodes[k].Display}
			queue = append(queue, k)
		}
	}

	var recs []analysis.Finding
	seen := make(map[string]bool) // dedup (pos|message) across multi-edge reaches
	report := func(n *callgraph.Node, pos token.Pos, msg string) {
		dk := fset.Position(pos).String() + "|" + msg
		if seen[dk] {
			return
		}
		seen[dk] = true
		recs = append(recs, analysis.Finding{PkgPath: n.PkgPath, Diagnostic: analysis.Diagnostic{Pos: pos, Message: msg}})
	}

	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		n := g.Nodes[k]
		vi := visited[k]
		for _, ev := range n.Events {
			if ev.Kind != callgraph.KCall {
				continue
			}
			pos := fset.Position(ev.Pos)
			if shared.UseAllow("hotalloc", pos.Filename, pos.Line) {
				continue // pruned edge: the whole subtree is excused
			}
			if ev.Dynamic {
				report(n, ev.Pos, "hot-path dynamic call through "+ev.Display+
					" cannot be proven allocation-free"+locate(n, vi))
				continue
			}
			for _, ck := range ev.Callees {
				c := g.Nodes[ck]
				if c == nil {
					continue
				}
				if _, ok := visited[ck]; ok {
					continue
				}
				if inTestFile(fset, c) {
					// A test double reached through interface dispatch (the
					// -tests load variant widens the implementer sets) is not
					// a production hot path; the gate binds shipped code.
					continue
				}
				via := make([]string, 0, len(vi.via)+1)
				via = append(append(via, vi.via...), c.Display)
				visited[ck] = visit{root: vi.root, via: via}
				queue = append(queue, ck)
			}
		}
	}

	// Report allocation sites of every reachable node, in deterministic
	// (node-key, event) order.
	reached := make([]string, 0, len(visited))
	for k := range visited {
		reached = append(reached, k)
	}
	sort.Strings(reached)
	for _, k := range reached {
		n := g.Nodes[k]
		vi := visited[k]
		for _, ev := range n.Events {
			if ev.Kind != callgraph.KAlloc {
				continue
			}
			report(n, ev.Pos, "hot-path allocation: "+ev.What+locate(n, vi))
		}
	}
	return recs
}

// inTestFile reports whether a node's declaration lives in a _test.go file.
func inTestFile(fset *token.FileSet, n *callgraph.Node) bool {
	if n.Decl == nil {
		return false
	}
	return strings.HasSuffix(fset.Position(n.Decl.Pos()).Filename, "_test.go")
}

// locate phrases where a finding sits relative to its hot root.
func locate(n *callgraph.Node, vi visit) string {
	if len(vi.via) == 0 {
		return " in //lint:hotpath function " + n.Display
	}
	return " in " + n.Display + " (reachable from //lint:hotpath " + vi.root +
		" via " + strings.Join(vi.via, " → ") + ")"
}
