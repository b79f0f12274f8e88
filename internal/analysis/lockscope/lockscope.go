// Package lockscope guards the broadcast plane's lock discipline (DESIGN.md
// §8): publish latency stays flat only because nothing blocking ever runs
// inside the critical sections of server.bcastLog.mu and NetServer.mu — no
// channel operations, no transport sends, no JSON encoding of whole
// replicas, no Logf calls that may block on I/O — and because locks are only
// ever acquired in the NetServer.mu → bcastLog.mu order (the reverse order
// deadlocks against the publish path).
//
// Since PR 8 the analysis is interprocedural: it consumes the module call
// graph (internal/analysis/callgraph), whose scanner tracks
// Lock/RLock/Unlock/RUnlock and defer-Unlock through each body with
// branch-cloned lock state and whose fixed point derives, per function,
// whether it may block and which locks it transitively acquires. "Blocking
// under lock" and "self-reentry" are therefore found through any depth of
// module calls; the hand-maintained model that previously listed the lock
// footprint of every broadcast-plane method is gone, replaced by derived
// summaries. What remains hand-written is policy, not mechanics: which
// owners are guarded, which nesting order is sanctioned, and which bodies
// run inside Core's critical section without a literal Lock (delta-listener
// callbacks, the planner's repair paths, the index flush machinery — seeded
// as an implicit Core hold). The blocking leaves (transport I/O on
// Conn-named receivers, time.Sleep, encoding/json, logf) live with the
// scanner in callgraph. sync.Cond.Wait is exempt: it releases the lock while
// parked and is the designed follower wait. Function literals and goroutine
// bodies are skipped — code built under a lock does not run under it.
package lockscope

import (
	"go/ast"
	"go/token"
	"strings"

	"crowdfill/internal/analysis"
	"crowdfill/internal/analysis/callgraph"
)

// guardedOwners are the struct types (by name) whose critical sections must
// stay non-blocking. Other mutexes in the codebase (wsock.Conn.wmu
// serializing frame writers, marketplace ledgers) legitimately cover I/O and
// are tracked only for ordering.
var guardedOwners = map[string]bool{
	"NetServer": true,
	"bcastLog":  true,
	"Core":      true,
	"Replica":   true,
	// parkq.Queue: the one cond-parked work queue under both worker pools
	// (the flushers' dirty-connection queue, the poll workers' dispatch
	// queue). Every instantiation shares the owner name.
	"Queue": true,
	// The readiness read plane (PR 10): the poller's descriptor-table lock
	// follows the same collect-then-push discipline as the flusher pool —
	// critical sections are map/slice operations only, epoll_ctl and
	// handler dispatch happen outside them.
	"Poller": true,
}

// allowedOrder lists the sanctioned nested-acquisition pairs: outer → inner.
// Queue.mu appears in no pair on purpose: a pool's work queue must never nest
// with its owner's lock (bcastLog.mu, Poller.mu) in either order (producers
// collect dirty connections under the owner's lock, release it, then push),
// so any nesting is an ordering violation. lockorder independently checks this global relation
// for cycles, so adding a pair here cannot silently sanction a deadlock.
var allowedOrder = map[[2]string]bool{
	{"NetServer", "bcastLog"}: true,
	// Conn.wmu is the innermost leaf: the per-connection frame-write lock.
	// Nothing under it acquires module locks (its critical sections end at
	// net.Conn writes), so closing a connection while the server lock is
	// held (register's already-closed branch) cannot invert any order.
	{"NetServer", "Conn"}: true,
	// metrics.Recorder.mu is another innermost leaf: the flight recorder's
	// ring lock. Its critical section is a ring write (the log sink is
	// invoked only after release), and nothing under it acquires module
	// locks, so recording an operational event from inside the server's
	// critical section (e.g. the Central Client's overrun note under
	// NetServer.mu) cannot invert any order. These pairs sanction ordering,
	// not blocking — the sink's potential I/O remains subject to the
	// non-blocking-critical-section check. bcastLog.mu is deliberately NOT
	// paired with Recorder: drop notes on the broadcast plane must be made
	// after release (lockorder pins that as a neverNested pair).
	{"NetServer", "Recorder"}: true,
	{"Core", "Recorder"}:      true,
}

// deltaListenerMethods are the model.ProbableDeltaListener callbacks. The
// table index delivers them synchronously while flushing, and on the server
// every flush happens inside Core's critical section (planner repair, key
// stats, estimator queries all run under it) — so listener bodies are
// analyzed as if Core.mu were held, regardless of the receiver type.
var deltaListenerMethods = map[string]bool{
	"ProbableAdded":   true,
	"ProbableRemoved": true,
	"ProbableUpdated": true,
	"IndexReset":      true,
}

// implicitGuards seeds the lock state of methods that only ever run inside a
// Core critical section — the planner's repair paths (both the full-rebuild
// spec and the delta-driven fast path, plus the engine helpers the deltas
// drive) and the table index's flush machinery. Keyed by receiver type name
// then method name, valued by the guarding owner.
var implicitGuards = map[string]map[string]string{
	"Planner": {
		"Repair": "Core", "repairFull": "Core",
		"repairIncremental": "Core", "crossCheckRepair": "Core",
	},
	"TableIndex": {"flush": "Core", "flushKey": "Core"},
	"deltaAdj": {
		"allocSlot": "Core", "insertAdj": "Core", "compact": "Core",
		"candidateTemplates": "Core", "indexTemplate": "Core", "removeTemplate": "Core",
	},
}

// New returns the lockscope analyzer.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "lockscope",
		Doc: "flags blocking operations (channel ops, transport sends, JSON " +
			"encoding, Logf — directly or through any chain of module calls) " +
			"inside bcastLog.mu/NetServer.mu critical sections and enforces " +
			"the NetServer.mu → bcastLog.mu lock ordering via call-graph summaries",
		Run: run,
	}
}

type checker struct {
	pass  *analysis.Pass
	graph *callgraph.Graph
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, graph: callgraph.Get(pass.Shared)}
	for _, n := range c.graph.PkgNodes(pass.Pkg.Path()) {
		c.checkNode(n)
	}
	return nil
}

func (c *checker) checkNode(n *callgraph.Node) {
	seed := implicitOwner(n.Decl)
	for _, ev := range n.Events {
		held := ev.Held
		if seed != "" {
			held = append([]callgraph.Lock{{Key: "implicit:" + seed, Owner: seed, Name: seed + ".mu"}}, held...)
		}
		switch ev.Kind {
		case callgraph.KBlock:
			if ev.Deferred {
				continue // runs at return time, not under this state
			}
			if guardedHeld(held) {
				c.report(ev.Pos, held, ev.What)
			}
		case callgraph.KAcquire:
			c.checkAcquire(ev.Pos, held, ev.Lock, false)
		case callgraph.KCall:
			if ev.Deferred {
				continue
			}
			c.checkCallEvent(ev, held)
		}
	}
}

// checkCallEvent validates one resolved call site against its callees'
// derived summaries. A call whose callees acquire locks is checked for
// self-reentry and ordering (at most one diagnostic per call site) and, like
// the critical sections it opens, is otherwise trusted; a lock-free callee
// that may block is a blocking operation smuggled into the caller's critical
// section and is reported transitively.
func (c *checker) checkCallEvent(ev callgraph.Event, held []callgraph.Lock) {
	seen := make(map[string]bool)
	acquiresAny := false
	for _, ck := range ev.Callees {
		sum := c.graph.Summary(ck)
		if sum == nil {
			continue
		}
		for _, acq := range callgraph.SortedAcquires(sum) {
			if seen[acq.Lock.Key] {
				continue
			}
			seen[acq.Lock.Key] = true
			acquiresAny = true
			if c.checkAcquire(ev.Pos, held, acq.Lock, true) {
				return
			}
		}
	}
	if acquiresAny || !guardedHeld(held) {
		return
	}
	for _, ck := range ev.Callees {
		sum := c.graph.Summary(ck)
		if sum == nil || !sum.Blocks {
			continue
		}
		what := "call to " + ev.Display + " blocks — " + sum.BlockWhat
		if len(sum.BlockVia) > 0 {
			what += " (via " + strings.Join(sum.BlockVia, " → ") + ")"
		}
		c.report(ev.Pos, held, what)
		return
	}
}

// checkAcquire validates a new acquisition (literal, or derived at a call
// site) against the locks currently held. Reports at most one diagnostic;
// returns whether it reported.
func (c *checker) checkAcquire(pos token.Pos, held []callgraph.Lock, lock callgraph.Lock, isCall bool) bool {
	for _, h := range held {
		if !isCall && lock.Key != "" && h.Key == lock.Key {
			c.pass.Reportf(pos, "acquiring %s while already holding it (self-deadlock)", lock.Name)
			return true
		}
		if isCall && lock.Owner != "" && h.Owner == lock.Owner {
			c.pass.Reportf(pos, "call acquires %s.mu while a %s.mu critical section is open (self-deadlock)", lock.Owner, h.Owner)
			return true
		}
		if isCall && lock.Owner == "" && lock.Key != "" && h.Key == lock.Key {
			c.pass.Reportf(pos, "call acquires %s while a %s critical section is open (self-deadlock)", lock.Name, h.Name)
			return true
		}
		if h.Owner == "" || lock.Owner == "" {
			continue
		}
		if allowedOrder[[2]string{h.Owner, lock.Owner}] {
			continue
		}
		if guardedOwners[h.Owner] || guardedOwners[lock.Owner] {
			c.pass.Reportf(pos, "lock ordering: acquiring %s.mu while holding %s.mu; the sanctioned order is NetServer.mu → bcastLog.mu only", lock.Owner, h.Owner)
			return true
		}
	}
	return false
}

// guardedHeld reports whether any currently-held lock belongs to a guarded
// owner type.
func guardedHeld(held []callgraph.Lock) bool {
	for _, h := range held {
		if guardedOwners[h.Owner] {
			return true
		}
	}
	return false
}

func (c *checker) report(pos token.Pos, held []callgraph.Lock, what string) {
	owner := ""
	for _, h := range held {
		if guardedOwners[h.Owner] {
			owner = h.Owner
		}
	}
	c.pass.Reportf(pos, "%s inside a %s.mu critical section; the broadcast plane requires non-blocking critical sections", what, owner)
}

// implicitOwner returns the owner whose critical section fd's body always
// runs inside ("" for most functions): the delta-listener callbacks and the
// modeled always-under-Core methods.
func implicitOwner(fd *ast.FuncDecl) string {
	recv := recvDeclTypeName(fd)
	if recv == "" {
		return ""
	}
	if deltaListenerMethods[fd.Name.Name] {
		return "Core"
	}
	if m, ok := implicitGuards[recv]; ok {
		return m[fd.Name.Name]
	}
	return ""
}

// recvDeclTypeName returns the declared receiver type name of a method, or
// "" for plain functions.
func recvDeclTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if se, ok := t.(*ast.StarExpr); ok {
		t = se.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
