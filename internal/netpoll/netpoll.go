// Package netpoll is a small readiness poller for server-side sockets: the
// kernel-facing half of the readiness-driven read plane (DESIGN.md §15).
// On Linux it wraps epoll directly through the syscall package; elsewhere
// New reports ErrUnsupported and servers keep the goroutine-per-connection
// blocking read loop.
//
// The design mirrors the flusher pool's parking discipline on the write
// side: a fixed worker pool blocks on a condition-variable queue, the
// single waiter goroutine blocks in epoll_wait, and an idle connection
// costs zero goroutines — it is exactly one armed ONESHOT entry in the
// kernel's interest set.
//
// Ownership protocol: every registered descriptor is, at any instant, in
// exactly one of four states — idle (armed in the kernel, or disarmed and
// untouched), queued (readiness reported, waiting for a worker), running
// (exactly one worker executing its handler), or gone (deregistered).
// ONESHOT registration plus the state machine's CAS transitions guarantee
// at most one worker runs a connection's handler at a time, which is what
// lets the wsock reassembly state stay single-reader without a lock. The
// handler re-arms (or re-queues, when its read budget ran out) as its last
// action and must not touch connection read state afterwards.
package netpoll

import (
	"errors"
	gosync "sync"
	"sync/atomic"
	"syscall"

	"crowdfill/internal/parkq"
)

// ErrUnsupported is returned by New on platforms without a readiness
// backend; the server falls back to blocking reads.
var ErrUnsupported = errors.New("netpoll: readiness polling unsupported on this platform")

// ErrClosed is returned by Register after Close.
var ErrClosed = errors.New("netpoll: poller closed")

// scratchBytes is each worker's read buffer: large enough to drain several
// typical frames per readiness event, small enough that the pool's total
// footprint is a few hundred kilobytes regardless of connection count.
const scratchBytes = 32 << 10

// wakeToken is the reserved epoll token of the internal wake pipe;
// connection tokens start above it.
const wakeToken = 0

// Stats receives the poller's operational series; implementations must be
// cheap and safe for concurrent use (the server's metrics plane wires its
// atomic instruments in here). A nil Stats disables instrumentation.
type Stats interface {
	// PollRegisteredDelta reports a change in the registered-descriptor
	// count: +1 after a register, -1 after a deregister. Deltas commute, so
	// concurrent registrations sum to the count whatever order they report
	// in.
	PollRegisteredDelta(d int)
	// PollWakeup reports one epoll_wait return that delivered ready
	// readiness events for ready connections.
	PollWakeup(ready int)
	// PollQueueDelta reports a change in dispatch-queue depth.
	PollQueueDelta(d int)
	// PollDispatch reports one handler dispatch to a worker.
	PollDispatch()
}

// Descriptor dispatch states; see the package comment's ownership protocol.
const (
	descIdle int32 = iota
	descQueued
	descRunning
	descGone
)

// Desc is one registered connection's poller handle.
type Desc struct {
	p     *Poller
	tok   uint64
	rc    syscall.RawConn
	run   func(scratch []byte)
	state atomic.Int32
}

// Poller owns the kernel interest set, the dispatch queue, and the worker
// pool. The zero value is not usable; construct with New.
type Poller struct {
	// mu guards descs, next, and closed; critical sections only touch the
	// map (no I/O, no blocking calls) and epoll_ctl happens outside it.
	//
	//lint:nonblocking
	mu     gosync.Mutex
	descs  map[uint64]*Desc
	next   uint64
	closed bool

	q       *parkq.Queue[*Desc] // dispatch queue; never nests with mu
	workers gosync.WaitGroup
	waiter  gosync.WaitGroup
	st      Stats
	os      osPoller
}

// OSSupported reports whether this platform has a readiness backend at all
// (build-time: true only on Linux). The bench harness keys its
// goroutines-per-connection expectations on it.
func OSSupported() bool { return osSupported }

// New starts a poller with the given worker-pool size. It returns
// ErrUnsupported where no backend exists and the epoll setup error when the
// kernel refuses (descriptor exhaustion); callers treat any error as "run
// the blocking read path".
func New(workers int, st Stats) (*Poller, error) {
	if !osSupported {
		return nil, ErrUnsupported
	}
	if workers < 1 {
		workers = 1
	}
	p := &Poller{descs: make(map[uint64]*Desc), next: wakeToken + 1, st: st}
	var depth func(int)
	if st != nil {
		depth = st.PollQueueDelta
	}
	p.q = parkq.New[*Desc](depth)
	if err := p.osInit(); err != nil {
		return nil, err
	}
	p.waiter.Add(1)
	go p.wait()
	p.workers.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p, nil
}

// Supported reports whether this poller instance can accept registrations;
// nil-safe so servers can hold a nil *Poller on fallback platforms.
func (p *Poller) Supported() bool { return p != nil }

// Register adds a connection to the interest set, disarmed: no readiness
// event fires until the first Rearm. Callers Kick the descriptor once after
// registration so a worker performs the initial drain (bytes that arrived
// before registration would otherwise never be reported) and arms it.
func (p *Poller) Register(rc syscall.RawConn, run func(scratch []byte)) (*Desc, error) {
	if p == nil {
		return nil, ErrUnsupported
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	tok := p.next
	p.next++
	d := &Desc{p: p, tok: tok, rc: rc, run: run}
	p.descs[tok] = d
	p.mu.Unlock()
	if err := p.osAdd(rc, tok); err != nil {
		p.mu.Lock()
		delete(p.descs, tok)
		p.mu.Unlock()
		d.state.Store(descGone)
		return nil, err
	}
	if p.st != nil {
		p.st.PollRegisteredDelta(1)
	}
	return d, nil
}

// Kick queues the descriptor for dispatch as if the kernel had reported it
// readable. Used for the initial post-registration drain.
func (p *Poller) Kick(d *Desc) {
	if p == nil || d == nil {
		return
	}
	p.enqueue(d)
}

// enqueue moves an idle descriptor to the dispatch queue; descriptors
// already queued, running, or gone are left alone (the state machine is the
// dedup: a spurious event for a running connection is safe to drop because
// the handler will observe whatever condition caused it on its next read,
// and re-arming re-delivers anything still pending under level-triggered
// ONESHOT).
func (p *Poller) enqueue(d *Desc) {
	if d.state.CompareAndSwap(descIdle, descQueued) {
		p.q.Push(d)
	}
}

// Rearm re-enables readiness events after a handler drained the socket. It
// must be the handler's final touch on the connection: the instant the
// kernel is re-armed another worker may be dispatched. Returns a non-nil
// error when the kernel refused (connection closed under us) — the handler
// must tear the connection down then. A no-op on deregistered descriptors.
func (d *Desc) Rearm() error {
	if !d.state.CompareAndSwap(descRunning, descIdle) {
		return nil // deregistered mid-dispatch; teardown owns the conn now
	}
	return d.p.osArm(d.rc, d.tok)
}

// Requeue puts the descriptor straight back on the dispatch queue instead
// of re-arming it — the budgeted-drain path for connections with more data
// than one dispatch's read budget. Same final-touch contract as Rearm.
func (d *Desc) Requeue() {
	if d.state.CompareAndSwap(descRunning, descQueued) {
		d.p.q.Push(d)
	}
}

// Deregister removes the connection from the interest set. Idempotent and
// nil-safe; safe to call while a handler is running (the handler's
// subsequent Rearm becomes a no-op). The kernel-side removal is best-effort
// because a locally closed descriptor has already left the epoll set.
func (p *Poller) Deregister(d *Desc) {
	if p == nil || d == nil {
		return
	}
	p.mu.Lock()
	_, present := p.descs[d.tok]
	delete(p.descs, d.tok)
	p.mu.Unlock()
	d.state.Store(descGone)
	if !present {
		return
	}
	p.osDel(d.rc)
	if p.st != nil {
		p.st.PollRegisteredDelta(-1)
	}
}

// Close stops the waiter and the worker pool and releases the kernel
// resources. Descriptors still queued are dropped — callers close the
// underlying connections during shutdown, which fires their own teardown
// hooks. Idempotent and nil-safe.
func (p *Poller) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.osWake()
	p.waiter.Wait()
	p.q.Close()
	p.workers.Wait()
	p.osDestroy()
}

// worker is one pool goroutine: it parks on the dispatch queue, claims
// descriptors with a queued→running transition, and runs their handlers
// against its own scratch buffer. The scratch is per-worker, not per
// connection — connection count does not multiply read-buffer footprint.
func (p *Poller) worker() {
	defer p.workers.Done()
	scratch := make([]byte, scratchBytes)
	for {
		d, ok := p.q.Pop()
		if !ok {
			return
		}
		if !d.state.CompareAndSwap(descQueued, descRunning) {
			continue // deregistered while waiting in the queue
		}
		if p.st != nil {
			p.st.PollDispatch()
		}
		d.run(scratch)
	}
}
