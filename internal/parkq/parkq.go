// Package parkq is the cond-parked work queue under both worker pools: the
// write plane's flushers (DESIGN.md §12) and the read plane's poll workers
// (§15). Idle workers hold no CPU, and a push wakes exactly as many workers
// as there is work for.
package parkq

import gosync "sync"

// Queue is a FIFO of work items with blocking Pop. Its mutex never nests
// with its owner's lock in either order — producers collect under their own
// lock, release it, then Push — which keeps both critical sections trivially
// non-blocking (no //lint:before entry names Queue.mu, and Queue.mu names
// none, so the locks analyzer rejects either nesting). The items live in
// q[head:]: Pop advances head, and a push that finds the array full and at
// least half popped moves the items to its front, so the pools' steady state
// reuses one array and a backlog still grows it in amortized O(1).
type Queue[T any] struct {
	mu     gosync.Mutex //lint:nonblocking
	cond   *gosync.Cond
	q      []T
	head   int // index of the next item to pop
	closed bool
	depth  func(delta int) // depth-gauge hook; pure atomics, safe under mu
}

// New returns an empty queue. depth, when non-nil, is told every change in
// queue depth (under the queue lock, so it must not block).
func New[T any](depth func(delta int)) *Queue[T] {
	q := &Queue[T]{depth: depth}
	q.cond = gosync.NewCond(&q.mu)
	return q
}

// Push appends items and wakes idle workers. Pushes after Close are dropped:
// shutdown tears every connection down anyway.
func (q *Queue[T]) Push(items ...T) {
	if len(items) == 0 {
		return
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	if len(q.q)+len(items) > cap(q.q) && 2*q.head >= len(q.q) {
		n := copy(q.q, q.q[q.head:])
		clear(q.q[n:])
		q.q, q.head = q.q[:n], 0
	}
	q.q = append(q.q, items...)
	if q.depth != nil {
		q.depth(len(items))
	}
	if len(items) == 1 {
		q.cond.Signal()
	} else {
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

// Pop blocks until an item is available and returns it; ok is false once the
// queue is closed and empty.
func (q *Queue[T]) Pop() (item T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.q) {
		if q.closed {
			return item, false
		}
		q.cond.Wait()
	}
	var zero T
	item = q.q[q.head]
	q.q[q.head] = zero
	q.head++
	if q.depth != nil {
		q.depth(-1)
	}
	return item, true
}

// Close wakes every worker with ok=false.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
