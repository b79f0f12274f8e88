// Package simclock provides a deterministic discrete-event virtual clock.
// CrowdFill's compensation weights are statistics over message timestamps
// (paper §5.2.2), so experiments run on a virtual clock to be exactly
// reproducible; the live server uses the real clock through the same
// interface.
package simclock

import (
	"container/heap"
	"time"
)

// Clock is a source of nanosecond timestamps.
type Clock interface {
	Now() int64
}

// Real is the wall clock.
type Real struct{}

// Now returns the current wall time in nanoseconds.
func (Real) Now() int64 { return time.Now().UnixNano() }

// event is one scheduled callback.
type event struct {
	at  int64
	seq int64 // FIFO tie-break for equal times, keeps runs deterministic
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Sim is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; simulation code runs entirely inside event callbacks.
type Sim struct {
	now    int64
	seq    int64
	events eventHeap
}

// NewSim returns a simulator starting at the given virtual time.
func NewSim(start int64) *Sim { return &Sim{now: start} }

// Now returns the current virtual time in nanoseconds.
func (s *Sim) Now() int64 { return s.now }

// At schedules fn at absolute virtual time t (clamped to now).
func (s *Sim) At(t int64, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.events, event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn d after the current virtual time.
func (s *Sim) After(d time.Duration, fn func()) { s.At(s.now+int64(d), fn) }

// Pending returns the number of scheduled events.
func (s *Sim) Pending() int { return len(s.events) }

// Step runs the next event, advancing the clock; it reports whether an
// event was run.
func (s *Sim) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := heap.Pop(&s.events).(event)
	s.now = e.at
	e.fn()
	return true
}
