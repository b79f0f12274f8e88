package simclock

import (
	"testing"
	"time"
)

// Run executes events until none remain or the step budget is exhausted
// (a guard against runaway simulations); it returns the number of events run.
func (s *Sim) Run(maxSteps int) int {
	n := 0
	for n < maxSteps && s.Step() {
		n++
	}
	return n
}

// RunUntil executes events with at-time ≤ t, then advances the clock to t.
// Returns the number of events run.
func (s *Sim) RunUntil(t int64) int {
	n := 0
	for len(s.events) > 0 && s.events[0].at <= t {
		s.Step()
		n++
	}
	if s.now < t {
		s.now = t
	}
	return n
}

func TestSimOrdering(t *testing.T) {
	s := NewSim(0)
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	if n := s.Run(100); n != 3 {
		t.Fatalf("Run = %d events, want 3", n)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if s.Now() != 30 {
		t.Fatalf("Now = %d, want 30", s.Now())
	}
}

func TestSimFIFOTieBreak(t *testing.T) {
	s := NewSim(0)
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		s.At(10, func() { got = append(got, i) })
	}
	s.Run(10)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of FIFO order: %v", got)
		}
	}
}

func TestSimAfterAndNesting(t *testing.T) {
	s := NewSim(100)
	var fired []int64
	s.After(5*time.Nanosecond, func() {
		fired = append(fired, s.Now())
		s.After(10*time.Nanosecond, func() { fired = append(fired, s.Now()) })
	})
	s.Run(10)
	if len(fired) != 2 || fired[0] != 105 || fired[1] != 115 {
		t.Fatalf("fired = %v, want [105 115]", fired)
	}
}

func TestSimPastEventClamped(t *testing.T) {
	s := NewSim(50)
	ran := false
	s.At(10, func() { ran = true })
	s.Step()
	if !ran || s.Now() != 50 {
		t.Fatalf("past event should run at current time; now=%d ran=%v", s.Now(), ran)
	}
}

func TestSimRunUntil(t *testing.T) {
	s := NewSim(0)
	var got []int64
	for _, at := range []int64{5, 15, 25} {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	if n := s.RunUntil(20); n != 2 {
		t.Fatalf("RunUntil ran %d events, want 2", n)
	}
	if s.Now() != 20 {
		t.Fatalf("Now = %d, want 20", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	// RunUntil earlier than now just keeps the clock.
	s.RunUntil(10)
	if s.Now() != 20 {
		t.Fatalf("RunUntil must not move the clock backwards")
	}
}

func TestSimRunBudget(t *testing.T) {
	s := NewSim(0)
	count := 0
	var reschedule func()
	reschedule = func() {
		count++
		s.After(time.Nanosecond, reschedule)
	}
	s.After(time.Nanosecond, reschedule)
	if n := s.Run(50); n != 50 {
		t.Fatalf("Run budget = %d events, want 50", n)
	}
	if count != 50 {
		t.Fatalf("count = %d", count)
	}
}

func TestRealClockMonotonicEnough(t *testing.T) {
	var r Real
	a := r.Now()
	b := r.Now()
	if b < a {
		t.Fatalf("real clock went backwards: %d then %d", a, b)
	}
}
