package parkq

import (
	"math/rand"
	gosync "sync"
	"sync/atomic"
	"testing"
)

// TestQueueFIFOAndDepth: items come out in push order and the depth hook's
// deltas sum to the queue's length at every point.
func TestQueueFIFOAndDepth(t *testing.T) {
	depth := 0
	q := New[int](func(d int) { depth += d })
	q.Push() // empty push: no lock, no hook
	q.Push(1)
	q.Push(2, 3, 4)
	if depth != 4 {
		t.Fatalf("depth after 4 pushes = %d", depth)
	}
	for want := 1; want <= 4; want++ {
		got, ok := q.Pop()
		if !ok || got != want {
			t.Fatalf("Pop = %d, %v; want %d", got, ok, want)
		}
	}
	if depth != 0 {
		t.Fatalf("depth after draining = %d", depth)
	}
}

// TestQueueParkedWorkersShareAndClose: workers parked in Pop are woken by
// pushes, every item reaches exactly one of them, Close releases them all,
// and pushes after Close are dropped. Run under -race.
func TestQueueParkedWorkersShareAndClose(t *testing.T) {
	const workers, items = 4, 2000
	q := New[int](nil)
	var sum atomic.Int64
	var pending, wg gosync.WaitGroup
	pending.Add(items)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, ok := q.Pop()
				if !ok {
					return
				}
				sum.Add(int64(v))
				pending.Done()
			}
		}()
	}
	for i := 1; i <= items; i += 4 {
		q.Push(i)
		q.Push(i+1, i+2, i+3) // the multi-item path broadcasts
	}
	pending.Wait()
	if got, want := sum.Load(), int64(items*(items+1)/2); got != want {
		t.Fatalf("sum of popped items = %d, want %d (an item was lost or popped twice)", got, want)
	}
	q.Close()
	wg.Wait()
	q.Push(99)
	if v, ok := q.Pop(); ok {
		t.Fatalf("Pop after Close = %d, true; want closed", v)
	}
}

// TestQueueHeadIndexFIFO: pops advance a head index, a drained queue rewinds
// to the start of its array and a full one moves its live items down before
// growing — through random interleavings of pushes and pops, items still
// come out in push order and the depth hook still tracks the length.
func TestQueueHeadIndexFIFO(t *testing.T) {
	depth := 0
	q := New[int](func(d int) { depth += d })
	rng := rand.New(rand.NewSource(5))
	var want []int
	next := 0
	for step := 0; step < 5000; step++ {
		if len(want) == 0 || rng.Intn(2) == 0 {
			items := make([]int, 1+rng.Intn(3))
			for i := range items {
				items[i] = next
				next++
			}
			q.Push(items...)
			want = append(want, items...)
		} else {
			got, ok := q.Pop()
			if !ok || got != want[0] {
				t.Fatalf("step %d: Pop = %d, %v; want %d", step, got, ok, want[0])
			}
			want = want[1:]
		}
		if depth != len(want) {
			t.Fatalf("step %d: depth hook says %d, queue holds %d", step, depth, len(want))
		}
	}
}

// TestQueueAllocs: the steady state of both worker pools — one item pushed
// to a drained queue, then popped — reuses the queue's array.
func TestQueueAllocs(t *testing.T) {
	q := New[*int](nil)
	item := new(int)
	q.Push(item)
	q.Pop()
	if n := testing.AllocsPerRun(100, func() { q.Push(item); q.Pop() }); n != 0 {
		t.Errorf("Push + Pop on a drained queue: %v allocs/op, want 0", n)
	}
}
