package server

import (
	"fmt"
	"runtime"
	"testing"

	"crowdfill/internal/sync"
)

func testRec(i int) Broadcast {
	return Broadcast{Prepared: sync.NewPrepared(sync.Message{Type: sync.MsgDone, Val: fmt.Sprint(i)})}
}

// follow registers a connection the test drains by hand: it is never handed
// to the flusher pool (no enqueue), so the test owns its cursor the way one
// flusher would.
func follow(l *bcastLog, onEvict func()) *flushConn {
	fc, _ := l.register(newRecConn(), "follower", nil, onEvict)
	return fc
}

func TestBcastLogOrderAndBatching(t *testing.T) {
	l := newBcastLog(8, nil, nil)
	defer l.close()
	fc := follow(l, nil)
	for i := 0; i < 6; i++ {
		l.publish([]Broadcast{testRec(i)})
	}
	if got := cursorLag(l, fc); got != 6 {
		t.Fatalf("lag = %d after 6 publishes, want 6", got)
	}
	out := make([]Broadcast, 4)
	seen := 0
	for _, want := range []int{4, 2, 0} {
		n, err := l.drainBatch(fc, out)
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Fatalf("batch = %d records, want %d", n, want)
		}
		for _, rec := range out[:n] {
			if got := rec.Prepared.Message().Val; got != fmt.Sprint(seen) {
				t.Fatalf("record %d carries %q (out of order)", seen, got)
			}
			seen++
		}
	}
	if got := cursorLag(l, fc); got != 0 {
		t.Fatalf("drained cursor lag = %d", got)
	}
}

func TestBcastLogCloseSemantics(t *testing.T) {
	l := newBcastLog(4, nil, nil)
	fc := follow(l, nil)
	l.publish([]Broadcast{testRec(0)})
	l.close()
	l.close()                          // idempotent
	l.publish([]Broadcast{testRec(1)}) // dropped, no panic
	// Records published before close still drain...
	one := make([]Broadcast, 1)
	if n, err := l.drainBatch(fc, one); err != nil || n != 1 || one[0].Prepared.Message().Val != "0" {
		t.Fatalf("pre-close record: %d, %v, %v", n, one[0].Prepared, err)
	}
	// ...then followers observe closure.
	if _, err := l.drainBatch(fc, one); err != errLogClosed {
		t.Fatalf("drain after close = %v, want errLogClosed", err)
	}
	// A connection registering after close is refused; closing its
	// transport (a frame write) is left to the caller, outside its locks.
	late := newRecConn()
	if fc, open := l.register(late, "late", nil, nil); open || fc.state != fcGone || late.closed() {
		t.Fatalf("register after close: open %v, state %d, transport closed %v", open, fc.state, late.closed())
	}
}

func TestBcastLogConcurrentFollowers(t *testing.T) {
	const records, followers = 500, 8
	l := newBcastLog(records+1, nil, nil) // nobody can lag out
	defer l.close()
	type result struct {
		vals []string
		err  error
	}
	results := make(chan result, followers)
	for f := 0; f < followers; f++ {
		fc := follow(l, nil)
		go func() {
			var r result
			buf := make([]Broadcast, 16)
			for len(r.vals) < records {
				n, err := l.drainBatch(fc, buf)
				if err != nil {
					r.err = err
					break
				}
				if n == 0 {
					runtime.Gosched() // at the head: a flusher would park here
				}
				for _, rec := range buf[:n] {
					r.vals = append(r.vals, rec.Prepared.Message().Val)
				}
			}
			results <- r
		}()
	}
	for i := 0; i < records; i++ {
		l.publish([]Broadcast{testRec(i)})
	}
	for f := 0; f < followers; f++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("follower error: %v", r.err)
		}
		for i, v := range r.vals {
			if v != fmt.Sprint(i) {
				t.Fatalf("follower saw %q at position %d", v, i)
			}
		}
	}
}
