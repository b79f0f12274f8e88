package transport

import (
	"errors"
	"testing"
	"time"

	"crowdfill/internal/model"
	"crowdfill/internal/sync"
)

// TestPipeSendPreparedBatch: the pipe delivers a prepared batch as the same
// ordered message sequence as individual sends.
func TestPipeSendPreparedBatch(t *testing.T) {
	a, b := Pipe(16)
	ps := make([]*sync.Prepared, 5)
	for i := range ps {
		ps[i] = sync.NewPrepared(sync.Message{Type: sync.MsgUpvote, Seq: int64(i)})
	}
	if err := a.SendPreparedBatch(ps); err != nil {
		t.Fatalf("SendPreparedBatch: %v", err)
	}
	for i := range ps {
		m, err := b.Recv()
		if err != nil || m.Seq != int64(i) {
			t.Fatalf("message %d: %+v, %v", i, m, err)
		}
	}
	a.Close()
	if err := a.SendPreparedBatch(ps); !errors.Is(err, ErrPipeClosed) {
		t.Fatalf("batch after close err = %v", err)
	}
}

// TestPipeWriteDeadline: a send into a full pipe fails with ErrWriteTimeout
// once the deadline passes, and clearing the deadline restores blocking sends.
func TestPipeWriteDeadline(t *testing.T) {
	a, _ := Pipe(1)
	if err := a.Send(sync.Message{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	// Buffer full, nobody reading: the deadline must unblock the send.
	a.SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
	start := time.Now()
	err := a.Send(sync.Message{Seq: 2})
	if !errors.Is(err, ErrWriteTimeout) {
		t.Fatalf("send into full pipe err = %v, want ErrWriteTimeout", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("deadline send blocked %v", time.Since(start))
	}
	// An already-expired deadline fails immediately.
	a.SetWriteDeadline(time.Now().Add(-time.Second))
	if err := a.Send(sync.Message{Seq: 3}); !errors.Is(err, ErrWriteTimeout) {
		t.Fatalf("expired deadline err = %v", err)
	}
	// The zero time clears the bound.
	a.SetWriteDeadline(time.Time{})
	done := make(chan error, 1)
	go func() {
		done <- a.Send(sync.Message{Seq: 4})
	}()
	select {
	case err := <-done:
		t.Fatalf("cleared-deadline send returned early: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	a.Close()
	if err := <-done; !errors.Is(err, ErrPipeClosed) {
		t.Fatalf("send unblocked by close err = %v", err)
	}
}

// TestWSSendPreparedBatch: over a real socket, a prepared batch arrives as
// the identical ordered message sequence the per-record path would deliver,
// and batches of one interleave cleanly with larger ones.
func TestWSSendPreparedBatch(t *testing.T) {
	cli, srv := wsPair(t)
	ps := make([]*sync.Prepared, 6)
	for i := range ps {
		ps[i] = sync.NewPrepared(sync.Message{Type: sync.MsgUpvote, Row: "r-1", Seq: int64(i)})
	}
	if err := srv.SendPreparedBatch(ps); err != nil {
		t.Fatalf("SendPreparedBatch: %v", err)
	}
	if err := srv.SendPreparedBatch([]*sync.Prepared{sync.NewPrepared(sync.Message{Type: sync.MsgDone, Seq: 99})}); err != nil {
		t.Fatal(err)
	}
	// A second batch reusing the adapter's frame scratch.
	if err := srv.SendPreparedBatch(ps[:2]); err != nil {
		t.Fatalf("second batch: %v", err)
	}
	wantSeqs := []int64{0, 1, 2, 3, 4, 5, 99, 0, 1}
	for i, want := range wantSeqs {
		m, err := cli.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if m.Seq != want {
			t.Fatalf("recv %d: Seq = %d, want %d", i, m.Seq, want)
		}
	}
}

// TestWSBatchWriteDeadline: a batched send on a stalled socket fails once the
// write deadline passes instead of blocking forever — the flusher pool's
// stalled-client backstop.
func TestWSBatchWriteDeadline(t *testing.T) {
	cli, srv := wsPair(t)
	defer cli.Close()
	srv.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
	// Nobody reads cli, so the kernel buffers eventually fill; keep batching
	// until the deadline surfaces.
	big := make([]byte, 1<<16)
	for i := range big {
		big[i] = 'v'
	}
	p := sync.NewPrepared(sync.Message{Type: sync.MsgInsert, Worker: string(big)})
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := srv.SendPreparedBatch([]*sync.Prepared{p, p}); err != nil {
			return // deadline (or teardown) surfaced — the backstop works
		}
	}
	t.Fatal("batched sends never failed on a stalled socket with a write deadline")
}

// TestWSSendPreparedBatchAllocs pins the broadcast's share of the message
// path's allocation budget over a real socket. A broadcast costs its
// Prepared record, one exact-size encoding and one frame record, however
// many recipients it reaches; every recipient's send after the first builds
// nothing.
func TestWSSendPreparedBatchAllocs(t *testing.T) {
	_, c := wsPair(t)
	srv := c.(*wsConn)
	m := sync.Message{Type: sync.MsgUpvote, Vec: model.VectorOf("Lionel Messi", "Argentina"),
		Origin: "net-00003", Worker: "w3", Seq: 17, TS: 123456789}
	batch := []*sync.Prepared{sync.NewPrepared(m)}
	if err := srv.SendPreparedBatch(batch); err != nil { // encode, frame, warm the buffers
		t.Fatal(err)
	}
	send := func() {
		if err := srv.SendPreparedBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, send); n != 0 {
		t.Errorf("warm SendPreparedBatch: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { batch[0] = sync.NewPrepared(m); send() }); n != 3 && !raceEnabled {
		t.Errorf("a new broadcast's first send: %v allocs/op, want 3 (Prepared, encoding, frame)", n)
	}
}
