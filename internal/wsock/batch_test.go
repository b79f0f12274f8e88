package wsock

import (
	"bytes"
	"fmt"
	"testing"
)

// TestWritePreparedBatchSingleWrite: a batch of K prepared frames reaches the
// socket in exactly one Write call, in both roles and across header-size
// boundaries.
func TestWritePreparedBatchSingleWrite(t *testing.T) {
	for _, client := range []bool{false, true} {
		for _, k := range []int{1, 2, 7, 64} {
			sender, wire, recv := pair(client)
			frames := make([]*PreparedFrame, k)
			for i := range frames {
				frames[i] = NewPreparedText([]byte(fmt.Sprintf(`{"seq":%d,"pad":%q}`, i, bytes.Repeat([]byte("p"), (i*37)%200))))
			}
			if err := sender.WritePreparedBatch(frames); err != nil {
				t.Fatalf("client=%v k=%d: %v", client, k, err)
			}
			if wire.writes != 1 {
				t.Errorf("client=%v k=%d: batch used %d writes, want 1", client, k, wire.writes)
			}
			r := recv()
			for i, f := range frames {
				got, err := readText(r)
				if err != nil {
					t.Fatalf("client=%v k=%d frame %d: %v", client, k, i, err)
				}
				if !bytes.Equal(got, f.payload) {
					t.Fatalf("client=%v k=%d frame %d: payload mismatch", client, k, i)
				}
			}
		}
	}
}

// TestWritePreparedBatchBytesIdentical: the coalesced server-side batch puts
// exactly the bytes of K individual WritePrepared calls on the wire — the
// equivalence the flusher pool relies on (coalescing is a syscall
// optimization, never a framing change). Covers all three RFC 6455
// payload-length encodings in one batch.
func TestWritePreparedBatchBytesIdentical(t *testing.T) {
	frames := []*PreparedFrame{
		NewPreparedText([]byte{}),
		NewPreparedText(bytes.Repeat([]byte("a"), 125)),
		NewPreparedText(bytes.Repeat([]byte("b"), 126)),
		NewPreparedText(bytes.Repeat([]byte("c"), 65536)),
		NewPreparedText([]byte(`{"type":2}`)),
	}
	var individual []byte
	for _, f := range frames {
		individual = append(individual, captureWrite(t, false, func(c *Conn) error {
			return c.WritePrepared(f)
		})...)
	}
	batched := captureWrite(t, false, func(c *Conn) error {
		return c.WritePreparedBatch(frames)
	})
	if !bytes.Equal(individual, batched) {
		t.Fatalf("batched bytes differ from %d individual prepared writes\n got %d bytes\nwant %d bytes",
			len(frames), len(batched), len(individual))
	}
}

// TestWritePreparedBatchEmpty: an empty batch touches neither the lock state
// nor the socket.
func TestWritePreparedBatchEmpty(t *testing.T) {
	sender, wire, _ := pair(false)
	if err := sender.WritePreparedBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if wire.writes != 0 {
		t.Fatalf("empty batch wrote %d times, want 0", wire.writes)
	}
}

// TestWritePreparedBatchClosed: batches after Close fail with ErrClosed.
func TestWritePreparedBatchClosed(t *testing.T) {
	sender, _, _ := pair(false)
	sender.Close()
	err := sender.WritePreparedBatch([]*PreparedFrame{NewPreparedText([]byte("x"))})
	if err != ErrClosed {
		t.Fatalf("batch after close: err = %v, want ErrClosed", err)
	}
}

// TestWritePreparedBatchAllocs: a prepared frame is its record alone — a
// header beside the shared payload, never a second copy of it — and a batch
// of them, or one alone, is written from the connection's write buffer
// without allocating.
func TestWritePreparedBatchAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte("z"), 200)
	var f *PreparedFrame
	if n := testing.AllocsPerRun(100, func() { f = NewPreparedText(payload) }); n != 1 {
		t.Errorf("NewPreparedText: %v allocs/op, want 1 (the frame record)", n)
	}
	frames := []*PreparedFrame{f, NewPreparedText(payload[:100])}
	wire := &fakeConn{}
	c := &Conn{nc: wire}
	if err := c.WritePreparedBatch(frames); err != nil { // warm the write buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		wire.w.Reset()
		if err := c.WritePreparedBatch(frames); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("WritePreparedBatch: %v allocs/op, want 0", allocs)
	}
	if n := testing.AllocsPerRun(100, func() {
		wire.w.Reset()
		if err := c.WritePrepared(f); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WritePrepared: %v allocs/op, want 0", n)
	}
}

// TestWriteBufferDropsLargeWrites: a connection does not keep the buffer of
// one large write — a join snapshot must not pin its size on the connection
// for life — through either write path, in either role.
func TestWriteBufferDropsLargeWrites(t *testing.T) {
	big, small := bytes.Repeat([]byte("b"), 100_000), bytes.Repeat([]byte("s"), 100)
	for _, client := range []bool{false, true} {
		c := &Conn{nc: &fakeConn{}, client: client}
		writes := []func() error{
			func() error { return c.WriteText(big) },
			func() error { return c.WriteText(small) },
			func() error { return c.WritePreparedBatch([]*PreparedFrame{NewPreparedText(big)}) },
			func() error { return c.WritePreparedBatch([]*PreparedFrame{NewPreparedText(small)}) },
		}
		for i, write := range writes {
			if err := write(); err != nil {
				t.Fatal(err)
			}
			if i%2 == 1 && cap(c.wbuf) > maxKeptWbuf {
				t.Errorf("client=%v: after a 100 KB write and a 100 B one, the write buffer keeps %d bytes, want <= %d",
					client, cap(c.wbuf), maxKeptWbuf)
			}
		}
	}
}
