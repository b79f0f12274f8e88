package transport

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"crowdfill/internal/model"
	"crowdfill/internal/sync"
	"crowdfill/internal/wsock"
)

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe(4)
	m := sync.Message{Type: sync.MsgInsert, Row: "x-1", Origin: "c1"}
	if err := a.Send(m); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if got.Type != m.Type || got.Row != m.Row {
		t.Fatalf("got %+v", got)
	}
	// And the other direction.
	if err := b.Send(sync.Message{Type: sync.MsgDone}); err != nil {
		t.Fatal(err)
	}
	if got, err := a.Recv(); err != nil || got.Type != sync.MsgDone {
		t.Fatalf("reverse recv = %+v, %v", got, err)
	}
}

func TestPipeOrdering(t *testing.T) {
	a, b := Pipe(100)
	for i := 0; i < 100; i++ {
		if err := a.Send(sync.Message{Seq: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		m, err := b.Recv()
		if err != nil || m.Seq != int64(i) {
			t.Fatalf("message %d: %+v, %v", i, m, err)
		}
	}
}

func TestPipeCloseDrainsThenFails(t *testing.T) {
	a, b := Pipe(4)
	a.Send(sync.Message{Seq: 1})
	a.Close()
	if m, err := b.Recv(); err != nil || m.Seq != 1 {
		t.Fatalf("queued message lost on close: %+v, %v", m, err)
	}
	if _, err := b.Recv(); !errors.Is(err, ErrPipeClosed) {
		t.Fatalf("recv after close err = %v", err)
	}
	if err := b.Send(sync.Message{}); !errors.Is(err, ErrPipeClosed) {
		t.Fatalf("send after close err = %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestWSAdapterRoundTrip(t *testing.T) {
	ready := make(chan Conn, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ws, err := wsock.Upgrade(w, r)
		if err != nil {
			return
		}
		ready <- WrapWS(ws)
	}))
	defer srv.Close()
	ws, err := wsock.Dial("ws" + strings.TrimPrefix(srv.URL, "http"))
	if err != nil {
		t.Fatal(err)
	}
	cli := WrapWS(ws)
	defer cli.Close()
	srvConn := <-ready
	defer srvConn.Close()

	m := sync.Message{
		Type: sync.MsgReplace, Row: "a-1", NewRow: "a-2",
		Vec: model.VectorOf("Messi", "", "FW"), Col: 2, Val: "FW",
		Origin: "c1", Worker: "w1", Seq: 3, TS: 99,
	}
	if err := cli.Send(m); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got, err := srvConn.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if got.NewRow != m.NewRow || !got.Vec.Equal(m.Vec) || got.TS != 99 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// Snapshot payloads survive the wire.
	rep := sync.NewReplica(model.MustSchema("T", []model.Column{{Name: "a"}}))
	rep.Insert("s-1")
	if err := srvConn.Send(sync.Message{Type: sync.MsgSnapshot, Snapshot: rep.TakeSnapshot()}); err != nil {
		t.Fatal(err)
	}
	snap, err := cli.Recv()
	if err != nil || snap.Snapshot == nil || len(snap.Snapshot.Rows) != 1 {
		t.Fatalf("snapshot over wire = %+v, %v", snap, err)
	}
}

// wsPair establishes a client/server link over a real socket for tests that
// exercise the WebSocket adapter end to end.
func wsPair(t *testing.T) (cli, srv Conn) {
	t.Helper()
	ready := make(chan Conn, 1)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ws, err := wsock.Upgrade(w, r)
		if err != nil {
			return
		}
		ready <- WrapWS(ws)
	}))
	t.Cleanup(hs.Close)
	ws, err := wsock.Dial("ws" + strings.TrimPrefix(hs.URL, "http"))
	if err != nil {
		t.Fatal(err)
	}
	cli = WrapWS(ws)
	t.Cleanup(func() { cli.Close() })
	srv = <-ready
	t.Cleanup(func() { srv.Close() })
	return cli, srv
}

func TestPipeRecvBatch(t *testing.T) {
	a, b := Pipe(16)
	for i := 0; i < 5; i++ {
		if err := a.Send(sync.Message{Seq: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]sync.Message, 8)
	n, err := b.RecvBatch(dst)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("RecvBatch drained %d messages, want 5", n)
	}
	for i := 0; i < n; i++ {
		if dst[i].Seq != int64(i) {
			t.Fatalf("batch out of order: dst[%d].Seq = %d", i, dst[i].Seq)
		}
	}
	// A full dst stops the drain without losing messages.
	for i := 0; i < 3; i++ {
		a.Send(sync.Message{Seq: int64(10 + i)})
	}
	small := make([]sync.Message, 2)
	if n, err := b.RecvBatch(small); err != nil || n != 2 {
		t.Fatalf("bounded batch = %d, %v", n, err)
	}
	if m, err := b.Recv(); err != nil || m.Seq != 12 {
		t.Fatalf("message after bounded batch = %+v, %v", m, err)
	}
	a.Close()
	if _, err := b.RecvBatch(dst); !errors.Is(err, ErrPipeClosed) {
		t.Fatalf("RecvBatch after close err = %v", err)
	}
}

// TestWSRecvBatch: all messages sent before close arrive, in order, across
// however many batches the socket timing produces, and the close surfaces as
// an error only after the data is delivered.
func TestWSRecvBatch(t *testing.T) {
	cli, srv := wsPair(t)
	const total = 25
	for i := 0; i < total; i++ {
		if err := cli.Send(sync.Message{Type: sync.MsgUpvote, Seq: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	cli.Close()
	var got []sync.Message
	dst := make([]sync.Message, 8)
	for {
		n, err := srv.RecvBatch(dst)
		got = append(got, dst[:n]...)
		if err != nil {
			if len(got) != total {
				t.Fatalf("lost messages: got %d of %d before error %v", len(got), total, err)
			}
			break
		}
	}
	for i, m := range got {
		if m.Seq != int64(i) {
			t.Fatalf("out of order: got[%d].Seq = %d", i, m.Seq)
		}
	}
}

// TestWSSendRecvAllocs: the full transport hot path — append-encode, pooled
// single-write frame, lease read, in-place decode — is allocation-free in
// steady state for messages that retain nothing (vote messages, the
// dominant traffic). The client side includes masking; tolerance 1 covers
// the amortized mask-pool refill.
func TestWSSendRecvAllocs(t *testing.T) {
	cli, srv := wsPair(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := srv.Recv()
			if err != nil {
				return
			}
			if err := srv.Send(m); err != nil {
				return
			}
		}
	}()
	m := sync.Message{Type: sync.MsgUpvote, Seq: 42, TS: 7}
	roundTrip := func() {
		if err := cli.Send(m); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // warm pooled buffers on both sides
	allocs := testing.AllocsPerRun(300, roundTrip)
	if allocs > 1 {
		t.Errorf("Send+Recv round trip allocs/op = %v, want <= 1", allocs)
	}
	cli.Close()
	<-done
}

// hijackedPipe is the server half of an in-memory WebSocket upgrade: a
// ResponseWriter whose Hijack hands wsock.Upgrade one end of a net.Pipe.
type hijackedPipe struct {
	http.ResponseWriter
	nc net.Conn
}

func (h hijackedPipe) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	return h.nc, bufio.NewReadWriter(bufio.NewReader(h.nc), bufio.NewWriter(h.nc)), nil
}

// textFrames appends each message to wire as one unmasked FIN text frame with
// a 7-bit length, as a server writes it.
func textFrames(t *testing.T, wire []byte, msgs ...sync.Message) []byte {
	t.Helper()
	for _, m := range msgs {
		payload, err := sync.EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(payload) > 125 {
			t.Fatalf("%d-byte payload needs an extended length", len(payload))
		}
		wire = append(append(wire, 0x81, byte(len(payload))), payload...)
	}
	return wire
}

// wireLink returns the server end of a WebSocket link whose peer writes wire
// in one Write on a net.Pipe, so one window fill holds every frame of it.
func wireLink(t *testing.T, wire []byte) Conn {
	t.Helper()
	srvNC, peer := net.Pipe()
	t.Cleanup(func() { peer.Close() })
	go func() {
		br := bufio.NewReader(peer)
		for { // the 101 response ends at the first empty line
			if line, err := br.ReadString('\n'); err != nil || line == "\r\n" {
				break
			}
		}
		peer.Write(wire)
		io.Copy(io.Discard, br) // a pipe write blocks until read: drain the close echo
	}()

	req := httptest.NewRequest(http.MethodGet, "/ws", nil)
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", "websocket")
	req.Header.Set("Sec-WebSocket-Key", "dGhlIHNhbXBsZSBub25jZQ==")
	ws, err := wsock.Upgrade(hijackedPipe{httptest.NewRecorder(), srvNC}, req)
	if err != nil {
		t.Fatal(err)
	}
	srv := WrapWS(ws)
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestWSRecvBatchDefersMidBatchError: a protocol violation sitting in the
// read window behind two good messages does not cost the batch in hand —
// RecvBatch returns both, and the next receive call reports the error.
func TestWSRecvBatchDefersMidBatchError(t *testing.T) {
	wire := textFrames(t, nil, sync.Message{Type: sync.MsgUpvote, Seq: 1}, sync.Message{Type: sync.MsgUpvote, Seq: 2})
	wire = append(wire, 0x82, 0x01, 'b') // a binary frame: refused by the text-only link
	srv := wireLink(t, wire)

	dst := make([]sync.Message, 8)
	n, err := srv.RecvBatch(dst)
	if err != nil || n != 2 || dst[0].Seq != 1 || dst[1].Seq != 2 {
		t.Fatalf("RecvBatch = %d messages (%+v), %v; want the two decoded before the bad frame", n, dst[:n], err)
	}
	if _, err := srv.Recv(); err == nil || !strings.Contains(err.Error(), "binary") {
		t.Fatalf("receive after the batch err = %v, want the deferred binary-frame error", err)
	}
}

// TestWSRecvBatchEndsAtEstimate: two estimates and a vote, written back to
// back and read in one window fill, come out in order in batches that each
// hold at most one estimate, as their last message. The link decodes every
// estimate into the same storage, so each batch's figures must still be its
// own estimate's when the batch is read.
func TestWSRecvBatchEndsAtEstimate(t *testing.T) {
	first := &sync.Estimates{PerColumn: []float64{1, 2, 3}, Upvote: 0.5, Downvote: 0.25}
	second := &sync.Estimates{PerColumn: []float64{4, 5}, Upvote: 0.75}
	sent := []sync.Message{
		{Type: sync.MsgEstimate, Seq: 1, Estimates: first},
		{Type: sync.MsgEstimate, Seq: 2, Estimates: second},
		{Type: sync.MsgUpvote, Seq: 3},
	}
	srv := wireLink(t, textFrames(t, nil, sent...))

	dst := make([]sync.Message, 8)
	for next := 0; next < len(sent); {
		n, err := srv.RecvBatch(dst)
		if err != nil {
			t.Fatalf("after %d messages: %v", next, err)
		}
		for i, m := range dst[:n] {
			if m.Estimates != nil && i != n-1 {
				t.Fatalf("a batch of %d messages holds an estimate at %d", n, i)
			}
			if want := sent[next]; m.Seq != want.Seq || !reflect.DeepEqual(m.Estimates, want.Estimates) {
				t.Fatalf("message %d = %+v (estimates %+v), want %+v (estimates %+v)", next, m, m.Estimates, want, want.Estimates)
			}
			next++
		}
	}
}

// TestWSPollConn: the adapter-level readiness contract — StartPoll exposes a
// descriptor, PollRecv delivers decoded messages through the registered
// callback, blocking Recv is refused afterwards, and a peer close surfaces
// as an error with the OnClose hook fired. The messages are estimates the
// callback keeps: each must still carry its own figures after later ones
// decode through the same link.
func TestWSPollConn(t *testing.T) {
	cli, srv := wsPair(t)
	pc, ok := srv.(PollConn)
	if !ok {
		t.Fatal("wsConn does not implement PollConn")
	}
	var got []sync.Message
	rc, err := pc.StartPoll(func(m sync.Message) error {
		got = append(got, m)
		return nil
	})
	if err != nil {
		t.Fatalf("StartPoll: %v", err)
	}
	if rc == nil {
		t.Fatal("StartPoll returned a nil RawConn")
	}
	if _, err := srv.Recv(); err == nil {
		t.Fatal("blocking Recv permitted in poll mode")
	}
	fired := make(chan struct{})
	pc.OnClose(func() { close(fired) })

	for i := 0; i < 3; i++ {
		f := float64(i)
		if err := cli.Send(sync.Message{Type: sync.MsgEstimate, Seq: int64(i), Estimates: &sync.Estimates{PerColumn: []float64{f, f}, Upvote: f}}); err != nil {
			t.Fatal(err)
		}
	}
	scratch := make([]byte, 32<<10)
	deadline := time.Now().Add(10 * time.Second)
	for len(got) < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of 3 messages", len(got))
		}
		more, err := pc.PollRecv(scratch)
		if err != nil {
			t.Fatalf("PollRecv: %v", err)
		}
		if !more {
			time.Sleep(time.Millisecond)
		}
	}
	for i, m := range got {
		f := float64(i)
		want := &sync.Estimates{PerColumn: []float64{f, f}, Upvote: f}
		if m.Type != sync.MsgEstimate || m.Seq != int64(i) || !reflect.DeepEqual(m.Estimates, want) {
			t.Fatalf("message %d = %+v (estimates %+v), want estimates %+v", i, m, m.Estimates, want)
		}
	}

	cli.Close()
	for {
		if time.Now().After(deadline) {
			t.Fatal("peer close never surfaced")
		}
		if _, err := pc.PollRecv(scratch); err != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("OnClose hook never fired")
	}
}
