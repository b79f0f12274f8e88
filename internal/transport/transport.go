// Package transport provides the reliable, in-order duplex message links the
// formal model assumes (paper §2.4). Two implementations: an in-process pipe
// for tests and simulations, and an adapter over the wsock WebSocket layer
// for the live system. Both carry sync.Message values as JSON.
package transport

import (
	"errors"
	"net"
	"slices"
	gosync "sync"
	"syscall"
	"time"

	"crowdfill/internal/sync"
	"crowdfill/internal/wsock"
)

// Conn is one endpoint of a reliable in-order duplex message link.
type Conn interface {
	// Send transmits one message. It must not be called concurrently with
	// itself.
	Send(m sync.Message) error
	// SendPreparedBatch transmits messages prepared once for many recipients:
	// implementations reuse the shared encoding (and, where the wire format
	// allows, the shared frame) instead of re-encoding per connection, and
	// emit the batch as one coalesced write (writev-style: N frames, one
	// syscall), falling back to sequential sends otherwise. Delivery order
	// and wire bytes are exactly those of N single sends. Same concurrency
	// contract as Send.
	SendPreparedBatch(ps []*sync.Prepared) error
	// SetWriteDeadline bounds how long subsequent sends may block; the zero
	// time clears the bound. A send that hits the deadline returns an error
	// and may leave the link mid-message, so callers must drop the
	// connection afterwards (the flusher pool's stalled-socket backstop).
	SetWriteDeadline(t time.Time) error
	// Recv blocks until the next message arrives or the link closes. The
	// message stays valid until the next receive call: its Estimates may be
	// storage the link reuses for its next estimate, so a receiver that keeps
	// the figures longer copies them. Everything else in it is the
	// receiver's to keep.
	Recv() (sync.Message, error)
	// RecvBatch blocks until at least one message arrives, then fills dst
	// with any further messages already available on the link without
	// blocking, and returns how many were stored. A receiver draining
	// bursts this way pays one wakeup for the whole burst instead of one
	// per message. A batch ends at a message that carries Estimates, so no
	// two messages of a batch share estimate storage and each one stays
	// valid, as Recv's does, until the next receive call. Same concurrency
	// contract as Recv (no concurrent calls with Recv or itself); dst must
	// be non-empty.
	RecvBatch(dst []sync.Message) (int, error)
	// Close shuts the link down; pending and future Recv calls fail.
	Close() error
}

// ErrPipeClosed is returned on operations over a closed pipe.
var ErrPipeClosed = errors.New("transport: pipe closed")

// ErrWriteTimeout is returned by a pipe send that hit its write deadline.
var ErrWriteTimeout = errors.New("transport: write deadline exceeded")

// IsTimeout reports whether an error means a deadline expired — across both
// transports (the pipe's ErrWriteTimeout sentinel and the net.Error timeout
// a deadline'd socket operation returns). The flusher pool uses it to label
// the drop cause: a deadline hit is a stalled socket, a plain send error is
// a broken one.
func IsTimeout(err error) bool {
	if errors.Is(err, ErrWriteTimeout) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// IsClosed reports whether an error means the link was already closed when
// the operation ran — by either end of a pipe, by a local Close of the
// socket, or by a completed WebSocket closing handshake — as opposed to a
// link that broke under the operation. The flusher pool uses it to tell a
// peer that hung up from a failed send.
func IsClosed(err error) bool {
	return errors.Is(err, ErrPipeClosed) || errors.Is(err, net.ErrClosed) || errors.Is(err, wsock.ErrClosed)
}

// PollConn is the optional readiness-driven extension of Conn implemented
// by transports whose receive side can run without a blocking reader
// goroutine (DESIGN.md §15). The server probes for it with a type
// assertion; transports without it (the in-process pipe) keep the blocking
// loop.
type PollConn interface {
	Conn
	// StartPoll switches the receive side into non-blocking mode and
	// returns the raw descriptor handle for poller registration. onMsg is
	// the delivery callback PollRecv invokes once per decoded message; it
	// is stored once here so the per-dispatch path allocates nothing. The
	// switch is one-way: blocking Recv calls fail afterwards.
	StartPoll(onMsg func(m sync.Message) error) (syscall.RawConn, error)
	// PollRecv drains whatever is readable right now without blocking,
	// delivering decoded messages to the StartPoll callback. more=true
	// means the read budget ran out with data still pending (re-queue the
	// connection); a non-nil error is fatal and the caller must tear the
	// connection down. At most one goroutine may be in PollRecv at a time.
	// Unlike Recv's, a delivered message is the callback's to keep, its
	// Estimates included: a poll handler may hold a read's messages past the
	// callback and handle them together once PollRecv returns.
	PollRecv(scratch []byte) (more bool, err error)
	// OnClose registers fn to run exactly once when the connection closes
	// from either side — including a local Close by the write plane, which
	// silently removes the descriptor from the kernel interest set and
	// would otherwise strand the poller-side state. If the connection is
	// already closed, fn runs immediately.
	OnClose(fn func())
}

// pipeShared is the closure state both ends of a pipe share: closing either
// end closes the link exactly once.
type pipeShared struct {
	done chan struct{}
	once gosync.Once
}

func (s *pipeShared) close() { s.once.Do(func() { close(s.done) }) }

// pipeEnd is one side of an in-memory link.
type pipeEnd struct {
	in     chan sync.Message
	out    chan sync.Message
	shared *pipeShared
	// wdeadline bounds Send; owned by the sending goroutine (the Send
	// concurrency contract covers SetWriteDeadline too).
	wdeadline time.Time
}

// Pipe returns the two endpoints of an in-process reliable in-order link
// with the given buffer capacity per direction.
func Pipe(buf int) (Conn, Conn) {
	ab := make(chan sync.Message, buf)
	ba := make(chan sync.Message, buf)
	shared := &pipeShared{done: make(chan struct{})}
	a := &pipeEnd{in: ba, out: ab, shared: shared}
	b := &pipeEnd{in: ab, out: ba, shared: shared}
	return a, b
}

func (p *pipeEnd) Send(m sync.Message) error {
	// Check closure first: with buffer space available, a two-way select
	// would otherwise pick between "closed" and "sent" at random.
	select {
	case <-p.shared.done:
		return ErrPipeClosed
	default:
	}
	if !p.wdeadline.IsZero() {
		if !time.Now().Before(p.wdeadline) {
			return ErrWriteTimeout
		}
		t := time.NewTimer(time.Until(p.wdeadline))
		defer t.Stop()
		select {
		case <-p.shared.done:
			return ErrPipeClosed
		case p.out <- m:
			return nil
		case <-t.C:
			return ErrWriteTimeout
		}
	}
	select {
	case <-p.shared.done:
		return ErrPipeClosed
	case p.out <- m:
		return nil
	}
}

// SendPreparedBatch delivers the message values in order: in-process pipes
// never serialize, so a shared encoding has nothing to save, and there is no
// frame layer to coalesce beyond the sequential sends.
func (p *pipeEnd) SendPreparedBatch(ps []*sync.Prepared) error {
	for _, prep := range ps {
		if err := p.Send(prep.Message()); err != nil {
			return err
		}
	}
	return nil
}

// SetWriteDeadline bounds Send; same concurrency contract as Send.
func (p *pipeEnd) SetWriteDeadline(t time.Time) error {
	p.wdeadline = t
	return nil
}

func (p *pipeEnd) Recv() (sync.Message, error) {
	select {
	case <-p.shared.done:
		// Drain anything already queued before reporting closure.
		select {
		case m := <-p.in:
			return m, nil
		default:
			return sync.Message{}, ErrPipeClosed
		}
	case m := <-p.in:
		return m, nil
	}
}

// RecvBatch blocks for the first message, then drains whatever else is
// already sitting in the channel buffer.
func (p *pipeEnd) RecvBatch(dst []sync.Message) (int, error) {
	if len(dst) == 0 {
		return 0, errors.New("transport: RecvBatch with empty dst")
	}
	m, err := p.Recv()
	if err != nil {
		return 0, err
	}
	dst[0] = m
	n := 1
	for n < len(dst) {
		select {
		case m := <-p.in:
			dst[n] = m
			n++
		default:
			return n, nil
		}
	}
	return n, nil
}

func (p *pipeEnd) Close() error {
	p.shared.close()
	return nil
}

// wsConn adapts a WebSocket connection to the message link interface. The
// encode buffer and the wsock read lease make steady-state Send and Recv
// allocation-free apart from what a decoded message itself retains: one
// exact-size slice per vector the link's decode cache does not already hold,
// and a copy of each string the cache does not already hold (a first sight,
// a collision victim, or a string over 64 bytes). A vote on a value the link
// has seen allocates nothing, and an estimate decodes into storage the cache
// owns (the lease Recv documents), so after the link's first it allocates
// nothing either on the blocking path; PollRecv copies it. The cache in turn retains at most 256 such strings, 64
// vectors and one estimate per link.
type wsConn struct {
	ws   *wsock.Conn
	ebuf []byte // reusable encode buffer; safe because Send calls never overlap
	// dec serves the strings and vectors this link's messages repeat, and
	// holds the estimate last decoded (Recv's lease). It belongs to the read
	// side — Recv, RecvBatch and PollRecv admit one receiver at a time, so
	// it needs no lock — and is allocated by the first decode, so
	// a connection that never receives a message never pays for it.
	dec *sync.DecodeCache
	// fbuf collects the cached frames of one SendPreparedBatch call; reused
	// across batches under the same no-overlap contract as ebuf.
	fbuf []*wsock.PreparedFrame
	// pendingErr defers a read error hit mid-batch so RecvBatch can deliver
	// the messages decoded before it; the next receive call returns it.
	pendingErr error
	// pollFeed is the wsock-level delivery adapter built once by StartPoll
	// (decode lease → invoke the registered message callback), so the
	// readiness dispatch path passes a stored closure instead of
	// allocating one per call.
	pollFeed func(data []byte) error
}

// WrapWS returns a message link over an established WebSocket connection.
func WrapWS(ws *wsock.Conn) Conn { return &wsConn{ws: ws} }

func (w *wsConn) Send(m sync.Message) error {
	if err := sync.ValidateEncodable(m); err != nil {
		return err
	}
	w.ebuf = sync.AppendMessage(w.ebuf[:0], m)
	return w.ws.WriteText(w.ebuf)
}

// SendPreparedBatch coalesces the batch's cached RFC 6455 frames into one
// WebSocket-layer write: K adjacent broadcast records reaching one
// connection cost one syscall instead of K. Each frame is built once per
// broadcast and cached inside the Prepared, so N recipients cost one JSON
// encode and one frame build instead of N of each.
func (w *wsConn) SendPreparedBatch(ps []*sync.Prepared) error {
	if len(ps) == 0 {
		return nil
	}
	frames := w.fbuf[:0]
	for _, p := range ps {
		frame, err := p.Frame(func(payload []byte) (any, error) {
			return wsock.NewPreparedText(payload), nil
		})
		if err != nil {
			return err
		}
		frames = append(frames, frame.(*wsock.PreparedFrame))
	}
	w.fbuf = frames[:0] // retain grown capacity, drop the frame refs' length
	return w.ws.WritePreparedBatch(frames)
}

// SetWriteDeadline bounds how long writes on the underlying socket may block.
func (w *wsConn) SetWriteDeadline(t time.Time) error { return w.ws.SetWriteDeadline(t) }

// StartPoll switches the underlying WebSocket into non-blocking read mode
// and installs the message delivery chain: wsock lease → decode → onMsg.
// The decoded Message is stack-scoped per delivery; decode copies what it
// keeps out of the lease, so nothing aliases the read buffer past the
// callback, and an estimate is copied out of the decode cache's storage
// (PollRecv's messages are the callback's to keep). The server's readiness
// plane, the only production poll receiver, is never sent an estimate by a
// conforming client, so the copy costs it nothing.
func (w *wsConn) StartPoll(onMsg func(m sync.Message) error) (syscall.RawConn, error) {
	rc, err := w.ws.StartPoll()
	if err != nil {
		return nil, err
	}
	w.pollFeed = func(data []byte) error {
		var m sync.Message
		if derr := w.decode(data, &m); derr != nil {
			return derr
		}
		if e := m.Estimates; e != nil {
			m.Estimates = &sync.Estimates{PerColumn: slices.Clone(e.PerColumn), Upvote: e.Upvote, Downvote: e.Downvote}
		}
		return onMsg(m)
	}
	return rc, nil
}

// PollRecv drains the socket through the incremental reassembly machine,
// delivering each completed message to the StartPoll callback.
func (w *wsConn) PollRecv(scratch []byte) (bool, error) {
	return w.ws.PollRead(scratch, w.pollFeed)
}

// OnClose forwards the close hook to the WebSocket layer, which fires it
// exactly once on either local or remote close.
func (w *wsConn) OnClose(fn func()) { w.ws.OnClose(fn) }

func (w *wsConn) Recv() (sync.Message, error) {
	var m sync.Message
	if err := w.recvInto(&m); err != nil {
		return sync.Message{}, err
	}
	return m, nil
}

// decode parses one leased frame through the link's decode cache. Neither
// the message nor the cache keeps any part of data.
func (w *wsConn) decode(data []byte, m *sync.Message) error {
	if w.dec == nil {
		w.dec = new(sync.DecodeCache)
	}
	return w.dec.DecodeMessageInto(data, m)
}

// recvInto decodes the next message straight out of the wsock read lease;
// decode copies everything it keeps, so the lease is not retained past this
// call.
func (w *wsConn) recvInto(m *sync.Message) error {
	if err := w.pendingErr; err != nil {
		w.pendingErr = nil
		return err
	}
	data, err := w.ws.ReadTextLease()
	if err != nil {
		return err
	}
	return w.decode(data, m)
}

// RecvBatch blocks for the first message, then decodes every further frame
// already buffered on the connection via the non-blocking lease, up to and
// including the first that carries Estimates: the next one would decode into
// the same storage. Errors hit after the first decode are deferred to the
// next receive call so the batch in hand is not lost.
func (w *wsConn) RecvBatch(dst []sync.Message) (int, error) {
	if len(dst) == 0 {
		return 0, errors.New("transport: RecvBatch with empty dst")
	}
	if err := w.recvInto(&dst[0]); err != nil {
		return 0, err
	}
	n := 1
	for n < len(dst) && dst[n-1].Estimates == nil {
		data, ok, err := w.ws.TryReadTextLease()
		if err != nil {
			w.pendingErr = err
			break
		}
		if !ok {
			break
		}
		if err := w.decode(data, &dst[n]); err != nil {
			w.pendingErr = err
			break
		}
		n++
	}
	return n, nil
}

func (w *wsConn) Close() error { return w.ws.Close() }
