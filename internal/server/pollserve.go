package server

import (
	"sync/atomic"

	"crowdfill/internal/netpoll"
	"crowdfill/internal/sync"
	"crowdfill/internal/transport"
)

// pollConn is the reader-side state of one poller-owned connection. It is
// touched by exactly one poll worker at a time (the poller's dispatch
// protocol), plus the idempotent teardown, which may race in from the
// write plane's close hook.
type pollConn struct {
	s        *NetServer
	conn     transport.PollConn
	clientID string
	fc       *flushConn
	desc     *netpoll.Desc
	torn     atomic.Bool
}

// servePoll attempts to hand a freshly registered connection to the
// readiness read plane. It returns false when the connection (or platform)
// cannot poll — the caller keeps the blocking reader loop — and true when
// the connection is now poller-owned (including the rare registration
// failure, where it has already been torn down): either way the caller's
// goroutine is done with the read side.
func (s *NetServer) servePoll(conn transport.Conn, clientID string, fc *flushConn) bool {
	if !s.poller.Supported() {
		return false
	}
	pc, ok := conn.(transport.PollConn)
	if !ok {
		return false
	}
	st := &pollConn{s: s, conn: pc, clientID: clientID, fc: fc}
	rc, err := pc.StartPoll(st.onMsg)
	if err != nil {
		// The transport cannot expose a descriptor (in-memory conn); it is
		// still in blocking mode, so fall back cleanly.
		return false
	}
	d, err := s.poller.Register(rc, st.readable)
	if err != nil {
		// Poller closing or descriptor already broken. The connection is in
		// poll mode now — there is no way back to blocking reads — so run
		// the teardown epilogue instead of leaking the registration.
		st.teardown()
		return true
	}
	st.desc = d
	// The write plane may close this connection at any time (send error,
	// lag eviction, shutdown); a local close silently removes the
	// descriptor from the kernel interest set, so readiness alone would
	// never notice. The close hook routes every such close into the same
	// idempotent teardown; if the connection already closed during
	// registration, the hook fires immediately.
	pc.OnClose(st.teardown)
	// Initial dispatch by hand: bytes that arrived with the handshake (or
	// before registration) predate the interest-set entry, so the kernel
	// will not report them. A worker drains the connection to EAGAIN and
	// performs the first arm.
	s.poller.Kick(d)
	return true
}

// readable is the readiness handler: dispatched by exactly one poll worker
// whenever the connection has bytes (or an error) pending. Its final action
// is always exactly one of Requeue (budget exhausted), Rearm (drained), or
// teardown (finished) — after which it must not touch the connection.
func (st *pollConn) readable(scratch []byte) {
	more, err := st.conn.PollRecv(scratch)
	if err != nil {
		st.teardown()
		return
	}
	if more {
		st.desc.Requeue()
		return
	}
	if err := st.desc.Rearm(); err != nil {
		st.teardown()
	}
}

// onMsg handles one decoded inbound message; registered once at StartPoll
// so dispatches allocate nothing. Rejections are noted and non-fatal, same
// as the blocking loop.
func (st *pollConn) onMsg(m sync.Message) error {
	if herr := st.s.handleAndPublish(st.clientID, m); herr != nil {
		st.s.core.metrics.noteDrop(dropReject, st.clientID, herr.Error())
	}
	return nil
}

// teardown is the poller-owned connection's reader-side epilogue,
// equivalent to the blocking serve loop falling out on a Recv error. It is
// idempotent (first caller wins) because it can be reached from three
// sides: a failed read in the handler, the write plane's close hook, and a
// registration failure.
func (st *pollConn) teardown() {
	if !st.torn.CompareAndSwap(false, true) {
		return
	}
	st.s.poller.Deregister(st.desc)
	st.s.finishConn(st.conn, st.clientID, st.fc)
}
