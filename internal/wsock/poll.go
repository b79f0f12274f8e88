// Non-blocking read mode: the connection-side half of the readiness-driven
// read plane (DESIGN.md §15). A Conn switched into poll mode with StartPoll
// no longer has a dedicated reader goroutine; instead a poller worker calls
// PollRead whenever the kernel reports the socket readable, and PollRead
// drains the socket with non-blocking raw reads, feeding the bytes through
// the same reassembly machine the blocking reader steps (reassembly.go).
//
// Ownership: at most one goroutine runs PollRead at a time (the poller's
// ONESHOT dispatch discipline guarantees it), so the reassembly state and
// the rbuf/cbuf lease buffers keep the single-reader contract the blocking
// path has. The write side (wmu-guarded) is untouched: pong and close
// echoes go through the same writeFrame as before.
package wsock

import (
	"errors"
	"syscall"
)

// ErrPollUnsupported is returned by StartPoll when the underlying connection
// cannot expose a raw file descriptor (in-memory test conns, exotic
// net.Conn implementations). Callers fall back to the blocking read loop.
var ErrPollUnsupported = errors.New("wsock: connection does not support readiness polling")

// errPollMode guards the blocking entry points once a connection has been
// switched to poll mode: the two read modes share the reassembly state and
// must never run together.
var errPollMode = errors.New("wsock: connection is in non-blocking poll mode")

// errWouldBlock is the internal rawRead sentinel for EAGAIN: the socket is
// drained and the connection should be re-armed with the poller.
var errWouldBlock = errors.New("wsock: read would block")

// Shrink thresholds applied when a poll-mode connection parks (socket
// drained, no partial frame): idle herd members must not pin oversized
// buffers grown by one large historical message.
const (
	pollIdleDataBufMax = 2048
	pollIdleCtrlBufMax = 512
)

// pollReadBudget caps the socket reads one PollRead dispatch performs
// before reporting more=true so the poller re-queues the connection: a
// firehose sender shares the worker pool fairly with everyone else, the
// same budgeted-drain discipline the flusher pool applies to writes.
const pollReadBudget = 8

// pollReader is the raw non-blocking socket reader of a connection in poll
// mode; a nil Conn.poll means the connection is (still) a blocking reader.
type pollReader struct {
	rc syscall.RawConn

	// readFn is the RawConn.Read callback, allocated once at StartPoll so
	// the readiness hot path performs zero allocations per dispatch; it
	// communicates through rdst/rn/rerr.
	readFn func(fd uintptr) bool
	rdst   []byte
	rn     int
	rerr   error
}

// StartPoll switches the connection into non-blocking read mode and returns
// the raw descriptor handle for poller registration. The socket stays owned
// by the Go runtime (reads go through syscall.RawConn, which holds the fd
// referenced), so deadlines, writes, and Close keep working unchanged. The
// switch is one-way: blocking reads on this connection fail afterwards. A
// frame the blocking reader had half consumed resumes where it stopped.
func (c *Conn) StartPoll() (syscall.RawConn, error) {
	if c.poll != nil {
		return c.poll.rc, nil
	}
	sc, ok := c.nc.(syscall.Conn)
	if !ok {
		return nil, ErrPollUnsupported
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil, err
	}
	pr := &pollReader{rc: rc}
	pr.readFn = pr.makeReadFn()
	c.poll = pr
	return rc, nil
}

// PollRead drains the socket without blocking, invoking onMsg once per
// complete text message with the usual lease discipline (the slice is valid
// only during the callback). It returns more=true when the read budget ran
// out with the socket still readable — the caller should re-queue the
// connection rather than re-arm it — and a non-nil error when the
// connection is finished (closed, protocol violation, peer gone); the
// caller must tear the connection down then. A (false, nil) return means
// the socket is drained and the connection should be re-armed.
func (c *Conn) PollRead(scratch []byte, onMsg func([]byte) error) (more bool, err error) {
	if c.poll == nil {
		return false, ErrPollUnsupported
	}
	// First drain any bytes the handshake left in the bufio reader: they
	// arrived before the switch to poll mode and the kernel will never
	// report them again. Afterwards the reader is dropped for good,
	// releasing its buffer — poll-mode connections read straight from the
	// socket.
	if c.br != nil {
		window, _ := c.br.Peek(c.br.Buffered()) // exactly what is buffered: cannot block or fail
		if err := c.feed(window, onMsg); err != nil {
			return false, err
		}
		c.br = nil
	}
	for reads := 0; ; reads++ {
		if reads >= pollReadBudget {
			return true, nil
		}
		n, rerr := c.rawRead(scratch)
		if n > 0 {
			if ferr := c.feed(scratch[:n], onMsg); ferr != nil {
				return false, ferr
			}
		}
		if rerr == errWouldBlock {
			c.shrinkOnPark()
			return false, nil
		}
		if rerr != nil {
			return false, rerr
		}
	}
}

// rawRead performs one non-blocking read from the socket into p through the
// pre-allocated RawConn callback. It returns errWouldBlock when the socket
// is drained, io.EOF on orderly shutdown, and the raw error otherwise.
func (c *Conn) rawRead(p []byte) (int, error) {
	pr := c.poll
	pr.rdst, pr.rn, pr.rerr = p, 0, nil
	err := pr.rc.Read(pr.readFn)
	pr.rdst = nil
	if err != nil {
		// The runtime refused the read: the descriptor was closed locally.
		return 0, err
	}
	return pr.rn, pr.rerr
}

// shrinkOnPark releases oversized lease buffers when the connection parks
// with no partial frame in flight, so an idle herd member's footprint is a
// few hundred bytes of struct, not the high-water mark of its traffic.
func (c *Conn) shrinkOnPark() {
	if !c.rd.idle() {
		return // mid-frame or mid-message: the buffers are live
	}
	if cap(c.rbuf) > pollIdleDataBufMax {
		c.rbuf = nil
	}
	if cap(c.cbuf) > pollIdleCtrlBufMax {
		c.cbuf = nil
	}
}

// feed steps buf through the reassembly machine to its end, delivering each
// completed text message to onMsg. Any returned error is fatal to the
// connection.
func (c *Conn) feed(buf []byte, onMsg func([]byte) error) error {
	for len(buf) > 0 {
		rest, msg, err := c.step(buf)
		if err != nil {
			return err
		}
		if msg {
			if err := onMsg(c.rbuf); err != nil {
				return err
			}
		}
		buf = rest
	}
	return nil
}

// OnClose registers fn to run exactly once when the connection closes —
// whether locally (Close from the flusher pool, eviction, shutdown) or via
// the closing handshake. The read plane uses it to tear down poller state
// for connections whose readiness events will never fire again because the
// descriptor was closed out from under the poller. If the connection is
// already closed when OnClose is called, fn runs immediately.
func (c *Conn) OnClose(fn func()) {
	c.wmu.Lock()
	c.onClose = fn
	closed := c.closed
	c.wmu.Unlock()
	if closed {
		c.fireOnClose()
	}
}

// fireOnClose runs the close hook at most once. Callers must not hold wmu.
func (c *Conn) fireOnClose() {
	c.wmu.Lock()
	fn := c.onClose
	c.wmu.Unlock()
	if fn != nil {
		c.onCloseOnce.Do(fn)
	}
}
