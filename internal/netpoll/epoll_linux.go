//go:build linux

package netpoll

import (
	gosync "sync"
	"syscall"
)

const osSupported = true

// osPoller holds the kernel-facing state: the epoll instance and a
// non-blocking wake pipe whose read end sits permanently in the interest
// set under the reserved wakeToken, so Close can pull the waiter out of
// epoll_wait without signals.
type osPoller struct {
	epfd  int
	wakeR int
	wakeW int
}

// armedEvents is the interest mask for an armed connection: readable data,
// peer half-close, and one-shot delivery so at most one dispatch per arm.
// EPOLLERR/EPOLLHUP are implicit (the kernel always reports them), which is
// exactly what we want: a broken connection gets dispatched once, the
// handler's read fails, and teardown runs.
const armedEvents = syscall.EPOLLIN | syscall.EPOLLRDHUP | syscall.EPOLLONESHOT

// setToken stores a 64-bit token in the event's user-data field. The
// syscall package splits epoll_data into Fd+Pad int32s, so the token rides
// as two halves; evToken reassembles it.
func setToken(ev *syscall.EpollEvent, tok uint64) {
	ev.Fd = int32(uint32(tok))
	ev.Pad = int32(uint32(tok >> 32))
}

func evToken(ev *syscall.EpollEvent) uint64 {
	return uint64(uint32(ev.Fd)) | uint64(uint32(ev.Pad))<<32
}

func (p *Poller) osInit() error {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return err
	}
	var pipe [2]int
	if err := syscall.Pipe2(pipe[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		syscall.Close(epfd)
		return err
	}
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN}
	setToken(&ev, wakeToken)
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, pipe[0], &ev); err != nil {
		syscall.Close(epfd)
		syscall.Close(pipe[0])
		syscall.Close(pipe[1])
		return err
	}
	p.os = osPoller{epfd: epfd, wakeR: pipe[0], wakeW: pipe[1]}
	return nil
}

// epollCtl runs one epoll_ctl on the connection's descriptor inside the
// RawConn.Control callback, which pins the runtime's fd reference for the
// duration — the descriptor cannot be closed and reused mid-call. An fd may
// sit in both the runtime's netpoller and ours; readiness is not exclusive.
// The callback is a pooled record's method value, bound once, so a re-arm
// allocates nothing.
func (p *Poller) epollCtl(rc syscall.RawConn, op int, tok uint64, events uint32) error {
	c := ctlCalls.Get().(*ctlCall)
	defer ctlCalls.Put(c)
	c.epfd, c.op, c.ev.Events, c.err = p.os.epfd, op, events, nil
	setToken(&c.ev, tok)
	if err := rc.Control(c.run); err != nil {
		return err // connection already closed locally
	}
	return c.err
}

// ctlCall carries one epoll_ctl into Control. Records are per call, never
// per Desc: whichever worker ran a descriptor re-arms it, so per-Desc
// mutable state would race.
type ctlCall struct {
	epfd, op int
	ev       syscall.EpollEvent
	err      error
	run      func(fd uintptr) // c.do, bound when the record is made
}

var ctlCalls = gosync.Pool{New: func() any { c := new(ctlCall); c.run = c.do; return c }}

func (c *ctlCall) do(fd uintptr) { c.err = syscall.EpollCtl(c.epfd, c.op, int(fd), &c.ev) }

// osAdd registers disarmed: ONESHOT with no interest bits, so nothing is
// reported until the first Rearm. (EPOLLERR/EPOLLHUP still fire for a
// connection that breaks before its initial drain — harmless, the dispatch
// state machine dedups against the initial Kick.)
func (p *Poller) osAdd(rc syscall.RawConn, tok uint64) error {
	return p.epollCtl(rc, syscall.EPOLL_CTL_ADD, tok, syscall.EPOLLONESHOT)
}

func (p *Poller) osArm(rc syscall.RawConn, tok uint64) error {
	return p.epollCtl(rc, syscall.EPOLL_CTL_MOD, tok, armedEvents)
}

// osDel is best-effort: a locally closed descriptor already left the
// interest set, and rc.Control on a closed connection errors out — both
// fine, the token table is the source of truth.
func (p *Poller) osDel(rc syscall.RawConn) {
	_ = p.epollCtl(rc, syscall.EPOLL_CTL_DEL, 0, 0)
}

func (p *Poller) osWake() {
	var b [1]byte
	_, _ = syscall.Write(p.os.wakeW, b[:])
}

func (p *Poller) osDestroy() {
	syscall.Close(p.os.epfd)
	syscall.Close(p.os.wakeR)
	syscall.Close(p.os.wakeW)
}

// wait is the single waiter goroutine: it parks in epoll_wait and feeds
// ready descriptors to the dispatch queue. Tokens are resolved against the
// descriptor table under the poller lock — an event for a token no longer
// in the table (connection torn down between readiness and resolution, or
// an fd number already reused by a later connection under a fresh token) is
// dropped, which is the fd-reuse safety the token indirection buys.
func (p *Poller) wait() {
	defer p.waiter.Done()
	evs := make([]syscall.EpollEvent, 128)
	ready := make([]*Desc, 0, 128)
	for {
		n, err := syscall.EpollWait(p.os.epfd, evs, -1)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return
		}
		ready = ready[:0]
		p.mu.Lock()
		closed := p.closed
		for i := 0; i < n; i++ {
			tok := evToken(&evs[i])
			if tok == wakeToken {
				continue
			}
			if d := p.descs[tok]; d != nil {
				ready = append(ready, d)
			}
		}
		p.mu.Unlock()
		if closed {
			return
		}
		if len(ready) == 0 {
			continue
		}
		if p.st != nil {
			p.st.PollWakeup(len(ready))
		}
		// Collect-then-push: queue mutations happen after the descriptor
		// table lock is released, never nested inside it.
		for _, d := range ready {
			p.enqueue(d)
		}
	}
}
