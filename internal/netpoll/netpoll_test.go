package netpoll

import (
	"net"
	"runtime"
	gosync "sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// tcpPair returns two ends of a loopback TCP connection as *net.TCPConn so
// tests can pull syscall.RawConn handles.
func tcpPair(t *testing.T) (cli net.Conn, srv *net.TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	cli, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	srv = c.(*net.TCPConn)
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return cli, srv
}

func rawConn(t *testing.T, c *net.TCPConn) syscall.RawConn {
	t.Helper()
	rc, err := c.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

func newTestPoller(t *testing.T, workers int) *Poller {
	t.Helper()
	p, err := New(workers, nil)
	if err == ErrUnsupported {
		t.Skip("no readiness backend on this platform")
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// drainRearm builds a handler that drains the socket non-blocking, counts
// the bytes seen, and re-arms — the canonical handler shape.
func drainRearm(t *testing.T, rc syscall.RawConn, total *atomic.Int64, dispatches *atomic.Int64) func(d **Desc) func([]byte) {
	return func(d **Desc) func([]byte) {
		return func(scratch []byte) {
			dispatches.Add(1)
			for {
				var n int
				var rerr error
				err := rc.Read(func(fd uintptr) bool {
					n, rerr = syscall.Read(int(fd), scratch)
					return true
				})
				if err != nil || rerr != nil || n <= 0 {
					break
				}
				total.Add(int64(n))
			}
			(*d).Rearm()
		}
	}
}

// waitCond polls cond with a deadline.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not reached in time", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPollerDispatchCycle runs the full descriptor lifecycle: disarmed
// registration, manual Kick for the pre-registration bytes, kernel-driven
// wakeups after Rearm, and Deregister going quiet.
func TestPollerDispatchCycle(t *testing.T) {
	p := newTestPoller(t, 2)
	cli, srv := tcpPair(t)
	rc := rawConn(t, srv)

	var total, dispatches atomic.Int64
	var d *Desc
	handler := drainRearm(t, rc, &total, &dispatches)(&d)
	d, err := p.Register(rc, handler)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if p.Registered() != 1 {
		t.Fatalf("Registered = %d, want 1", p.Registered())
	}

	// Bytes written before the Kick: the kernel never reports them (the
	// descriptor is disarmed), so only the manual dispatch can find them.
	if _, err := cli.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the bytes land in the socket buffer
	p.Kick(d)
	waitCond(t, "initial drain", func() bool { return total.Load() == 100 })

	// Now armed: kernel readiness drives dispatch with no Kick.
	for i := 0; i < 5; i++ {
		if _, err := cli.Write(make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
		waitCond(t, "armed wakeup", func() bool { return total.Load() == int64(100+10*(i+1)) })
	}

	p.Deregister(d)
	if p.Registered() != 0 {
		t.Fatalf("Registered after Deregister = %d", p.Registered())
	}
	// Events for a gone descriptor must not dispatch.
	before := dispatches.Load()
	cli.Write(make([]byte, 10))
	time.Sleep(20 * time.Millisecond)
	if got := dispatches.Load(); got != before {
		t.Fatalf("dispatches after Deregister: %d -> %d", before, got)
	}
	p.Deregister(d) // idempotent
}

// TestPollerSingleDispatch: ONESHOT plus the state machine must never run a
// descriptor's handler on two workers at once, even with a worker pool larger
// than one, continuous traffic, and Requeue in the mix.
func TestPollerSingleDispatch(t *testing.T) {
	p := newTestPoller(t, 4)
	cli, srv := tcpPair(t)
	rc := rawConn(t, srv)

	var concurrent, peak, runs atomic.Int64
	var d *Desc
	handler := func(scratch []byte) {
		c := concurrent.Add(1)
		if c > peak.Load() {
			peak.Store(c)
		}
		for {
			var n int
			var rerr error
			err := rc.Read(func(fd uintptr) bool {
				n, rerr = syscall.Read(int(fd), scratch[:16]) // tiny reads force many dispatches
				return true
			})
			if err != nil || rerr != nil || n <= 0 {
				break
			}
			break // one read per dispatch, then requeue: exercises queued-state dedup
		}
		concurrent.Add(-1)
		runs.Add(1)
		if runs.Load()%2 == 0 {
			d.Requeue()
		} else if err := d.Rearm(); err != nil {
			return
		}
	}
	var err error
	d, err = p.Register(rc, handler)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Deregister(d)

	stop := make(chan struct{})
	var wg gosync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 64)
		for {
			select {
			case <-stop:
				return
			default:
			}
			cli.Write(buf)
			runtime.Gosched()
		}
	}()
	p.Kick(d)
	waitCond(t, "many dispatches", func() bool { return runs.Load() > 200 })
	close(stop)
	wg.Wait()
	if peak.Load() > 1 {
		t.Fatalf("handler ran on %d workers concurrently", peak.Load())
	}
}

// TestPollerCloseStopsGoroutines: Close joins the waiter and every worker —
// no poller goroutine survives — and further registrations are refused.
func TestPollerCloseStopsGoroutines(t *testing.T) {
	if !OSSupported() {
		t.Skip("no readiness backend on this platform")
	}
	baseline := runtime.NumGoroutine()
	p, err := New(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, srv := tcpPair(t)
	rc := rawConn(t, srv)
	d, err := p.Register(rc, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	_ = d
	p.Close()
	p.Close() // idempotent
	waitCond(t, "goroutines joined", func() bool { return runtime.NumGoroutine() <= baseline })
	if _, err := p.Register(rc, func([]byte) {}); err != ErrClosed {
		t.Fatalf("Register after Close err = %v, want ErrClosed", err)
	}
}

// TestPollerNilSafe: the fallback path holds a nil *Poller; every method must
// be a safe no-op on it.
func TestPollerNilSafe(t *testing.T) {
	var p *Poller
	if p.Supported() {
		t.Fatal("nil poller claims support")
	}
	if p.Registered() != 0 {
		t.Fatal("nil poller has registrations")
	}
	if _, err := p.Register(nil, nil); err != ErrUnsupported {
		t.Fatalf("nil Register err = %v", err)
	}
	p.Kick(nil)
	p.Deregister(nil)
	p.Close()
}

// TestPollerDeregisterMidDispatch: deregistering while the handler runs must
// turn the handler's final Rearm into a no-op instead of resurrecting the
// descriptor.
func TestPollerDeregisterMidDispatch(t *testing.T) {
	p := newTestPoller(t, 2)
	cli, srv := tcpPair(t)
	rc := rawConn(t, srv)

	entered := make(chan struct{})
	release := make(chan struct{})
	var rearmsAfterGone atomic.Int64
	var d *Desc
	var err error
	d, err = p.Register(rc, func(scratch []byte) {
		entered <- struct{}{}
		<-release
		if err := d.Rearm(); err == nil && d.state.Load() != descGone {
			// Rearm must have been a no-op: state stays gone.
			rearmsAfterGone.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cli.Write([]byte("x"))
	p.Kick(d)
	<-entered
	p.Deregister(d)
	close(release)
	waitCond(t, "handler returned", func() bool { return d.state.Load() == descGone })
	if rearmsAfterGone.Load() != 0 {
		t.Fatal("Rearm re-armed a deregistered descriptor")
	}
	// Fresh traffic must not dispatch the dead descriptor.
	cli.Write([]byte("y"))
	time.Sleep(20 * time.Millisecond)
}

// TestRearmAllocs: re-arming runs once per dispatch, so it allocates
// nothing — the epoll_ctl callback is a pooled record's bound method value,
// not a closure per call.
func TestRearmAllocs(t *testing.T) {
	p := newTestPoller(t, 1)
	_, srv := tcpPair(t)
	d, err := p.Register(rawConn(t, srv), func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Deregister(d)
	rearm := func() {
		d.state.Store(descRunning) // as a worker holds it before its final touch
		if err := d.Rearm(); err != nil {
			t.Fatal(err)
		}
	}
	rearm()
	if n := testing.AllocsPerRun(100, rearm); n != 0 && !raceEnabled {
		t.Errorf("Desc.Rearm: %v allocs/op, want 0", n)
	}
}
