package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	gosync "sync"
	"sync/atomic"
	"time"

	"crowdfill/internal/client"
	"crowdfill/internal/metrics"
	"crowdfill/internal/model"
	"crowdfill/internal/server"
	"crowdfill/internal/transport"
	"crowdfill/internal/wsock"
)

// epoch0 anchors the run's monotonic clock; every stamp is nanoseconds
// since it.
var epoch0 = time.Now()

func nowNs() int64 { return int64(time.Since(epoch0)) }

// stack is the real serving stack the workloads drive: one loopback
// listener for the whole process whose handler forwards to the current
// collection's NetServer, and the private registry every collection
// reports into (read from outside through server.Config.Metrics).
type stack struct {
	ln  net.Listener
	srv *http.Server
	reg *metrics.Registry
	met *server.Metrics
	cur atomic.Pointer[server.NetServer]
	// served is closed when the accept loop has returned.
	served chan struct{}
}

func newStack() (*stack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	reg := metrics.NewRegistry()
	st := &stack{
		ln:     ln,
		reg:    reg,
		met:    server.NewMetrics(reg, metrics.NewRecorder(256)),
		served: make(chan struct{}),
	}
	st.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ns := st.cur.Load()
		if ns == nil {
			http.Error(w, "no collection", http.StatusServiceUnavailable)
			return
		}
		ns.Handler().ServeHTTP(w, r)
	})}
	go func() {
		defer close(st.served)
		_ = st.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return st, nil
}

// close stops the listener and waits for the accept loop.
func (st *stack) close() {
	_ = st.srv.Close() // hijacked connections belong to their NetServer
	<-st.served
}

// open starts a collection on the stack: a fresh core wrapped in a fresh
// NetServer, which becomes the target of new connections.
func (st *stack) open(cs collectionSpec) (*server.NetServer, error) {
	core, err := cs.newCore(st.met)
	if err != nil {
		return nil, err
	}
	ns := server.NewNetServer(core, nil)
	st.cur.Store(ns)
	return ns, nil
}

func (st *stack) url(worker string) string {
	return fmt.Sprintf("ws://%s/?worker=%s", st.ln.Addr(), worker)
}

// conns reads the flusher pool's registered-connection gauge.
func (st *stack) conns() int64 {
	return st.reg.Gauge("crowdfill_bcast_conns", "").Value()
}

// await polls cond (50 µs steps) for up to 5 s: the harness's one way of
// waiting for a state it can only observe.
func await(what string, cond func() bool) error {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// waitConns blocks until the server holds exactly n connections: a closed
// client is still a broadcast recipient until its teardown has run, and a
// publish into that window would be counted as a send-error drop.
func (st *stack) waitConns(n int) error {
	return await(fmt.Sprintf("the server to hold %d connections", n), func() bool { return st.conns() == int64(n) })
}

// errPumpStopped means a runner's receive pump exited while a waiter still
// expected traffic.
var errPumpStopped = errors.New("client link closed while waiting")

// awaitEpoch blocks until the runner's replica epoch reaches target.
func awaitEpoch(r *client.Runner, target uint64) error {
	for {
		ep := r.Epoch()
		if r.ReplicaEpoch() >= target {
			return nil
		}
		if r.WaitChange(ep) == ep {
			return errPumpStopped
		}
	}
}

// awaitClient blocks until cond holds for the runner's client.
func awaitClient(r *client.Runner, cond func(*client.Client) bool) error {
	for {
		ep := r.Epoch()
		ok := false
		r.View(func(c *client.Client) { ok = cond(c) })
		if ok {
			return nil
		}
		if r.WaitChange(ep) == ep {
			return errPumpStopped
		}
	}
}

// joined is a full worker client attached over a real WebSocket.
type joined struct {
	worker string
	runner *client.Runner
	joinNs int64 // dial start → snapshot and estimates applied
}

// join dials the current collection as worker and waits until the join
// snapshot and the first estimates are applied. wrap, when non-nil, is
// applied to the transport before the runner takes it (the traced pass
// times Send through it).
func (st *stack) join(schema *model.Schema, worker string, maxVotes int, wrap func(transport.Conn) transport.Conn) (*joined, error) {
	t0 := nowNs()
	ws, err := wsock.Dial(st.url(worker))
	if err != nil {
		return nil, fmt.Errorf("join %s: %w", worker, err)
	}
	cl, err := client.New(client.Config{ID: worker, Worker: worker, Schema: schema, MaxVotesPerRow: maxVotes})
	if err != nil {
		ws.Close()
		return nil, fmt.Errorf("join %s: %w", worker, err)
	}
	conn := transport.WrapWS(ws)
	if wrap != nil {
		conn = wrap(conn)
	}
	r := client.NewRunner(cl, conn)
	err = awaitClient(r, func(c *client.Client) bool {
		return c.Replica().Epoch() > 0 && c.Estimates() != nil
	})
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("join %s: %w", worker, err)
	}
	return &joined{worker: worker, runner: r, joinNs: nowNs() - t0}, nil
}

// leave closes the client and waits for its pump to exit.
func (j *joined) leave() {
	j.runner.Close()
	<-j.runner.Err()
}

// visitorJoins measures n sequential joins of a fresh full client on the
// live collection (each leaves again), then waits until the server is back
// to resident connections.
func (st *stack) visitorJoins(schema *model.Schema, n, resident int, into *[]int64) error {
	for i := range n {
		j, err := st.join(schema, fmt.Sprintf("visitor%d", i), 0, nil)
		if err != nil {
			return err
		}
		*into = append(*into, j.joinNs)
		j.leave()
	}
	return st.waitConns(resident)
}

// mallocs reads the process allocation counter (stops the world briefly;
// called only at phase boundaries).
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// waitGroupGo runs fn on its own goroutine under wg.
func waitGroupGo(wg *gosync.WaitGroup, fn func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		fn()
	}()
}
