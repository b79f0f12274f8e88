package server

import (
	"fmt"
	"log"
	"net/http"
	gosync "sync"
	"sync/atomic"
	"time"

	"crowdfill/internal/netpoll"
	"crowdfill/internal/sync"
	"crowdfill/internal/transport"
	"crowdfill/internal/wsock"
)

// NetServer exposes a Core over WebSocket connections: the live back-end
// server (§3.3). Workers connect with ?worker=<id>; each connection becomes
// one client of the formal model, with its own reliable in-order link.
//
// Delivery runs through a sequenced broadcast log instead of per-connection
// queues: handling a message publishes a constant number of records
// (HandleBroadcast's result) and returns. Connections hold no writer
// goroutine — the log's shared flusher pool drains each connection's cursor
// and coalesces adjacent records into one batched write, and idle
// connections park as bare flushConn structs (DESIGN.md §12). A client that
// cannot keep up is detected by cursor lag — the log wrapping past it — and
// disconnected, which preserves everyone else's per-link FIFO delivery
// without per-recipient work on the hot path. The first time the core is
// found done, the server runs its collection's one Done transition (finish,
// DESIGN.md §18).
type NetServer struct {
	// mu serializes the core and the join point in the log. Every client
	// message and every Central Client repair runs under it, so nothing that
	// may block — log or recorder I/O included — runs inside it.
	//
	//lint:nonblocking
	//lint:before bcastLog.mu
	mu     gosync.Mutex
	core   *Core
	log    *bcastLog
	nextID int64
	done   bool // the Done transition has fired; joins after it are refused

	onDone   func()        // the host's part of the Done transition, or nil
	archived chan struct{} // closed once onDone has returned
	shutdown gosync.Once

	// poller is the readiness read plane (DESIGN.md §15): on Linux,
	// WebSocket connections are read by a fixed worker pool driven by
	// epoll instead of one blocking goroutine each. nil where unsupported
	// or refused — serve falls back to the blocking loop per connection.
	poller *netpoll.Poller
}

// NewNetServer wraps a Core for network serving. onDone, which may be nil,
// runs once when the collection finishes, before any link hears MsgDone; a
// core that is already done finishes at once. The host reads what it keeps
// from the core itself (WithCore). The broadcast log holds
// defaultLogCapacity records and inherits the core's instrument set.
func NewNetServer(core *Core, onDone func()) *NetServer {
	s := &NetServer{
		core:     core,
		log:      newBcastLog(defaultLogCapacity, core.metrics),
		onDone:   onDone,
		archived: make(chan struct{}),
	}
	if p, err := netpoll.New(poolSize(), core.metrics); err == nil {
		s.poller = p
	}
	if s.done = core.Done(); s.done {
		go s.finish()
	}
	return s
}

// Handler returns the HTTP handler performing WebSocket upgrades. The worker
// identity comes from the "worker" query parameter.
func (s *NetServer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		worker := r.URL.Query().Get("worker")
		if worker == "" {
			http.Error(w, "missing worker parameter", http.StatusBadRequest)
			return
		}
		ws, err := wsock.Upgrade(w, r)
		if err != nil {
			return // Upgrade already wrote the HTTP error
		}
		if stats := s.core.metrics.WireStats(); stats != nil {
			ws.SetStats(stats)
		}
		go s.serve(transport.WrapWS(ws), worker)
	})
}

// ServeConn runs one client connection to completion (blocking). Exposed so
// tests and simulations can drive the server over in-process pipes.
func (s *NetServer) ServeConn(conn transport.Conn, worker string) {
	s.serve(conn, worker)
}

func (s *NetServer) serve(conn transport.Conn, worker string) {
	clientID := fmt.Sprintf("net-%05d", atomic.AddInt64(&s.nextID, 1))

	// Registering the client and opening the pooled cursor under one lock
	// pins the join point in the sequence: the private snapshot reflects
	// every record before the cursor, and the cursor sees every record after
	// it — no gap, no duplicate. The snapshot travels with the flushConn as
	// its pending batch, delivered by the pool before any log record.
	s.mu.Lock()
	if s.done {
		// A join after Done is never registered, so the finished core does
		// not move: once the host has archived, it hears MsgDone alone.
		s.mu.Unlock()
		<-s.archived
		conn.SetWriteDeadline(time.Now().Add(flushWriteDeadline))
		_ = conn.Send(sync.Message{Type: sync.MsgDone}) // a peer already gone needs no answer
		conn.Close()
		return
	}
	private := s.core.AddClient(clientID, worker)
	pending := make([]*sync.Prepared, len(private))
	for i, o := range private {
		pending[i] = o.Prepared
	}
	fc, open := s.log.register(conn, clientID, pending, func() {
		// Eviction hook (publisher side, own goroutine): closing the
		// transport unblocks a flusher stuck mid-send and fails the reader's
		// Recv, so both halves tear down even though the slow client never
		// drains another byte. No log/metric here — whichever teardown path
		// wins the detach notes the drop, attributed to lag via the cursor.
		conn.Close()
	})
	s.mu.Unlock()
	if !open {
		conn.Close() // the log is shut down; the reader below sees the close
	}
	// Hand the connection to the pool outside both locks (the flush queue's
	// mutex never nests with the server's or the log's).
	s.log.enqueue(fc)

	// Readiness read plane: hand the connection to the poller and return —
	// this goroutine's work is done, and the connection costs zero
	// goroutines until traffic arrives. Falls through to the blocking loop
	// for transports without a descriptor (pipes) and on platforms without
	// a poller backend.
	if s.servePoll(conn, clientID, fc) {
		return
	}

	for {
		m, err := conn.Recv()
		if err != nil {
			break
		}
		if herr := s.handleAndPublish(clientID, m); herr != nil {
			s.core.metrics.noteDrop(dropReject, clientID, herr.Error())
		}
	}
	s.finishConn(conn, clientID, fc)
}

// finishConn is the reader-side teardown epilogue shared by the blocking
// loop and the poller path: remove the core client, detach the cursor, and
// close the transport.
func (s *NetServer) finishConn(conn transport.Conn, clientID string, fc *flushConn) {
	s.mu.Lock()
	s.core.RemoveClient(clientID)
	s.mu.Unlock()
	// A normal disconnect is not a drop; but if this teardown wins the
	// detach on an evicted cursor (the flusher never touched it again after
	// the evictor closed the transport), the lag drop is noted here.
	if won, lagged := s.log.deregister(fc); won && lagged {
		s.core.metrics.noteDrop(dropLag, clientID, "cursor lagged behind broadcast log")
	}
	conn.Close()
}

// handleAndPublish runs one inbound message through the core and publishes
// the resulting broadcasts into the log. The lock is held for the core
// transition plus an O(len(records)) append — no per-recipient work. The
// warnings the transition raised are taken under the lock and written to
// the log and the flight recorder after it is released. Rejects are noted
// by the caller and are not teardowns. The message that completes the
// collection starts the Done transition.
func (s *NetServer) handleAndPublish(clientID string, m sync.Message) error {
	s.mu.Lock()
	bcasts, err := s.core.HandleBroadcast(clientID, m)
	if err == nil {
		s.log.publish(bcasts)
	}
	warn := s.core.TakeWarnings()
	finished := !s.done && s.core.Done()
	s.done = s.done || finished
	s.mu.Unlock()
	warn.Emit()
	if finished {
		go s.finish()
	}
	return err
}

// finish is the collection's one Done transition, on its own goroutine
// because Shutdown joins the pools the completing message ran on. The host
// archives first, so a worker that hears MsgDone can rely on the archive;
// then MsgDone is published, every link is given flushWriteDeadline to
// flush past it, and Shutdown closes the links and both planes.
func (s *NetServer) finish() {
	if s.onDone != nil {
		s.onDone()
	}
	close(s.archived)
	s.mu.Lock()
	s.log.publish([]Broadcast{{Prepared: sync.NewPrepared(sync.Message{Type: sync.MsgDone})}})
	s.mu.Unlock()
	for deadline := time.Now().Add(flushWriteDeadline); !s.log.drained() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	s.Shutdown()
}

// Shutdown closes the broadcast plane and the readiness read plane: every
// registered connection's transport is closed — failing blocking reader
// loops and firing poller close hooks — the flusher pool, the log's
// dispatcher, and the poll workers exit, and the call returns only once
// they all have (whichever caller ran it). Further publishes are dropped.
func (s *NetServer) Shutdown() {
	s.shutdown.Do(func() {
		s.log.close()
		s.poller.Close()
	})
}

// Done reports whether the collection finished (thread-safe).
func (s *NetServer) Done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Done()
}

// WithCore runs fn with the core under the server lock.
func (s *NetServer) WithCore(fn func(*Core)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.core)
}

// ListenAndServe serves the WebSocket endpoint on addr until the listener
// fails.
func (s *NetServer) ListenAndServe(addr string) error {
	srv := NewHTTPServer(s.Handler())
	srv.Addr = addr
	return srv.ListenAndServe()
}

// Limits on a connection while it is plain HTTP: a client has
// HTTPHeaderTimeout to send its request line and headers, and a keep-alive
// connection idle between requests for HTTPIdleTimeout is closed. Neither
// reaches a WebSocket: net/http clears a connection's deadlines when the
// upgrade hijacks it.
const (
	HTTPHeaderTimeout = 10 * time.Second
	HTTPIdleTimeout   = 2 * time.Minute
)

// NewHTTPServer returns the http.Server every listener of the stack serves
// h through, with the limits above.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: HTTPHeaderTimeout,
		IdleTimeout:       HTTPIdleTimeout,
		ErrorLog:          log.Default(),
	}
}
