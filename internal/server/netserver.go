package server

import (
	"fmt"
	"log"
	"net/http"
	gosync "sync"
	"sync/atomic"

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
// without per-recipient work on the hot path.
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
	logf   func(format string, args ...any)

	// poller is the readiness read plane (DESIGN.md §15): on Linux,
	// WebSocket connections are read by a fixed worker pool driven by
	// epoll instead of one blocking goroutine each. nil where unsupported
	// — serve falls back to the blocking loop per connection.
	poller *netpoll.Poller
}

// NewNetServer wraps a Core for network serving. logf may be nil to discard
// logs. The broadcast log inherits the core's instrument set and log
// capacity (Config.Metrics / Config.LogCapacity), and logf becomes the
// flight recorder's sink, so every structured drop event also emits one
// human-readable line.
func NewNetServer(core *Core, logf func(string, ...any)) *NetServer {
	if logf != nil {
		if rec := core.metrics.Recorder(); rec != nil {
			rec.SetLogf(logf)
		}
	} else {
		logf = func(string, ...any) {}
	}
	capacity := core.cfg.LogCapacity
	if capacity <= 0 {
		capacity = defaultLogCapacity
	}
	blog := newBcastLog(capacity, logf, core.metrics)
	s := &NetServer{core: core, log: blog, logf: logf}
	if p, err := netpoll.New(pollerCount(), pollStats(core.metrics)); err == nil {
		s.poller = p
	} else if err != netpoll.ErrUnsupported {
		logf("crowdfill: readiness poller unavailable, using blocking reads: %v", err)
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
	private := s.core.AddClient(clientID, worker)
	pending := make([]*sync.Prepared, len(private))
	for i, o := range private {
		if o.Prepared != nil {
			pending[i] = o.Prepared
		} else {
			pending[i] = sync.NewPrepared(o.Msg)
		}
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
			s.noteReject(clientID, herr)
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
		s.log.noteDrop(dropLag, clientID, "cursor lagged behind broadcast log")
	}
	conn.Close()
}

// noteReject records one rejected inbound message: reject counter,
// flight-recorder event (whose sink logs the line), or plain logf when
// instrumentation is off. Rejects share the drop-cause funnel but are not
// teardowns — the connection stays up.
func (s *NetServer) noteReject(clientID string, herr error) {
	if m := s.core.metrics; m != nil {
		m.noteDrop(dropReject, clientID, herr.Error())
		return
	}
	s.logf("crowdfill: client %s message rejected: %v", clientID, herr)
}

// handleAndPublish runs one inbound message through the core and publishes
// the resulting broadcasts into the log. The lock is held for the core
// transition plus an O(len(records)) append — no per-recipient work. The
// warnings the transition raised are taken under the lock and written to
// the log and the flight recorder after it is released.
func (s *NetServer) handleAndPublish(clientID string, m sync.Message) error {
	s.mu.Lock()
	bcasts, err := s.core.HandleBroadcast(clientID, m)
	if err == nil {
		s.log.publish(bcasts)
	}
	warn := s.core.TakeWarnings()
	s.mu.Unlock()
	warn.Emit()
	return err
}

// Shutdown closes the broadcast plane and the readiness read plane: every
// registered connection's transport is closed — failing blocking reader
// loops and firing poller close hooks — the flusher pool, the log's
// dispatcher, and the poll workers exit, and the call returns only once
// they all have. Further publishes are dropped.
func (s *NetServer) Shutdown() {
	s.log.close()
	s.poller.Close()
}

// Done reports whether the collection finished (thread-safe).
func (s *NetServer) Done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Done()
}

// Core returns the wrapped core; callers must not touch it while the server
// is live except via WithCore.
func (s *NetServer) Core() *Core { return s.core }

// WithCore runs fn with the core under the server lock.
func (s *NetServer) WithCore(fn func(*Core)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.core)
}

// ListenAndServe serves the WebSocket endpoint on addr until the listener
// fails. Intended for cmd/crowdfill-server.
func (s *NetServer) ListenAndServe(addr string) error {
	srv := &http.Server{Addr: addr, Handler: s.Handler(), ErrorLog: log.Default()}
	return srv.ListenAndServe()
}
