package client

import (
	gosync "sync"

	"crowdfill/internal/sync"
	"crowdfill/internal/transport"
)

// Runner drives a Client over a network link: a background goroutine pumps
// server messages into the client, and Do serializes worker actions with
// that pump, sending the resulting messages upstream. This is the live-mode
// counterpart of the simulation harness's direct calls.
//
// The pump drains the link in batches (transport.Conn.RecvBatch) and applies
// each batch under one lock acquisition, bumping a change epoch once per
// batch. Pollers use Epoch/WaitChange to sleep between replica changes
// instead of spinning on View.
type Runner struct {
	mu     gosync.Mutex
	change *gosync.Cond // signalled on every epoch bump and on pump exit
	c      *Client
	conn   transport.Conn
	errc   chan error

	// epoch counts applied batches; stopped marks pump exit so waiters do
	// not block forever on a dead link. Both are guarded by mu.
	epoch   uint64
	stopped bool

	// batch is the pump-owned receive buffer, reused across RecvBatch calls.
	// Its messages are valid until the next call (an estimate's figures are
	// the link's storage), which is why the pump applies a batch before it
	// receives again and the client copies the figures it keeps.
	batch []sync.Message
}

// NewRunner wraps a client and its server link and starts the receive pump.
func NewRunner(c *Client, conn transport.Conn) *Runner {
	r := &Runner{c: c, conn: conn, errc: make(chan error, 1), batch: make([]sync.Message, 64)}
	r.change = gosync.NewCond(&r.mu)
	go r.pump()
	return r
}

func (r *Runner) pump() {
	defer func() {
		r.mu.Lock()
		r.stopped = true
		r.mu.Unlock()
		r.change.Broadcast()
	}()
	for {
		n, err := r.conn.RecvBatch(r.batch)
		if n > 0 {
			r.mu.Lock()
			aerr := r.c.HandleServerBatch(r.batch[:n])
			r.epoch++
			r.mu.Unlock()
			r.change.Broadcast()
			if aerr != nil {
				r.errc <- aerr
				return
			}
		}
		if err != nil {
			r.errc <- err
			return
		}
	}
}

// Do runs fn against the client under the runner's lock and sends every
// returned message to the server. fn should perform one worker action and
// return the messages it produced (or nil and an error).
func (r *Runner) Do(fn func(*Client) ([]sync.Message, error)) error {
	r.mu.Lock()
	msgs, err := fn(r.c)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	for _, m := range msgs {
		if err := r.conn.Send(m); err != nil {
			return err
		}
	}
	return nil
}

// View runs fn with read access to the client under the lock.
func (r *Runner) View(fn func(*Client)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(r.c)
}

// Epoch returns the current change epoch. Read it before inspecting replica
// state; if the inspection comes up empty, WaitChange(epoch) sleeps until
// the state may have changed, with no missed-wakeup window.
func (r *Runner) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// WaitChange blocks until the runner's epoch differs from epoch (a server
// batch was applied) or the pump has stopped, and returns the current epoch.
func (r *Runner) WaitChange(epoch uint64) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.epoch == epoch && !r.stopped {
		r.change.Wait()
	}
	return r.epoch
}

// ReplicaEpoch returns the replica's mutation counter under the runner's
// lock. Equivalent to reading Replica().Epoch() inside View, minus the
// escaping closure: latency pollers call this once per wakeup per receiver,
// so the closure-free path keeps poll cost flat in the receiver count.
func (r *Runner) ReplicaEpoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.c.Replica().Epoch()
}

// Done reports whether the server declared completion.
func (r *Runner) Done() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.c.Done()
}

// Err returns the pump's terminal error channel (closed connection etc.).
func (r *Runner) Err() <-chan error { return r.errc }

// Close shuts the link down.
func (r *Runner) Close() error { return r.conn.Close() }
