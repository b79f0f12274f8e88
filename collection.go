package crowdfill

import (
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"crowdfill/internal/client"
	"crowdfill/internal/model"
	"crowdfill/internal/replay"
	"crowdfill/internal/server"
	"crowdfill/internal/sync"
	"crowdfill/internal/transport"
)

// Collection is one live data-collection run: the back-end server (master
// table, Central Client, trace, estimator) plus its network surface. Workers
// join over WebSocket (Handler) or in-process (Connect). When the table is
// complete every worker hears Done and is disconnected, and the server shuts
// down; the collection's table, status and pay stay readable.
type Collection struct {
	ns     *server.NetServer
	cfg    server.Config
	nextID int64
}

// NewCollection validates the spec and starts a collection (the candidate
// table is seeded from the constraint template immediately).
func NewCollection(s Spec) (*Collection, error) {
	cfg, err := s.Build()
	if err != nil {
		return nil, err
	}
	core, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Collection{ns: server.NewNetServer(core, nil), cfg: cfg}, nil
}

// Handler returns the WebSocket endpoint workers connect to
// (ws://…/?worker=<id>).
func (c *Collection) Handler() http.Handler { return c.ns.Handler() }

// ListenAndServe serves the WebSocket endpoint on addr (blocking).
func (c *Collection) ListenAndServe(addr string) error { return c.ns.ListenAndServe(addr) }

// Done reports whether enough data has been collected (the final table
// satisfies the constraint).
func (c *Collection) Done() bool { return c.ns.Done() }

// Columns returns the schema's column names.
func (c *Collection) Columns() []string {
	return c.cfg.Schema.ColumnNames()
}

// Result returns the current final table as rows of column values.
func (c *Collection) Result() [][]string {
	var rows [][]string
	c.ns.WithCore(func(core *server.Core) { rows = core.ResultRows() })
	return rows
}

// Status summarizes collection progress.
type Status = server.Status

// Status returns a snapshot of collection progress.
func (c *Collection) Status() (st Status) {
	c.ns.WithCore(func(core *server.Core) { st = core.Status() })
	return st
}

// ComputePay runs the compensation calculation (§5.2) over the run so far
// and returns per-worker amounts. It copies the log under the serving lock
// and prices the copy (server.Audit) after releasing it, so workers' messages
// wait only for the copy.
func (c *Collection) ComputePay() (map[string]float64, error) {
	var log replay.Log
	c.ns.WithCore(func(core *server.Core) { log = core.Log() })
	audit, err := server.Audit(c.cfg, log)
	if err != nil {
		return nil, err
	}
	return audit.Alloc.PerWorker, nil
}

// Close disconnects every worker and shuts the server down; a finished
// collection has already done both.
func (c *Collection) Close() { c.ns.Shutdown() }

// Connect joins an in-process worker to the collection and returns its
// action handle.
func (c *Collection) Connect(workerID string) (*Worker, error) {
	if workerID == "" {
		return nil, errors.New("crowdfill: worker id required")
	}
	cl, err := client.New(client.Config{
		ID:     fmt.Sprintf("%s#%d", workerID, atomic.AddInt64(&c.nextID, 1)),
		Worker: workerID,
		Schema: c.cfg.Schema,
	})
	if err != nil {
		return nil, err
	}
	serverSide, clientSide := transport.Pipe(1024)
	go c.ns.ServeConn(serverSide, workerID)
	return &Worker{
		id:     workerID,
		schema: c.cfg.Schema,
		runner: client.NewRunner(cl, clientSide),
	}, nil
}

// Row is a worker-visible candidate-table row.
type Row struct {
	ID string
	// Cells holds one value per column; empty cells are "".
	Cells []string
	// Up and Down are the row's vote counts.
	Up, Down int
	// Complete reports whether every cell is filled.
	Complete bool
}

// Worker is an in-process worker connection: the worker-client runtime plus
// its link to the collection.
type Worker struct {
	id     string
	schema *model.Schema
	runner *client.Runner
}

// ID returns the worker identity.
func (w *Worker) ID() string { return w.id }

// Done reports whether the server declared the collection finished.
func (w *Worker) Done() bool { return w.runner.Done() }

// Close disconnects the worker.
func (w *Worker) Close() error { return w.runner.Close() }

// Epoch returns the worker's replica change epoch. Read the epoch before
// inspecting Rows; if the inspection did not find what it wanted, pass the
// epoch to WaitChange to sleep until the next server batch lands.
func (w *Worker) Epoch() uint64 { return w.runner.Epoch() }

// WaitChange blocks until the replica has changed since epoch (or the link
// closed) and returns the current epoch. Epoch/WaitChange replace polling
// loops over Rows: the read-epoch-then-scan-then-wait pattern has no missed
// wakeups because the epoch is bumped after every applied batch.
func (w *Worker) WaitChange(epoch uint64) uint64 { return w.runner.WaitChange(epoch) }

// Rows returns the worker's current view of the candidate table, sorted by
// row id.
func (w *Worker) Rows() []Row {
	var out []Row
	w.runner.View(func(c *client.Client) {
		for _, r := range c.Rows(nil) {
			out = append(out, Row{
				ID:       string(r.ID),
				Cells:    r.Vec.Strings(),
				Up:       r.Up,
				Down:     r.Down,
				Complete: r.Vec.IsComplete(),
			})
		}
	})
	return out
}

// Estimates returns the latest per-action compensation estimates the server
// broadcast, in budget units rounded to the cent (pay.Resolution): one value
// per column (for fills) plus upvote/downvote values. ok is false before the
// first broadcast.
func (w *Worker) Estimates() (perColumn []float64, upvote, downvote float64, ok bool) {
	w.runner.View(func(c *client.Client) {
		if est := c.Estimates(); est != nil {
			perColumn = append([]float64(nil), est.PerColumn...)
			upvote, downvote, ok = est.Upvote, est.Downvote, true
		}
	})
	return perColumn, upvote, downvote, ok
}

// Fill fills the named column of a row with a value (validated against the
// schema). Completing a row automatically upvotes it (§3.4).
func (w *Worker) Fill(rowID, column, value string) error {
	return w.runner.Do(func(c *client.Client) ([]sync.Message, error) {
		return c.FillByName(model.RowID(rowID), column, value)
	})
}

// Upvote endorses a complete row.
func (w *Worker) Upvote(rowID string) error {
	return w.runner.Do(func(c *client.Client) ([]sync.Message, error) {
		m, err := c.Upvote(model.RowID(rowID))
		if err != nil {
			return nil, err
		}
		return []sync.Message{m}, nil
	})
}

// Downvote refutes a partial or complete row.
func (w *Worker) Downvote(rowID string) error {
	return w.runner.Do(func(c *client.Client) ([]sync.Message, error) {
		m, err := c.Downvote(model.RowID(rowID))
		if err != nil {
			return nil, err
		}
		return []sync.Message{m}, nil
	})
}
