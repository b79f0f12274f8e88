// Package frontend implements CrowdFill's front-end server (paper §3.2): the
// REST API applications use to create, update, and delete table
// specifications, launch data collection (publishing a task on the
// marketplace and starting a back-end collection), retrieve collected data,
// and pay workers. Each collection's spec, result and bookkeeping log are
// files in its own directory of the store directory (store.go).
package frontend

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	gosync "sync"

	"crowdfill/internal/marketplace"
	"crowdfill/internal/metrics"
	"crowdfill/internal/replay"
	"crowdfill/internal/server"
	"crowdfill/internal/spec"
)

// specDoc is the stored form of a specification and its lifecycle state.
type specDoc struct {
	Spec   spec.TableSpec `json:"spec"`
	Status string         `json:"status"` // "draft", "running", "interrupted", "done", "paid"
	HITID  string         `json:"hitId,omitempty"`
}

// archived reports whether the collection's log and result are on disk:
// archive writes both before it marks the spec done.
func (sd specDoc) archived() bool { return sd.Status == "done" || sd.Status == "paid" }

// resultDoc is the stored form of a finished collection.
type resultDoc struct {
	Rows  [][]string         `json:"rows"`
	Final server.Status      `json:"final"`
	Pay   map[string]float64 `json:"pay,omitempty"`
}

// evStoreWrite is the flight-recorder event of a store write that failed in
// a lifecycle transition, which therefore did not happen.
const evStoreWrite = "store-write"

// Frontend is the front-end server state.
type Frontend struct {
	// mu serializes the REST handlers' lifecycle transitions, which read
	// and write the store, publish on the marketplace and start collections
	// (whose instruments live in the flight recorder) while holding it.
	//
	//lint:before Marketplace.mu Recorder.mu
	mu gosync.Mutex
	// dir holds one directory per collection, named by its spec id.
	dir string
	// lastID numbers the last spec id handed out; guarded by mu.
	lastID int
	market *marketplace.Marketplace
	// running holds each collection started here until it is paid or its
	// spec deleted; a finished one is shut down but keeps its core.
	running map[string]*server.NetServer
	// maxWorkers caps assignments per published HIT.
	maxWorkers int
}

// New builds a front-end over the store directory dir, made if missing, and
// a marketplace. A spec the store holds as running is marked interrupted:
// its collection lived in a process that is gone.
func New(dir string, market *marketplace.Marketplace, maxWorkers int) (*Frontend, error) {
	if maxWorkers <= 0 {
		maxWorkers = 10
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ids, err := specIDs(dir)
	if err != nil {
		return nil, err
	}
	f := &Frontend{
		dir:        dir,
		market:     market,
		running:    make(map[string]*server.NetServer),
		maxWorkers: maxWorkers,
	}
	for _, id := range ids {
		n, _ := specNumber(id)
		f.lastID = max(f.lastID, n)
	}
	return f, f.interruptOrphans(ids)
}

// interruptOrphans flips every spec stored as running to interrupted and
// persists it. No NetServer backs such a spec in this process, so left
// running its status would never change, its socket would answer 404 and
// DELETE would refuse it.
func (f *Frontend) interruptOrphans(ids []string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, id := range ids {
		sd, err := f.readSpec(id)
		if errors.Is(err, fs.ErrNotExist) || (err == nil && sd.Status != "running") {
			continue
		}
		if err != nil {
			return err
		}
		sd.Status = "interrupted"
		// A failed write leaves the file running: this process serves the
		// spec so, and the next start-up flips it again.
		_ = f.writeSpec(id, sd)
	}
	return nil
}

// Handler returns the REST API plus the per-collection WebSocket endpoints:
//
//	POST   /api/specs            create a table specification
//	GET    /api/specs            list specifications
//	GET    /api/specs/{id}       fetch one
//	PUT    /api/specs/{id}       update a draft
//	DELETE /api/specs/{id}       delete a draft
//	POST   /api/specs/{id}/start publish a HIT and start collection
//	GET    /api/specs/{id}/status collection progress
//	GET    /api/specs/{id}/result the final table (once done)
//	GET    /api/specs/{id}/trace the bookkeeping log (archived or live)
//	GET    /api/specs/{id}/statements per-worker pay statements
//	POST   /api/specs/{id}/pay   compute compensation and pay bonuses
//	GET    /ws/{id}?worker=W     worker WebSocket endpoint
//
// A known path asked with another method answers 405.
func (f *Frontend) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/specs", f.handleCreate)
	mux.HandleFunc("GET /api/specs", f.handleList)
	mux.HandleFunc("/api/specs/{id}", f.withSpec(f.handleSpecCRUD))
	mux.HandleFunc("POST /api/specs/{id}/start", f.withSpec(f.handleStart))
	mux.HandleFunc("GET /api/specs/{id}/status", f.withSpec(f.handleStatus))
	mux.HandleFunc("GET /api/specs/{id}/result", f.withSpec(f.handleResult))
	mux.HandleFunc("GET /api/specs/{id}/trace", f.withSpec(f.handleTrace))
	mux.HandleFunc("GET /api/specs/{id}/statements", f.withSpec(f.handleStatements))
	mux.HandleFunc("POST /api/specs/{id}/pay", f.withSpec(f.handlePay))
	mux.HandleFunc("GET /ws/{id}", f.handleWS)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// server returns the back-end server id has in this process, or nil.
func (f *Frontend) server(id string) *server.NetServer {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.running[id]
}

func (f *Frontend) handleCreate(w http.ResponseWriter, r *http.Request) {
	var ts spec.TableSpec
	if err := json.NewDecoder(r.Body).Decode(&ts); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if _, err := ts.Build(); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	f.mu.Lock()
	id, err := f.createSpec(specDoc{Spec: ts, Status: "draft"})
	f.mu.Unlock()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": id, "status": "draft"})
}

func (f *Frontend) handleList(w http.ResponseWriter, r *http.Request) {
	ids, err := specIDs(f.dir)
	out := make([]map[string]any, 0, len(ids))
	for _, id := range ids {
		sd, rerr := f.readSpec(id)
		if errors.Is(rerr, fs.ErrNotExist) {
			continue // deleted, or still being created
		}
		err = errors.Join(err, rerr)
		out = append(out, map[string]any{"id": id, "name": sd.Spec.Name, "status": sd.Status})
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// withSpec serves /api/specs/{id}[/...] with the spec the path names, or
// answers 404. A handler that changes the spec re-reads it under f.mu: two
// racing transitions must not both act on the stale copy read here.
func (f *Frontend) withSpec(h func(w http.ResponseWriter, r *http.Request, id string, sd specDoc)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		sd, err := f.readSpec(id)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		h(w, r, id, sd)
	}
}

func (f *Frontend) handleSpecCRUD(w http.ResponseWriter, r *http.Request, id string, sd specDoc) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "spec": sd.Spec, "status": sd.Status})
	case http.MethodPut:
		var ts spec.TableSpec
		if err := json.NewDecoder(r.Body).Decode(&ts); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if _, err := ts.Build(); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		sd, err := f.readSpec(id)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		if sd.Status != "draft" {
			writeErr(w, http.StatusConflict, errors.New("only drafts can be updated"))
			return
		}
		sd.Spec = ts
		if err := f.writeSpec(id, sd); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": sd.Status})
	case http.MethodDelete:
		f.mu.Lock()
		defer f.mu.Unlock()
		sd, err := f.readSpec(id)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		if sd.Status == "running" {
			writeErr(w, http.StatusConflict, errors.New("stop the collection first"))
			return
		}
		if err := f.deleteSpec(id); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		delete(f.running, id)
		writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": "deleted"})
	default:
		writeErr(w, http.StatusMethodNotAllowed, errors.New("use GET, PUT or DELETE"))
	}
}

func (f *Frontend) handleStart(w http.ResponseWriter, r *http.Request, id string, sd specDoc) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sd, err := f.readSpec(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if sd.Status != "draft" {
		writeErr(w, http.StatusConflict, fmt.Errorf("spec is %s", sd.Status))
		return
	}
	cfg, err := sd.Spec.Build()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	core, err := server.New(cfg)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	wsPath := "/ws/" + id
	hit, err := f.market.CreateHIT("CrowdFill: "+sd.Spec.Name, wsPath, f.maxWorkers)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	sd.Status = "running"
	sd.HITID = hit.ID
	if err := f.writeSpec(id, sd); err != nil {
		_ = f.market.Expire(hit.ID)
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	f.running[id] = server.NewNetServer(core, func(fin server.Final) { f.archive(id, fin) })
	writeJSON(w, http.StatusOK, map[string]string{
		"id": id, "status": "running", "hit": hit.ID, "ws": wsPath,
	})
}

// archive is the frontend's part of a collection's Done transition, run
// before any worker hears MsgDone. It writes the log, then the result, then
// the spec as done, so a spec that reads done has both on disk. A failed
// write leaves the spec running and is recorded. The HIT expires either
// way: the collection takes no more work.
func (f *Frontend) archive(id string, fin server.Final) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sd, err := f.readSpec(id)
	if err == nil {
		dir := f.collDir(id)
		err = writeRecord(dir, logFile, fin.Log)
		if err == nil {
			err = writeRecord(dir, resultFile, resultDoc{Rows: fin.Rows, Final: fin.Status})
		}
		if err == nil {
			sd.Status = "done"
			err = f.writeSpec(id, sd)
		}
		err = errors.Join(err, f.market.Expire(sd.HITID))
	}
	if err != nil {
		metrics.DefaultRecorder().Record(evStoreWrite, id, "archive: "+err.Error())
	}
}

// handleStatus reports a collection's progress: from its archive once it
// is done, also after a restart, and live while it runs.
func (f *Frontend) handleStatus(w http.ResponseWriter, r *http.Request, id string, sd specDoc) {
	out := struct {
		ID string `json:"id"`
		*server.Status
		State string `json:"status"`
	}{ID: id, State: sd.Status}
	if sd.archived() {
		var rd resultDoc
		if err := readRecord(f.collDir(id), resultFile, &rd); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		out.Status = &rd.Final
	} else if ns := f.server(id); ns != nil {
		out.Status = new(server.Status)
		ns.WithCore(func(c *server.Core) { *out.Status = c.Status() })
	}
	writeJSON(w, http.StatusOK, out)
}

// logOf returns the collection's bookkeeping log: the archived one once it
// finished, else a copy of its live one. A collection with neither is
// answered with notStarted, and false returned.
func (f *Frontend) logOf(w http.ResponseWriter, id string, sd specDoc, notStarted int) (replay.Log, bool) {
	var log replay.Log
	if sd.archived() {
		if err := readRecord(f.collDir(id), logFile, &log); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return log, false
		}
	} else if ns := f.server(id); ns != nil {
		ns.WithCore(func(c *server.Core) { log = c.Log() })
	} else {
		writeErr(w, notStarted, errors.New("collection not started"))
		return log, false
	}
	return log, true
}

func (f *Frontend) handleResult(w http.ResponseWriter, r *http.Request, id string, sd specDoc) {
	var rd resultDoc
	if sd.archived() {
		if err := readRecord(f.collDir(id), resultFile, &rd); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
	} else if ns := f.server(id); ns != nil {
		// A running collection's live table.
		ns.WithCore(func(c *server.Core) { rd.Rows = c.ResultRows() })
	} else {
		writeErr(w, http.StatusNotFound, errors.New("no result yet"))
		return
	}
	writeJSON(w, http.StatusOK, rd)
}

// handlePay pays a finished collection once: the amounts come from
// replaying its archived log under its spec, so a collection archived
// before a restart still pays. It answers 200 once the result with the
// amounts and the spec as paid are on disk; a failed write answers 500 and
// is recorded. A paid collection's back-end server, shut down since Done,
// is released.
func (f *Frontend) handlePay(w http.ResponseWriter, r *http.Request, id string, sd specDoc) {
	// Paying is a lifecycle transition: serialize it and re-read the spec,
	// so a collection pays once.
	f.mu.Lock()
	defer f.mu.Unlock()
	sd, err := f.readSpec(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if sd.Status != "done" {
		writeErr(w, http.StatusConflict, fmt.Errorf("collection is %s, not done", sd.Status))
		return
	}
	dir := f.collDir(id)
	var log replay.Log
	var rd resultDoc
	if err := errors.Join(readRecord(dir, logFile, &log), readRecord(dir, resultFile, &rd)); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	audit, err := spec.Audit(sd.Spec, log)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	perWorker := audit.Alloc.PerWorker
	for worker, amount := range perWorker {
		if amount <= 0 {
			continue
		}
		// Workers may have been recruited out-of-band (the paper's own
		// experiments did exactly that) rather than through a HIT.
		f.market.Register(worker)
		if err := f.market.PayBonus(worker, amount, "CrowdFill "+id); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
	}
	rd.Pay = perWorker
	err = writeRecord(dir, resultFile, rd)
	if err == nil {
		sd.Status = "paid"
		err = f.writeSpec(id, sd)
	}
	if err != nil {
		metrics.DefaultRecorder().Record(evStoreWrite, id, "pay: "+err.Error())
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	delete(f.running, id)
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "status": "paid", "pay": perWorker})
}

// handleTrace serves the archived (or live) bookkeeping log.
func (f *Frontend) handleTrace(w http.ResponseWriter, r *http.Request, id string, sd specDoc) {
	if log, ok := f.logOf(w, id, sd, http.StatusNotFound); ok {
		writeJSON(w, http.StatusOK, log)
	}
}

// handleStatements renders per-worker pay statements (itemized §5.2
// allocations) by replaying the archived log, or the live one while the
// collection runs.
func (f *Frontend) handleStatements(w http.ResponseWriter, r *http.Request, id string, sd specDoc) {
	log, ok := f.logOf(w, id, sd, http.StatusConflict)
	if !ok {
		return
	}
	audit, err := spec.Audit(sd.Spec, log)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "statements": audit.Statements()})
}

// handleWS upgrades worker connections for a running collection; once it is
// done the path answers 404. Workers normally arrive by accepting the HIT;
// the worker query parameter carries the marketplace identity.
func (f *Frontend) handleWS(w http.ResponseWriter, r *http.Request) {
	ns := f.server(r.PathValue("id"))
	if ns == nil || ns.Done() {
		writeErr(w, http.StatusNotFound, errors.New("no running collection"))
		return
	}
	ns.Handler().ServeHTTP(w, r)
}
