// Package frontend implements CrowdFill's front-end server (paper §3.2): the
// REST API applications use to create, update, and delete table
// specifications, launch data collection (publishing a task on the
// marketplace and starting a back-end collection), retrieve collected data,
// and pay workers. Metadata and results live in the embedded document store.
package frontend

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	gosync "sync"

	"crowdfill/internal/docstore"
	"crowdfill/internal/marketplace"
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

// resultDoc is the stored form of a finished collection.
type resultDoc struct {
	Rows  [][]string         `json:"rows"`
	Final server.Status      `json:"final"`
	Pay   map[string]float64 `json:"pay,omitempty"`
}

// Frontend is the front-end server state.
type Frontend struct {
	// mu serializes the REST handlers' lifecycle transitions, which read
	// and write the store, publish on the marketplace and start collections
	// (whose instruments live in the flight recorder) while holding it.
	//
	//lint:before Marketplace.mu Store.mu Recorder.mu
	mu     gosync.Mutex
	store  *docstore.Store
	market *marketplace.Marketplace
	// running holds each collection started here until it is paid or its
	// spec deleted; a finished one is shut down but keeps its core.
	running map[string]*server.NetServer
	// maxWorkers caps assignments per published HIT.
	maxWorkers int
}

// New builds a front-end over a document store and a marketplace. A spec
// the store holds as running is marked interrupted: its collection lived in
// a process that is gone.
func New(store *docstore.Store, market *marketplace.Marketplace, maxWorkers int) *Frontend {
	if maxWorkers <= 0 {
		maxWorkers = 10
	}
	f := &Frontend{
		store:      store,
		market:     market,
		running:    make(map[string]*server.NetServer),
		maxWorkers: maxWorkers,
	}
	f.interruptOrphans()
	return f
}

// interruptOrphans flips every spec stored as running to interrupted and
// persists it. No NetServer backs such a spec in this process, so left
// running its status would never change, its socket would answer 404 and
// DELETE would refuse it.
func (f *Frontend) interruptOrphans() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, d := range f.specs().All() {
		var sd specDoc
		if err := d.Decode(&sd); err != nil || sd.Status != "running" {
			continue
		}
		sd.Status = "interrupted"
		// A failed write still flips the spec in this process; the file
		// keeps it running, and the next start-up flips it again.
		_ = f.specs().Put(d.ID, sd)
	}
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
func (f *Frontend) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/specs", f.handleSpecs)
	mux.HandleFunc("/api/specs/", f.handleSpec)
	mux.HandleFunc("/ws/", f.handleWS)
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

func (f *Frontend) specs() *docstore.Collection { return f.store.Collection("specs") }

// server returns the back-end server id has in this process, or nil.
func (f *Frontend) server(id string) *server.NetServer {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.running[id]
}

func (f *Frontend) handleSpecs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var ts spec.TableSpec
		if err := json.NewDecoder(r.Body).Decode(&ts); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if _, err := ts.Build(); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		id, err := f.specs().Insert(specDoc{Spec: ts, Status: "draft"})
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"id": id, "status": "draft"})
	case http.MethodGet:
		docs := f.specs().All()
		out := make([]map[string]any, 0, len(docs))
		for _, d := range docs {
			var sd specDoc
			if err := d.Decode(&sd); err != nil {
				continue
			}
			out = append(out, map[string]any{"id": d.ID, "name": sd.Spec.Name, "status": sd.Status})
		}
		writeJSON(w, http.StatusOK, out)
	default:
		writeErr(w, http.StatusMethodNotAllowed, errors.New("use GET or POST"))
	}
}

// handleSpec dispatches /api/specs/{id}[/{action}]. A handler that changes
// the spec re-reads it under f.mu: two racing transitions must not both act
// on the stale copy read here.
func (f *Frontend) handleSpec(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/api/specs/")
	id, action, _ := strings.Cut(rest, "/")
	if id == "" {
		writeErr(w, http.StatusNotFound, errors.New("missing spec id"))
		return
	}
	var sd specDoc
	if err := f.specs().Get(id, &sd); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	switch action {
	case "":
		f.handleSpecCRUD(w, r, id, sd)
	case "start":
		f.handleStart(w, r, id, sd)
	case "status":
		f.handleStatus(w, r, id, sd)
	case "result":
		f.handleResult(w, r, id, sd)
	case "trace":
		f.handleTrace(w, r, id, sd)
	case "statements":
		f.handleStatements(w, r, id, sd)
	case "pay":
		f.handlePay(w, r, id, sd)
	default:
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown action %q", action))
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
		if err := f.specs().Get(id, &sd); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		if sd.Status != "draft" {
			writeErr(w, http.StatusConflict, errors.New("only drafts can be updated"))
			return
		}
		sd.Spec = ts
		if err := f.specs().Put(id, sd); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": sd.Status})
	case http.MethodDelete:
		f.mu.Lock()
		defer f.mu.Unlock()
		if err := f.specs().Get(id, &sd); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		if sd.Status == "running" {
			writeErr(w, http.StatusConflict, errors.New("stop the collection first"))
			return
		}
		if err := f.specs().Delete(id); err != nil {
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
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.specs().Get(id, &sd); err != nil {
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
	if err := f.specs().Put(id, sd); err != nil {
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
// before any worker hears MsgDone.
func (f *Frontend) archive(id string, fin server.Final) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var sd specDoc
	if err := f.specs().Get(id, &sd); err != nil || sd.Status != "running" {
		return
	}
	_ = f.store.Collection("results").Put(id, resultDoc{Rows: fin.Rows, Final: fin.Status})
	_ = f.store.Collection("traces").Put(id, fin.Log)
	sd.Status = "done"
	_ = f.specs().Put(id, sd)
	_ = f.market.Expire(sd.HITID)
}

// handleStatus reports a collection's progress: from its archive once it
// is done, also after a restart, and live while it runs.
func (f *Frontend) handleStatus(w http.ResponseWriter, r *http.Request, id string, sd specDoc) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	out := struct {
		ID string `json:"id"`
		*server.Status
		State string `json:"status"`
	}{ID: id, State: sd.Status}
	var rd resultDoc
	if err := f.store.Collection("results").Get(id, &rd); err == nil {
		out.Status = &rd.Final
	} else if ns := f.server(id); ns != nil {
		out.Status = new(server.Status)
		ns.WithCore(func(c *server.Core) { *out.Status = c.Status() })
	}
	writeJSON(w, http.StatusOK, out)
}

// logOf returns the collection's bookkeeping log: the archived one once it
// finished, else a copy of its live one.
func (f *Frontend) logOf(id string) (replay.Log, error) {
	var log replay.Log
	err := f.store.Collection("traces").Get(id, &log)
	if ns := f.server(id); err != nil && ns != nil {
		ns.WithCore(func(c *server.Core) { log = c.Log() })
		err = nil
	}
	return log, err
}

func (f *Frontend) handleResult(w http.ResponseWriter, r *http.Request, id string, sd specDoc) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	var rd resultDoc
	if err := f.store.Collection("results").Get(id, &rd); err != nil {
		// Fall back to a live snapshot for running collections.
		ns := f.server(id)
		if ns == nil {
			writeErr(w, http.StatusNotFound, errors.New("no result yet"))
			return
		}
		ns.WithCore(func(c *server.Core) { rd.Rows = c.ResultRows() })
	}
	writeJSON(w, http.StatusOK, rd)
}

// handlePay pays a finished collection once: the amounts come from
// replaying its archived log under its spec, so a collection archived
// before a restart still pays. A paid collection's back-end server, shut
// down since Done, is released.
func (f *Frontend) handlePay(w http.ResponseWriter, r *http.Request, id string, sd specDoc) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	// Paying is a lifecycle transition: serialize it and re-read the spec,
	// so a collection pays once.
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.specs().Get(id, &sd); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if sd.Status != "done" {
		writeErr(w, http.StatusConflict, fmt.Errorf("collection is %s, not done", sd.Status))
		return
	}
	var log replay.Log
	if err := f.store.Collection("traces").Get(id, &log); err != nil {
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
	var rd resultDoc
	_ = f.store.Collection("results").Get(id, &rd)
	rd.Pay = perWorker
	_ = f.store.Collection("results").Put(id, rd)
	sd.Status = "paid"
	_ = f.specs().Put(id, sd)
	delete(f.running, id)
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "status": "paid", "pay": perWorker})
}

// handleTrace serves the archived (or live) bookkeeping log.
func (f *Frontend) handleTrace(w http.ResponseWriter, r *http.Request, id string, sd specDoc) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	log, err := f.logOf(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, errors.New("no trace yet"))
		return
	}
	writeJSON(w, http.StatusOK, log)
}

// handleStatements renders per-worker pay statements (itemized §5.2
// allocations) by replaying the archived log, or the live one while the
// collection runs.
func (f *Frontend) handleStatements(w http.ResponseWriter, r *http.Request, id string, sd specDoc) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	log, err := f.logOf(id)
	if err != nil {
		writeErr(w, http.StatusConflict, errors.New("collection not started"))
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
	ns := f.server(strings.TrimPrefix(r.URL.Path, "/ws/"))
	if ns == nil || ns.Done() {
		writeErr(w, http.StatusNotFound, errors.New("no running collection"))
		return
	}
	ns.Handler().ServeHTTP(w, r)
}
