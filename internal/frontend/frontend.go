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
	"crowdfill/internal/model"
	"crowdfill/internal/server"
	"crowdfill/internal/spec"
	"crowdfill/internal/sync"
)

// specDoc is the stored form of a specification and its lifecycle state.
type specDoc struct {
	Spec   spec.TableSpec `json:"spec"`
	Status string         `json:"status"` // "draft", "running", "done", "paid"
	HITID  string         `json:"hitId,omitempty"`
}

// resultDoc is the stored form of a finished collection.
type resultDoc struct {
	Rows [][]string         `json:"rows"`
	Pay  map[string]float64 `json:"pay,omitempty"`
}

// traceDoc archives the complete worker-action trace the back-end keeps for
// bookkeeping (§3.3), plus the Central Client's log.
type traceDoc struct {
	Trace []sync.Message `json:"trace"`
	CCLog []sync.Message `json:"ccLog"`
}

// Frontend is the front-end server state.
type Frontend struct {
	// mu serializes the REST handlers' lifecycle transitions, which read
	// and write the store, publish on the marketplace and start collections
	// (whose instruments live in the flight recorder) while holding it.
	//
	//lint:before Marketplace.mu Store.mu Recorder.mu
	mu      gosync.Mutex
	store   *docstore.Store
	market  *marketplace.Marketplace
	running map[string]*server.NetServer
	// maxWorkers caps assignments per published HIT.
	maxWorkers int
}

// New builds a front-end over a document store and a marketplace.
func New(store *docstore.Store, market *marketplace.Marketplace, maxWorkers int) *Frontend {
	if maxWorkers <= 0 {
		maxWorkers = 10
	}
	return &Frontend{
		store:      store,
		market:     market,
		running:    make(map[string]*server.NetServer),
		maxWorkers: maxWorkers,
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

// handleSpec dispatches /api/specs/{id}[/{action}].
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
		f.handleTrace(w, r, id)
	case "statements":
		f.handleStatements(w, r, id)
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
		if sd.Status != "draft" {
			writeErr(w, http.StatusConflict, errors.New("only drafts can be updated"))
			return
		}
		var ts spec.TableSpec
		if err := json.NewDecoder(r.Body).Decode(&ts); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if _, err := ts.Build(); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		sd.Spec = ts
		if err := f.specs().Put(id, sd); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": sd.Status})
	case http.MethodDelete:
		if sd.Status == "running" {
			writeErr(w, http.StatusConflict, errors.New("stop the collection first"))
			return
		}
		if err := f.specs().Delete(id); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
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
	f.running[id] = server.NewNetServer(core, nil)
	sd.Status = "running"
	sd.HITID = hit.ID
	if err := f.specs().Put(id, sd); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{
		"id": id, "status": "running", "hit": hit.ID, "ws": wsPath,
	})
}

func (f *Frontend) handleStatus(w http.ResponseWriter, r *http.Request, id string, sd specDoc) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	f.mu.Lock()
	ns := f.running[id]
	f.mu.Unlock()
	out := map[string]any{"id": id, "status": sd.Status}
	if ns != nil {
		ns.WithCore(func(c *server.Core) {
			out["finalRows"] = len(c.FinalTable())
			out["candidateRows"] = c.Master().Table().Len()
			out["done"] = c.Done()
			out["clients"] = c.Clients()
			out["messages"] = len(c.Trace())
		})
		if done, _ := out["done"].(bool); done && sd.Status == "running" {
			f.finish(id, &sd, ns)
			out["status"] = sd.Status
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// finish persists the final table and the action trace, then flips the spec
// to done; idempotent.
func (f *Frontend) finish(id string, sd *specDoc, ns *server.NetServer) {
	var rows [][]string
	var td traceDoc
	ns.WithCore(func(c *server.Core) {
		for _, row := range c.FinalTable() {
			rows = append(rows, vectorToStrings(row.Vec))
		}
		td.Trace = append(td.Trace, c.Trace()...)
		td.CCLog = append(td.CCLog, c.CCLog()...)
	})
	_ = f.store.Collection("results").Put(id, resultDoc{Rows: rows})
	_ = f.store.Collection("traces").Put(id, td)
	sd.Status = "done"
	_ = f.specs().Put(id, *sd)
	if sd.HITID != "" {
		_ = f.market.Expire(sd.HITID)
	}
}

func vectorToStrings(v model.Vector) []string {
	out := make([]string, len(v))
	for i, c := range v {
		if c.Set {
			out[i] = c.Val
		}
	}
	return out
}

func (f *Frontend) handleResult(w http.ResponseWriter, r *http.Request, id string, sd specDoc) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	var rd resultDoc
	if err := f.store.Collection("results").Get(id, &rd); err != nil {
		// Fall back to a live snapshot for running collections.
		f.mu.Lock()
		ns := f.running[id]
		f.mu.Unlock()
		if ns == nil {
			writeErr(w, http.StatusNotFound, errors.New("no result yet"))
			return
		}
		ns.WithCore(func(c *server.Core) {
			for _, row := range c.FinalTable() {
				rd.Rows = append(rd.Rows, vectorToStrings(row.Vec))
			}
		})
	}
	writeJSON(w, http.StatusOK, rd)
}

func (f *Frontend) handlePay(w http.ResponseWriter, r *http.Request, id string, sd specDoc) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	f.mu.Lock()
	ns := f.running[id]
	f.mu.Unlock()
	if ns == nil {
		writeErr(w, http.StatusConflict, errors.New("collection not running or already archived"))
		return
	}
	if !ns.Done() {
		writeErr(w, http.StatusConflict, errors.New("collection not finished"))
		return
	}
	var perWorker map[string]float64
	var payErr error
	ns.WithCore(func(c *server.Core) {
		alloc, err := c.ComputePay()
		if err != nil {
			payErr = err
			return
		}
		perWorker = alloc.PerWorker
	})
	if payErr != nil {
		writeErr(w, http.StatusInternalServerError, payErr)
		return
	}
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
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "status": "paid", "pay": perWorker})
}

// handleTrace serves the archived (or live) worker-action trace.
func (f *Frontend) handleTrace(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	var td traceDoc
	if err := f.store.Collection("traces").Get(id, &td); err != nil {
		f.mu.Lock()
		ns := f.running[id]
		f.mu.Unlock()
		if ns == nil {
			writeErr(w, http.StatusNotFound, errors.New("no trace yet"))
			return
		}
		ns.WithCore(func(c *server.Core) {
			td.Trace = append(td.Trace, c.Trace()...)
			td.CCLog = append(td.CCLog, c.CCLog()...)
		})
	}
	writeJSON(w, http.StatusOK, td)
}

// handleStatements renders per-worker pay statements (itemized §5.2
// allocations) for a finished collection.
func (f *Frontend) handleStatements(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	f.mu.Lock()
	ns := f.running[id]
	f.mu.Unlock()
	if ns == nil {
		writeErr(w, http.StatusConflict, errors.New("collection not running or already archived"))
		return
	}
	statements := map[string]string{}
	var serr error
	ns.WithCore(func(c *server.Core) {
		alloc, err := c.ComputePay()
		if err != nil {
			serr = err
			return
		}
		cols := make([]string, c.Master().Schema().NumColumns())
		for i, col := range c.Master().Schema().Columns {
			cols[i] = col.Name
		}
		for worker := range alloc.PerWorker {
			statements[worker] = alloc.FormatStatement(worker, c.Trace(), cols, c.StartTime())
		}
	})
	if serr != nil {
		writeErr(w, http.StatusInternalServerError, serr)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "statements": statements})
}

// handleWS upgrades worker connections for a running collection. Workers
// normally arrive by accepting the HIT; the worker query parameter carries
// the marketplace identity.
func (f *Frontend) handleWS(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/ws/")
	f.mu.Lock()
	ns := f.running[id]
	f.mu.Unlock()
	if ns == nil {
		writeErr(w, http.StatusNotFound, errors.New("no running collection"))
		return
	}
	ns.Handler().ServeHTTP(w, r)
}
