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
	"slices"
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

// liveResult is the result of a collection's core as it stands.
func liveResult(c *server.Core) resultDoc {
	return resultDoc{Rows: c.ResultRows(), Final: c.Status()}
}

// Flight-recorder events of a lifecycle step: a store write that failed, so
// the step did not happen; and a bonus the marketplace refused after the
// payment was recorded, which is not paid again.
const (
	evStoreWrite = "store-write"
	evBonus      = "bonus"
)

// Frontend is the front-end server state.
type Frontend struct {
	// mu serializes the lifecycle steps (step), which read and write the
	// store, start collections (whose instruments live in the flight
	// recorder) and read a finished collection's core while holding it.
	// The steps' own bodies also publish HITs and pay bonuses under it
	// (Marketplace.mu); they run as function values, which the lock
	// analyzer's call graph does not follow.
	//
	//lint:before Recorder.mu NetServer.mu
	mu gosync.Mutex
	// dir holds one directory per collection, named by its spec id.
	dir string
	// lastID numbers the last spec id handed out; guarded by mu.
	lastID int
	market *marketplace.Marketplace
	// running holds each collection started here until archive has stored
	// it at Done, which releases its server and core. An entry outlives Done
	// only when its archive failed, and the next step retries it. Guarded
	// by mu.
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
	f.interruptOrphans(ids)
	return f, nil
}

// interruptOrphans flips every spec stored as running to interrupted. No
// NetServer backs such a spec in this process, so left running its status
// would never change, its socket would answer 404 and DELETE would refuse
// it. A failed write is recorded and leaves the file running: this process
// serves the spec so, and the next start-up flips it again.
func (f *Frontend) interruptOrphans(ids []string) {
	for _, id := range ids {
		f.step(id, "interrupt", []string{"running"}, func(sd *specDoc) (int, any, error) {
			sd.Status = "interrupted"
			return http.StatusOK, nil, f.writeSpec(id, *sd)
		})
	}
}

// Handler returns the REST API plus the per-collection WebSocket endpoints:
//
//	POST   /api/specs            create a table specification
//	GET    /api/specs            list specifications
//	GET    /api/specs/{id}       fetch one
//	PUT    /api/specs/{id}       update a draft
//	DELETE /api/specs/{id}       delete a spec whose collection is not running
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
	mux.HandleFunc("GET /api/specs/{id}", f.withSpec(f.handleGet))
	mux.HandleFunc("PUT /api/specs/{id}", f.handleUpdate)
	mux.HandleFunc("DELETE /api/specs/{id}", f.handleDelete)
	mux.HandleFunc("POST /api/specs/{id}/start", f.handleStart)
	mux.HandleFunc("GET /api/specs/{id}/status", f.withSpec(f.handleStatus))
	mux.HandleFunc("GET /api/specs/{id}/result", f.withSpec(f.handleResult))
	mux.HandleFunc("GET /api/specs/{id}/trace", f.withSpec(f.handleTrace))
	mux.HandleFunc("GET /api/specs/{id}/statements", f.withSpec(f.handleStatements))
	mux.HandleFunc("POST /api/specs/{id}/pay", f.handlePay)
	mux.HandleFunc("GET /ws/{id}", f.handleWS)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func errBody(err error) map[string]string { return map[string]string{"error": err.Error()} }

func writeErr(w http.ResponseWriter, status int, err error) { writeJSON(w, status, errBody(err)) }

// server returns the back-end server id has in this process, or nil.
func (f *Frontend) server(id string) *server.NetServer {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.running[id]
}

// decodeSpec reads a table specification from r's body and checks that it
// builds.
func decodeSpec(r *http.Request) (spec.TableSpec, error) {
	var ts spec.TableSpec
	if err := json.NewDecoder(r.Body).Decode(&ts); err != nil {
		return ts, err
	}
	_, err := ts.Build()
	return ts, err
}

func (f *Frontend) handleCreate(w http.ResponseWriter, r *http.Request) {
	ts, err := decodeSpec(r)
	if err != nil {
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

// step runs one lifecycle step of spec id under f.mu and returns the answer.
// It re-reads the spec, answering 404 if it is missing. A spec that reads
// running while its collection here is done (the Done callback has not run
// yet, or its archive failed) is archived first. A status not in from
// answers 409; any other runs do on the spec, which returns the answer or
// the error of a failed store write. That error is recorded as one
// store-write event for id and answered 500.
func (f *Frontend) step(id, verb string, from []string, do func(*specDoc) (int, any, error)) (int, any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sd, err := f.readSpec(id)
	if err != nil {
		return http.StatusNotFound, errBody(err)
	}
	if ns := f.running[id]; ns != nil && sd.Status == "running" && ns.Done() {
		err = f.archive(id, &sd, ns)
	}
	code, body := http.StatusConflict, any(errBody(fmt.Errorf("spec is %s", sd.Status)))
	if err == nil && slices.Contains(from, sd.Status) {
		code, body, err = do(&sd)
	}
	if err != nil {
		metrics.DefaultRecorder().Record(evStoreWrite, id, verb+": "+err.Error())
		return http.StatusInternalServerError, errBody(err)
	}
	return code, body
}

func (f *Frontend) handleUpdate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ts, err := decodeSpec(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	code, body := f.step(id, "update", []string{"draft"}, func(sd *specDoc) (int, any, error) {
		sd.Spec = ts
		return http.StatusOK, map[string]string{"id": id, "status": sd.Status}, f.writeSpec(id, *sd)
	})
	writeJSON(w, code, body)
}

// handleDelete deletes a spec whose collection does not run; nothing stops
// a running one.
func (f *Frontend) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	code, body := f.step(id, "delete", []string{"draft", "interrupted", "done", "paid"}, func(*specDoc) (int, any, error) {
		return http.StatusOK, map[string]string{"id": id, "status": "deleted"}, f.deleteSpec(id)
	})
	writeJSON(w, code, body)
}

func (f *Frontend) handleStart(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	code, body := f.step(id, "start", []string{"draft"}, func(sd *specDoc) (int, any, error) {
		cfg, err := sd.Spec.Build()
		var core *server.Core
		if err == nil {
			core, err = server.New(cfg)
		}
		if err != nil {
			return http.StatusBadRequest, errBody(err), nil
		}
		wsPath := "/ws/" + id
		hit, err := f.market.CreateHIT("CrowdFill: "+sd.Spec.Name, wsPath, f.maxWorkers)
		if err != nil {
			return http.StatusInternalServerError, errBody(err), nil
		}
		sd.Status, sd.HITID = "running", hit.ID
		if err := f.writeSpec(id, *sd); err != nil {
			_ = f.market.Expire(hit.ID)
			return 0, nil, err
		}
		f.running[id] = server.NewNetServer(core, func() { f.finished(id, hit.ID) })
		return http.StatusOK, map[string]string{"id": id, "status": "running", "hit": hit.ID, "ws": wsPath}, nil
	})
	writeJSON(w, code, body)
}

// finished is the front-end's part of collection id's Done transition, run
// before any worker hears MsgDone. It expires the HIT (start made it, so
// Expire cannot fail): the collection takes no more work. Then it runs a
// step, which archives the collection before it finds the spec done and
// has nothing left to do. A request whose step archived the collection
// first leaves this one nothing to write; a failed archive is recorded
// once and retried by the next step.
func (f *Frontend) finished(id, hitID string) {
	_ = f.market.Expire(hitID)
	f.step(id, "done", []string{"done"}, func(*specDoc) (int, any, error) { return http.StatusOK, nil, nil })
}

// archive stores collection id, finished in this process, from its core:
// the log, then the result, then the spec as done, so a spec that reads
// done has both on disk. Then it drops the collection from running, which
// releases its shut-down server and core. A failed write leaves the spec
// running and the entry in place. The caller holds f.mu.
func (f *Frontend) archive(id string, sd *specDoc, ns *server.NetServer) error {
	var log replay.Log
	var rd resultDoc
	ns.WithCore(func(c *server.Core) { log, rd = c.Log(), liveResult(c) })
	dir := f.collDir(id)
	err := writeRecord(dir, logFile, log)
	if err == nil {
		err = writeRecord(dir, resultFile, rd)
	}
	if err == nil {
		sd.Status = "done"
		err = f.writeSpec(id, *sd)
	}
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	delete(f.running, id)
	return nil
}

// handlePay pays a finished collection once: the amounts come from
// replaying its archived log under its spec, so a collection archived
// before a restart still pays. The result with the amounts and the spec as
// paid are written before any bonus is paid, so a failed write pays nothing
// and a retry pays once. A bonus the marketplace refuses after that answers
// 500, is recorded, and is not paid again (DESIGN.md §18).
func (f *Frontend) handlePay(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	code, body := f.step(id, "pay", []string{"done"}, func(sd *specDoc) (int, any, error) {
		dir := f.collDir(id)
		var log replay.Log
		var rd resultDoc
		err := errors.Join(readRecord(dir, logFile, &log), readRecord(dir, resultFile, &rd))
		var audit *replay.Audit
		if err == nil {
			audit, err = spec.Audit(sd.Spec, log)
		}
		if err != nil {
			return http.StatusInternalServerError, errBody(err), nil
		}
		rd.Pay = audit.Alloc.PerWorker
		if err := writeRecord(dir, resultFile, rd); err != nil {
			return 0, nil, err
		}
		sd.Status = "paid"
		if err := f.writeSpec(id, *sd); err != nil {
			return 0, nil, err
		}
		for worker, amount := range rd.Pay {
			if amount <= 0 {
				continue
			}
			// Workers may have been recruited out-of-band (the paper's own
			// experiments did exactly that) rather than through a HIT.
			f.market.Register(worker)
			if err := f.market.PayBonus(worker, amount, "CrowdFill "+id); err != nil {
				metrics.DefaultRecorder().Record(evBonus, id, worker+": "+err.Error())
				return http.StatusInternalServerError, errBody(err), nil
			}
		}
		return http.StatusOK, map[string]any{"id": id, "status": "paid", "pay": rd.Pay}, nil
	})
	writeJSON(w, code, body)
}

// withSpec serves a read of /api/specs/{id}[/...] with the spec the path
// names, or answers 404, and the back-end server the collection has in this
// process, if any. It looks the server up before it reads the spec: archive
// writes the spec done before it drops the server, so a collection that
// finishes meanwhile is read from its archive.
func (f *Frontend) withSpec(h func(w http.ResponseWriter, id string, sd specDoc, ns *server.NetServer)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		ns := f.server(id)
		sd, err := f.readSpec(id)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		h(w, id, sd, ns)
	}
}

// record reads the collection's record name: its file once the spec reads
// archived, else live(core) of its server ns. It returns nil for a
// collection with neither, which never started or was interrupted.
func record[T any](f *Frontend, id string, sd specDoc, ns *server.NetServer, name string, live func(*server.Core) T) (*T, error) {
	v := new(T)
	switch {
	case sd.archived():
		return v, readRecord(f.collDir(id), name, v)
	case ns != nil:
		ns.WithCore(func(c *server.Core) { *v = live(c) })
		return v, nil
	}
	return nil, nil
}

func (f *Frontend) handleGet(w http.ResponseWriter, id string, sd specDoc, _ *server.NetServer) {
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "spec": sd.Spec, "status": sd.Status})
}

// handleStatus reports a collection's progress: from its archive once it
// is done, also after a restart, and live while it runs.
func (f *Frontend) handleStatus(w http.ResponseWriter, id string, sd specDoc, ns *server.NetServer) {
	rd, err := record(f, id, sd, ns, resultFile, liveResult)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	out := struct {
		ID string `json:"id"`
		*server.Status
		State string `json:"status"`
	}{ID: id, State: sd.Status}
	if rd != nil {
		out.Status = &rd.Final
	}
	writeJSON(w, http.StatusOK, out)
}

// handleResult serves the archived result, or a running collection's live
// table and status.
func (f *Frontend) handleResult(w http.ResponseWriter, id string, sd specDoc, ns *server.NetServer) {
	rd, err := record(f, id, sd, ns, resultFile, liveResult)
	serveRecord(w, rd, err, http.StatusNotFound, "no result yet")
}

// handleTrace serves the archived (or live) bookkeeping log.
func (f *Frontend) handleTrace(w http.ResponseWriter, id string, sd specDoc, ns *server.NetServer) {
	log, err := record(f, id, sd, ns, logFile, (*server.Core).Log)
	serveRecord(w, log, err, http.StatusNotFound, "collection not started")
}

// serveRecord answers v, a read error with 500, or a collection with no
// record with notStarted.
func serveRecord[T any](w http.ResponseWriter, v *T, err error, notStarted int, why string) {
	switch {
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err)
	case v == nil:
		writeErr(w, notStarted, errors.New(why))
	default:
		writeJSON(w, http.StatusOK, v)
	}
}

// handleStatements renders per-worker pay statements (itemized §5.2
// allocations) by replaying the archived log, or the live one while the
// collection runs.
func (f *Frontend) handleStatements(w http.ResponseWriter, id string, sd specDoc, ns *server.NetServer) {
	log, err := record(f, id, sd, ns, logFile, (*server.Core).Log)
	if err != nil || log == nil {
		serveRecord(w, log, err, http.StatusConflict, "collection not started")
		return
	}
	audit, err := spec.Audit(sd.Spec, *log)
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
