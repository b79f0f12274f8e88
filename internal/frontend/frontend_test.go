package frontend

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"crowdfill/internal/client"
	"crowdfill/internal/marketplace"
	"crowdfill/internal/metrics"
	"crowdfill/internal/server"
	"crowdfill/internal/spec"
	"crowdfill/internal/sync"
	"crowdfill/internal/transport"
	"crowdfill/internal/wsock"
)

func testFrontend(t *testing.T) (*Frontend, *httptest.Server) {
	t.Helper()
	market := marketplace.New(1, 20, true)
	f, err := New(t.TempDir(), market, 5)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	t.Cleanup(srv.Close)
	return f, srv
}

// AcceptWorker simulates a marketplace worker accepting the spec's HIT,
// returning the worker identity to connect with.
func (f *Frontend) AcceptWorker(id string) (string, error) {
	sd, err := f.readSpec(id)
	if err != nil {
		return "", err
	}
	if sd.HITID == "" {
		return "", errors.New("frontend: collection has no HIT")
	}
	return f.market.Accept(sd.HITID)
}

// Collection returns the running back-end server for a spec id (nil if not
// running).
func (f *Frontend) Collection(id string) *server.NetServer {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.running[id]
}

func doJSON(t *testing.T, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func kvSpec() spec.TableSpec {
	return spec.TableSpec{
		Name:        "KV",
		Columns:     []spec.ColumnSpec{{Name: "k"}, {Name: "v"}},
		Key:         []string{"k"},
		Scoring:     spec.ScoringSpec{Kind: "majority", K: 3},
		Cardinality: 2,
		Budget:      4,
		Scheme:      "uniform",
	}
}

func TestSpecCRUD(t *testing.T) {
	_, srv := testFrontend(t)
	// Create.
	code, out := doJSON(t, "POST", srv.URL+"/api/specs", kvSpec())
	if code != http.StatusCreated {
		t.Fatalf("create = %d %v", code, out)
	}
	id := out["id"].(string)

	// List.
	code, _ = doJSON(t, "GET", srv.URL+"/api/specs", nil)
	if code != http.StatusOK {
		t.Fatalf("list = %d", code)
	}
	// Fetch.
	code, out = doJSON(t, "GET", srv.URL+"/api/specs/"+id, nil)
	if code != http.StatusOK || out["status"] != "draft" {
		t.Fatalf("get = %d %v", code, out)
	}
	// Update.
	updated := kvSpec()
	updated.Budget = 6
	code, _ = doJSON(t, "PUT", srv.URL+"/api/specs/"+id, updated)
	if code != http.StatusOK {
		t.Fatalf("put = %d", code)
	}
	// Delete.
	code, _ = doJSON(t, "DELETE", srv.URL+"/api/specs/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("delete = %d", code)
	}
	code, _ = doJSON(t, "GET", srv.URL+"/api/specs/"+id, nil)
	if code != http.StatusNotFound {
		t.Fatalf("get after delete = %d", code)
	}
}

func TestSpecValidationRejected(t *testing.T) {
	_, srv := testFrontend(t)
	bad := kvSpec()
	bad.Columns = nil
	if code, _ := doJSON(t, "POST", srv.URL+"/api/specs", bad); code != http.StatusBadRequest {
		t.Fatalf("invalid spec accepted: %d", code)
	}
	if code, _ := doJSON(t, "GET", srv.URL+"/api/specs/ghost", nil); code != http.StatusNotFound {
		t.Fatalf("missing id = %d", code)
	}
	if code, _ := doJSON(t, "PATCH", srv.URL+"/api/specs", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("bad method = %d", code)
	}
}

// TestFullLifecycle drives spec → start → workers collect over WebSocket →
// status/result → pay, checking the marketplace's paid total at the end.
func TestFullLifecycle(t *testing.T) {
	f, srv := testFrontend(t)
	code, out := doJSON(t, "POST", srv.URL+"/api/specs", kvSpec())
	if code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	id := out["id"].(string)

	// Start publishes a HIT.
	code, out = doJSON(t, "POST", srv.URL+"/api/specs/"+id+"/start", nil)
	if code != http.StatusOK {
		t.Fatalf("start = %d %v", code, out)
	}
	wsPath := out["ws"].(string)
	// Starting twice conflicts.
	if code, _ := doJSON(t, "POST", srv.URL+"/api/specs/"+id+"/start", nil); code != http.StatusConflict {
		t.Fatalf("double start = %d", code)
	}

	collect(t, f, srv.URL, id, wsPath)

	// Status flips to done and archives the result.
	code, out = doJSON(t, "GET", srv.URL+"/api/specs/"+id+"/status", nil)
	if code != http.StatusOK || out["done"] != true {
		t.Fatalf("status = %d %v", code, out)
	}
	code, out = doJSON(t, "GET", srv.URL+"/api/specs/"+id+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("result = %d %v", code, out)
	}
	rows := out["rows"].([]any)
	if len(rows) != 2 {
		t.Fatalf("result rows = %v", rows)
	}

	// Pay distributes the budget via marketplace bonuses, which the
	// marketplace sums on its paid-total gauge.
	paid := metrics.Default().FloatGauge("crowdfill_mkt_paid_total", "")
	paidBefore := paid.Value()
	code, out = doJSON(t, "POST", srv.URL+"/api/specs/"+id+"/pay", nil)
	if code != http.StatusOK {
		t.Fatalf("pay = %d %v", code, out)
	}
	if got := paid.Value() - paidBefore; got <= 0 || got > 4.0001 {
		t.Fatalf("marketplace total paid = %v", got)
	}
}

// collect has two marketplace workers accept the started spec's HIT and
// finish its kvSpec table over WebSocket: worker 0 fills both rows, worker
// 1 upvotes them. It returns once both clients saw Done.
func collect(t *testing.T, f *Frontend, base, id, wsPath string) {
	t.Helper()
	cfg, err := kvSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	wsBase := "ws" + strings.TrimPrefix(base, "http") + wsPath
	var runners []*client.Runner
	for i := 0; i < 2; i++ {
		worker, err := f.AcceptWorker(id)
		if err != nil {
			t.Fatalf("AcceptWorker: %v", err)
		}
		ws, err := wsock.Dial(wsBase + "?worker=" + worker)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c, err := client.New(client.Config{ID: worker, Worker: worker, Schema: cfg.Schema})
		if err != nil {
			t.Fatal(err)
		}
		runners = append(runners, client.NewRunner(c, transport.WrapWS(ws)))
	}
	t.Cleanup(func() {
		for _, r := range runners {
			r.Close()
		}
	})

	// Worker 0 fills both rows; worker 1 upvotes them.
	fillAll := func(r *client.Runner, keys []string) {
		for _, key := range keys {
			key := key
			waitFor(t, func() bool {
				err := r.Do(func(c *client.Client) ([]sync.Message, error) {
					for _, row := range c.Rows(nil) {
						if row.Vec.IsEmpty() {
							return c.Fill(row.ID, 0, key)
						}
					}
					return nil, fmt.Errorf("no empty row yet")
				})
				return err == nil
			})
			waitFor(t, func() bool {
				err := r.Do(func(c *client.Client) ([]sync.Message, error) {
					for _, row := range c.Rows(nil) {
						if row.Vec[0].Set && row.Vec[0].Val == key && !row.Vec[1].Set {
							return c.Fill(row.ID, 1, "val-"+key)
						}
					}
					return nil, fmt.Errorf("row not found")
				})
				return err == nil
			})
		}
	}
	fillAll(runners[0], []string{"alpha", "bravo"})
	for _, key := range []string{"alpha", "bravo"} {
		key := key
		waitFor(t, func() bool {
			err := runners[1].Do(func(c *client.Client) ([]sync.Message, error) {
				for _, row := range c.Rows(nil) {
					if row.Vec.IsComplete() && row.Vec[0].Val == key && !c.VotedOn(row.Vec) {
						m, err := c.Upvote(row.ID)
						if err != nil {
							return nil, err
						}
						return []sync.Message{m}, nil
					}
				}
				return nil, fmt.Errorf("row not complete yet")
			})
			return err == nil
		})
	}
	waitFor(t, func() bool { return runners[0].Done() && runners[1].Done() })
}

// started creates a kvSpec spec and starts its collection, returning the
// spec id and the WebSocket path.
func started(t *testing.T, base string) (id, wsPath string) {
	t.Helper()
	code, out := doJSON(t, "POST", base+"/api/specs", kvSpec())
	if code != http.StatusCreated {
		t.Fatalf("create = %d %v", code, out)
	}
	id = out["id"].(string)
	code, out = doJSON(t, "POST", base+"/api/specs/"+id+"/start", nil)
	if code != http.StatusOK {
		t.Fatalf("start = %d %v", code, out)
	}
	return id, out["ws"].(string)
}

// TestPayBeforeStatus: paying a finished collection that no status poll has
// seen still archives it first, so /result keeps the whole final table, the
// spec reads paid, and a second pay is refused.
func TestPayBeforeStatus(t *testing.T) {
	f, srv := testFrontend(t)
	id, wsPath := started(t, srv.URL)
	collect(t, f, srv.URL, id, wsPath)

	code, out := doJSON(t, "POST", srv.URL+"/api/specs/"+id+"/pay", nil)
	if code != http.StatusOK {
		t.Fatalf("pay = %d %v", code, out)
	}
	code, out = doJSON(t, "GET", srv.URL+"/api/specs/"+id+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("result = %d %v", code, out)
	}
	if rows, _ := out["rows"].([]any); len(rows) != 2 {
		t.Fatalf("result after pay = %v, want both rows", out)
	}
	if _, out := doJSON(t, "GET", srv.URL+"/api/specs/"+id+"/status", nil); out["status"] != "paid" {
		t.Fatalf("status after pay = %v", out)
	}
	if code, _ := doJSON(t, "POST", srv.URL+"/api/specs/"+id+"/pay", nil); code != http.StatusConflict {
		t.Fatalf("second pay = %d", code)
	}
}

// TestFinishedCollectionPaysAfterRestart: a finished collection's log is
// archived, so a new front-end over the same store, with no back-end
// server for it, pays the collection's own amounts and renders its
// statements from the archive.
func TestFinishedCollectionPaysAfterRestart(t *testing.T) {
	dir := t.TempDir()
	f, err := New(dir, marketplace.New(1, 5, true), 5)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	id, wsPath := started(t, srv.URL)
	collect(t, f, srv.URL, id, wsPath)
	if _, out := doJSON(t, "GET", srv.URL+"/api/specs/"+id+"/status", nil); out["status"] != "done" {
		t.Fatalf("status = %v", out)
	}
	var live map[string]float64
	f.Collection(id).WithCore(func(c *server.Core) {
		alloc, err := c.ComputePay()
		if err != nil {
			t.Error(err)
			return
		}
		live = alloc.PerWorker
	})

	f2, err := New(dir, marketplace.New(1, 5, true), 5)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(f2.Handler())
	defer srv2.Close()
	code, out := doJSON(t, "GET", srv2.URL+"/api/specs/"+id+"/statements", nil)
	if code != http.StatusOK {
		t.Fatalf("statements after restart = %d %v", code, out)
	}
	statements, _ := out["statements"].(map[string]any)
	code, out = doJSON(t, "POST", srv2.URL+"/api/specs/"+id+"/pay", nil)
	if code != http.StatusOK {
		t.Fatalf("pay after restart = %d %v", code, out)
	}
	paid, _ := out["pay"].(map[string]any)
	if len(live) != 2 || len(paid) != len(live) {
		t.Fatalf("paid %v after restart, live core pays %v", paid, live)
	}
	for w, want := range live {
		if got, _ := paid[w].(float64); math.Abs(got-want) > 1e-9 {
			t.Errorf("paid %s %v after restart, live core pays %v", w, got, want)
		}
		if st, _ := statements[w].(string); !strings.Contains(st, "total") {
			t.Errorf("statement for %s after restart = %q", w, st)
		}
	}
}

func TestResultBeforeStart(t *testing.T) {
	_, srv := testFrontend(t)
	code, out := doJSON(t, "POST", srv.URL+"/api/specs", kvSpec())
	if code != http.StatusCreated {
		t.Fatal(code)
	}
	id := out["id"].(string)
	if code, _ := doJSON(t, "GET", srv.URL+"/api/specs/"+id+"/result", nil); code != http.StatusNotFound {
		t.Fatalf("result before start = %d", code)
	}
	if code, _ := doJSON(t, "POST", srv.URL+"/api/specs/"+id+"/pay", nil); code != http.StatusConflict {
		t.Fatalf("pay before start = %d", code)
	}
	// WS endpoint 404s for unknown collections.
	resp, err := http.Get(srv.URL + "/ws/ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ws ghost = %d", resp.StatusCode)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition not reached in time")
}

// TestSpecsPersistAcrossRestart: specs and archived results live in the
// document store, so a new front-end over the same file sees them.
func TestSpecsPersistAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	market := marketplace.New(1, 5, true)
	f, err := New(dir, market, 5)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	code, out := doJSON(t, "POST", srv.URL+"/api/specs", kvSpec())
	if code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	id := out["id"].(string)
	runningID, wsPath := started(t, srv.URL)
	srv.Close()

	f2, err := New(dir, marketplace.New(1, 5, true), 5)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(f2.Handler())
	defer srv2.Close()
	code, out = doJSON(t, "GET", srv2.URL+"/api/specs/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("get after restart = %d %v", code, out)
	}
	if out["status"] != "draft" {
		t.Fatalf("status after restart = %v", out["status"])
	}

	// A spec that was running lost its collection with the process: the
	// spec, its status and the spec list read interrupted, the store holds
	// it so, and it can be deleted.
	if code, out := doJSON(t, "GET", srv2.URL+"/api/specs/"+runningID, nil); code != http.StatusOK || out["status"] != "interrupted" {
		t.Fatalf("running spec after restart = %d %v, want interrupted", code, out)
	}
	if code, out := doJSON(t, "GET", srv2.URL+"/api/specs/"+runningID+"/status", nil); code != http.StatusOK || out["status"] != "interrupted" {
		t.Fatalf("status of the running spec after restart = %d %v, want interrupted", code, out)
	}
	resp, err := http.Get(srv2.URL + "/api/specs")
	if err != nil {
		t.Fatal(err)
	}
	var list []map[string]any
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	statuses := map[any]any{}
	for _, s := range list {
		statuses[s["id"]] = s["status"]
	}
	if statuses[id] != "draft" || statuses[runningID] != "interrupted" {
		t.Fatalf("spec list after restart = %v, want %s draft and %s interrupted", list, id, runningID)
	}
	if sd, err := f2.readSpec(runningID); err != nil || sd.Status != "interrupted" {
		t.Fatalf("stored spec after restart = %+v, %v; want interrupted", sd, err)
	}
	if resp, err := http.Get(srv2.URL + wsPath + "?worker=w1"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("socket of the interrupted spec = %v, %v; want 404", resp, err)
	} else {
		resp.Body.Close()
	}
	if code, out := doJSON(t, "DELETE", srv2.URL+"/api/specs/"+runningID, nil); code != http.StatusOK {
		t.Fatalf("delete interrupted spec = %d %v", code, out)
	}
}

func TestSpecCRUDEdgeCases(t *testing.T) {
	f, srv := testFrontend(t)
	code, out := doJSON(t, "POST", srv.URL+"/api/specs", kvSpec())
	if code != http.StatusCreated {
		t.Fatal(code)
	}
	id := out["id"].(string)

	// Invalid update payloads rejected.
	if code, _ := doJSON(t, "PUT", srv.URL+"/api/specs/"+id, "not-a-spec"); code != http.StatusBadRequest {
		t.Fatalf("bad put = %d", code)
	}
	bad := kvSpec()
	bad.Columns = nil
	if code, _ := doJSON(t, "PUT", srv.URL+"/api/specs/"+id, bad); code != http.StatusBadRequest {
		t.Fatalf("invalid put = %d", code)
	}
	// Wrong methods on the CRUD endpoint.
	if code, _ := doJSON(t, "POST", srv.URL+"/api/specs/"+id, nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("post on id = %d", code)
	}
	// Unknown action.
	if code, _ := doJSON(t, "GET", srv.URL+"/api/specs/"+id+"/frobnicate", nil); code != http.StatusNotFound {
		t.Fatalf("unknown action = %d", code)
	}
	// Wrong methods on the action endpoints.
	if code, _ := doJSON(t, "GET", srv.URL+"/api/specs/"+id+"/start", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET start = %d", code)
	}
	if code, _ := doJSON(t, "POST", srv.URL+"/api/specs/"+id+"/status", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d", code)
	}
	if code, _ := doJSON(t, "POST", srv.URL+"/api/specs/"+id+"/result", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST result = %d", code)
	}
	if code, _ := doJSON(t, "GET", srv.URL+"/api/specs/"+id+"/pay", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET pay = %d", code)
	}
	// Missing id segment.
	if code, _ := doJSON(t, "GET", srv.URL+"/api/specs/", nil); code != http.StatusNotFound {
		t.Fatalf("empty id = %d", code)
	}
	// AcceptWorker before start fails.
	if _, err := f.AcceptWorker(id); err == nil {
		t.Fatalf("accept before start should fail")
	}
	if _, err := f.AcceptWorker("ghost"); err == nil {
		t.Fatalf("accept on missing spec should fail")
	}
	// Collection handle is nil before start.
	if f.Collection(id) != nil {
		t.Fatalf("collection before start should be nil")
	}

	// Start, then: delete running conflicts, update running conflicts,
	// live-result path works, pay-before-done conflicts.
	if code, _ := doJSON(t, "POST", srv.URL+"/api/specs/"+id+"/start", nil); code != http.StatusOK {
		t.Fatalf("start failed")
	}
	if f.Collection(id) == nil {
		t.Fatalf("collection after start should exist")
	}
	if code, _ := doJSON(t, "DELETE", srv.URL+"/api/specs/"+id, nil); code != http.StatusConflict {
		t.Fatalf("delete running = %d", code)
	}
	if code, _ := doJSON(t, "PUT", srv.URL+"/api/specs/"+id, kvSpec()); code != http.StatusConflict {
		t.Fatalf("update running = %d", code)
	}
	code, out = doJSON(t, "GET", srv.URL+"/api/specs/"+id+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("live result = %d %v", code, out)
	}
	if code, _ := doJSON(t, "POST", srv.URL+"/api/specs/"+id+"/pay", nil); code != http.StatusConflict {
		t.Fatalf("pay before done = %d", code)
	}
	// Default maxWorkers path in New.
	f2, err := New(t.TempDir(), marketplace.New(2, 3, true), 0)
	if err != nil {
		t.Fatal(err)
	}
	if f2.maxWorkers != 10 {
		t.Fatalf("default maxWorkers = %d", f2.maxWorkers)
	}
}

// TestTraceEndpoint: the §3.3 bookkeeping trace is available live and stays
// archived after completion.
func TestTraceEndpoint(t *testing.T) {
	f, srv := testFrontend(t)
	code, out := doJSON(t, "POST", srv.URL+"/api/specs", kvSpec())
	if code != http.StatusCreated {
		t.Fatal(code)
	}
	id := out["id"].(string)
	if code, _ := doJSON(t, "GET", srv.URL+"/api/specs/"+id+"/trace", nil); code != http.StatusNotFound {
		t.Fatalf("trace before start = %d", code)
	}
	if code, _ := doJSON(t, "POST", srv.URL+"/api/specs/"+id+"/start", nil); code != http.StatusOK {
		t.Fatal("start failed")
	}
	// Live trace: CC seeding appears even before workers act.
	code, out = doJSON(t, "GET", srv.URL+"/api/specs/"+id+"/trace", nil)
	if code != http.StatusOK {
		t.Fatalf("live trace = %d %v", code, out)
	}
	if cc, ok := out["ccLog"].([]any); !ok || len(cc) == 0 {
		t.Fatalf("cc log missing: %v", out)
	}
	// A worker acts; the trace grows.
	worker, err := f.AcceptWorker(id)
	if err != nil {
		t.Fatal(err)
	}
	ns := f.Collection(id)
	serverSide, clientSide := transport.Pipe(64)
	go ns.ServeConn(serverSide, worker)
	cfg, _ := kvSpec().Build()
	cl, err := client.New(client.Config{ID: worker, Worker: worker, Schema: cfg.Schema})
	if err != nil {
		t.Fatal(err)
	}
	run := client.NewRunner(cl, clientSide)
	defer run.Close()
	waitFor(t, func() bool {
		ok := false
		run.View(func(c *client.Client) { ok = len(c.Rows(nil)) == 2 })
		return ok
	})
	if err := run.Do(func(c *client.Client) ([]sync.Message, error) {
		return c.Fill(c.Rows(nil)[0].ID, 0, "x")
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		_, out := doJSON(t, "GET", srv.URL+"/api/specs/"+id+"/trace", nil)
		tr, _ := out["trace"].([]any)
		return len(tr) >= 1
	})
}

func TestStatementsEndpoint(t *testing.T) {
	f, srv := testFrontend(t)
	// Default (u−d) scoring: a completed row is final from its auto-upvote,
	// so the fill contributes (and appears on the statement) immediately.
	ks := kvSpec()
	ks.Scoring = spec.ScoringSpec{}
	code, out := doJSON(t, "POST", srv.URL+"/api/specs", ks)
	if code != http.StatusCreated {
		t.Fatal(code)
	}
	id := out["id"].(string)
	if code, _ := doJSON(t, "GET", srv.URL+"/api/specs/"+id+"/statements", nil); code != http.StatusConflict {
		t.Fatalf("statements before start = %d", code)
	}
	if code, _ := doJSON(t, "POST", srv.URL+"/api/specs/"+id+"/start", nil); code != http.StatusOK {
		t.Fatal("start failed")
	}
	// One worker contributes a fill so a statement exists.
	worker, err := f.AcceptWorker(id)
	if err != nil {
		t.Fatal(err)
	}
	ns := f.Collection(id)
	serverSide, clientSide := transport.Pipe(64)
	go ns.ServeConn(serverSide, worker)
	cfg, _ := ks.Build()
	cl, _ := client.New(client.Config{ID: worker, Worker: worker, Schema: cfg.Schema})
	run := client.NewRunner(cl, clientSide)
	defer run.Close()
	waitFor(t, func() bool {
		ok := false
		run.View(func(c *client.Client) { ok = len(c.Rows(nil)) == 2 })
		return ok
	})
	if err := run.Do(func(c *client.Client) ([]sync.Message, error) {
		return c.Fill(c.Rows(nil)[0].ID, 0, "x")
	}); err != nil {
		t.Fatal(err)
	}
	if err := run.Do(func(c *client.Client) ([]sync.Message, error) {
		for _, row := range c.Rows(nil) {
			if row.Vec[0].Set && !row.Vec[1].Set {
				return c.Fill(row.ID, 1, "1")
			}
		}
		return nil, fmt.Errorf("not ready")
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		code, out := doJSON(t, "GET", srv.URL+"/api/specs/"+id+"/statements", nil)
		if code != http.StatusOK {
			return false
		}
		sts, _ := out["statements"].(map[string]any)
		s, _ := sts[worker].(string)
		return strings.Contains(s, "fill k") && strings.Contains(s, "total")
	})
}
