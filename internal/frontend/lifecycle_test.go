package frontend

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	gosync "sync"
	"testing"

	"crowdfill/internal/marketplace"
	"crowdfill/internal/metrics"
)

// TestStaleSpecTransitionsConflict: a start and an update that read the spec
// while it was a draft, and reach their handlers after another request
// started it, both answer 409. The collection keeps its one HIT and its one
// back-end server, and the spec stays running.
func TestStaleSpecTransitionsConflict(t *testing.T) {
	f, srv := testFrontend(t)
	code, out := doJSON(t, "POST", srv.URL+"/api/specs", kvSpec())
	if code != http.StatusCreated {
		t.Fatalf("create = %d %v", code, out)
	}
	id := out["id"].(string)
	stale, err := f.readSpec(id)
	if err != nil || stale.Status != "draft" {
		t.Fatalf("spec before start = %+v, %v", stale, err)
	}
	hits := metrics.Default().Counter("crowdfill_mkt_hits_total", "")
	before := hits.Value()
	if code, out := doJSON(t, "POST", srv.URL+"/api/specs/"+id+"/start", nil); code != http.StatusOK {
		t.Fatalf("start = %d %v", code, out)
	}

	w := httptest.NewRecorder()
	f.handleStart(w, httptest.NewRequest("POST", "/api/specs/"+id+"/start", nil), id, stale)
	if w.Code != http.StatusConflict {
		t.Errorf("start from a stale draft = %d %s, want 409", w.Code, w.Body)
	}
	body, err := json.Marshal(kvSpec())
	if err != nil {
		t.Fatal(err)
	}
	w = httptest.NewRecorder()
	f.handleSpecCRUD(w, httptest.NewRequest("PUT", "/api/specs/"+id, bytes.NewReader(body)), id, stale)
	if w.Code != http.StatusConflict {
		t.Errorf("update from a stale draft = %d %s, want 409", w.Code, w.Body)
	}

	if n := hits.Value() - before; n != 1 {
		t.Errorf("%d HITs published, want 1", n)
	}
	f.mu.Lock()
	servers := len(f.running)
	f.mu.Unlock()
	if servers != 1 {
		t.Errorf("%d back-end servers, want 1", servers)
	}
	if sd, err := f.readSpec(id); err != nil || sd.Status != "running" {
		t.Errorf("spec after the stale transitions = %+v, %v; want running", sd, err)
	}
}

// TestFinishedCollectionsReleaseResources finishes three collections. Each
// one's Done transition archives it and shuts its back-end server down, so
// afterwards the process holds as many goroutines and poller registrations
// as before the first started; every finished spec's status still reports
// its final counts, also from a front-end restarted over the same store;
// and its worker socket answers 404.
func TestFinishedCollectionsReleaseResources(t *testing.T) {
	dir := t.TempDir()
	f, err := New(dir, marketplace.New(1, 20, true), 5)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	pollConns := metrics.Default().Gauge("crowdfill_poll_conns", "")
	// Idle keep-alive connections of the test's own client hold goroutines.
	settle := http.DefaultClient.CloseIdleConnections
	settle()
	goroutines, polled := runtime.NumGoroutine(), pollConns.Value()

	var ids, sockets []string
	for i := 0; i < 3; i++ {
		id, wsPath := started(t, srv.URL)
		collect(t, f, srv.URL, id, wsPath)
		ids, sockets = append(ids, id), append(sockets, wsPath)
	}
	waitFor(t, func() bool {
		settle()
		return runtime.NumGoroutine() <= goroutines && pollConns.Value() == polled
	})

	f2, err := New(dir, marketplace.New(1, 20, true), 5)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(f2.Handler())
	defer srv2.Close()
	for i, id := range ids {
		for _, base := range []string{srv.URL, srv2.URL} {
			code, out := doJSON(t, "GET", base+"/api/specs/"+id+"/status", nil)
			if msgs, _ := out["messages"].(float64); code != http.StatusOK || out["status"] != "done" ||
				out["done"] != true || out["finalRows"] != 2.0 || msgs < 6 {
				t.Errorf("status of finished %s = %d %v", id, code, out)
			}
		}
		resp, err := http.Get(srv.URL + sockets[i] + "?worker=late")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("socket of finished %s = %d, want 404", id, resp.StatusCode)
		}
	}
}

// lifecycleFrontend serves a front-end over the store in dir, with a
// marketplace pool large enough for every collection the table finishes.
func lifecycleFrontend(t *testing.T, dir string) (*Frontend, *httptest.Server) {
	t.Helper()
	f, err := New(dir, marketplace.New(1, 100, true), 5)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	t.Cleanup(srv.Close)
	return f, srv
}

// lifecycleVerb sends one verb of the REST API, or a worker's WebSocket
// upgrade, to spec id and returns the HTTP code.
func lifecycleVerb(t *testing.T, base, verb, id string) int {
	t.Helper()
	var req *http.Request
	var err error
	switch verb {
	case "GET", "DELETE":
		req, err = http.NewRequest(verb, base+"/api/specs/"+id, nil)
	case "PUT":
		body, _ := json.Marshal(kvSpec())
		req, err = http.NewRequest(verb, base+"/api/specs/"+id, bytes.NewReader(body))
	case "start", "pay":
		req, err = http.NewRequest("POST", base+"/api/specs/"+id+"/"+verb, nil)
	case "status", "result", "trace", "statements":
		req, err = http.NewRequest("GET", base+"/api/specs/"+id+"/"+verb, nil)
	case "ws":
		req, err = http.NewRequest("GET", base+"/ws/"+id+"?worker=table", nil)
		if err == nil {
			req.Header.Set("Connection", "Upgrade")
			req.Header.Set("Upgrade", "websocket")
			req.Header.Set("Sec-WebSocket-Key", "dGhlIHNhbXBsZSBub25jZQ==")
			req.Header.Set("Sec-WebSocket-Version", "13")
		}
	default:
		t.Fatalf("unknown verb %q", verb)
	}
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestSpecLifecycleTable sends every verb to a spec in every status and
// checks the HTTP code. Each cell acts on a spec of its own. Interrupted
// specs were started by a front-end that a second one over the same store
// replaced; every other spec lives in the second.
func TestSpecLifecycleTable(t *testing.T) {
	verbs := []string{"GET", "PUT", "DELETE", "start", "status", "result", "trace", "statements", "pay", "ws"}
	testCases := []struct {
		status string
		want   map[string]int
	}{
		{
			status: "draft",
			want: map[string]int{"GET": 200, "PUT": 200, "DELETE": 200, "start": 200, "status": 200,
				"result": 404, "trace": 404, "statements": 409, "pay": 409, "ws": 404},
		},
		{
			status: "running",
			want: map[string]int{"GET": 200, "PUT": 409, "DELETE": 409, "start": 409, "status": 200,
				"result": 200, "trace": 200, "statements": 200, "pay": 409, "ws": 101},
		},
		{
			status: "interrupted",
			want: map[string]int{"GET": 200, "PUT": 409, "DELETE": 200, "start": 409, "status": 200,
				"result": 404, "trace": 404, "statements": 409, "pay": 409, "ws": 404},
		},
		{
			status: "done",
			want: map[string]int{"GET": 200, "PUT": 409, "DELETE": 200, "start": 409, "status": 200,
				"result": 200, "trace": 200, "statements": 200, "pay": 200, "ws": 404},
		},
		{
			status: "paid",
			want: map[string]int{"GET": 200, "PUT": 409, "DELETE": 200, "start": 409, "status": 200,
				"result": 200, "trace": 200, "statements": 200, "pay": 409, "ws": 404},
		},
	}

	dir := t.TempDir()
	_, before := lifecycleFrontend(t, dir)
	interrupted := map[string]string{}
	for _, verb := range verbs {
		interrupted[verb], _ = started(t, before.URL)
	}
	before.Close()

	f, srv := lifecycleFrontend(t, dir)
	for _, tc := range testCases {
		for _, verb := range verbs {
			t.Run(tc.status+"/"+verb, func(t *testing.T) {
				var id string
				switch tc.status {
				case "draft":
					code, out := doJSON(t, "POST", srv.URL+"/api/specs", kvSpec())
					if code != http.StatusCreated {
						t.Fatalf("create = %d %v", code, out)
					}
					id = out["id"].(string)
				case "interrupted":
					id = interrupted[verb]
				default:
					var wsPath string
					id, wsPath = started(t, srv.URL)
					if tc.status != "running" {
						collect(t, f, srv.URL, id, wsPath)
					}
					if tc.status == "paid" {
						if code, out := doJSON(t, "POST", srv.URL+"/api/specs/"+id+"/pay", nil); code != http.StatusOK {
							t.Fatalf("pay = %d %v", code, out)
						}
					}
				}
				if _, out := doJSON(t, "GET", srv.URL+"/api/specs/"+id, nil); out["status"] != tc.status {
					t.Fatalf("spec %s reads %v, want %s", id, out["status"], tc.status)
				}
				if got := lifecycleVerb(t, srv.URL, verb, id); got != tc.want[verb] {
					t.Errorf("%s on a %s spec = %d, want %d", verb, tc.status, got, tc.want[verb])
				}
			})
		}
	}
}

// blockRecord makes path a non-empty directory, so a record written there
// fails: creating it as a file and renaming a file over it both fail, also
// for root.
func blockRecord(t *testing.T, path string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(path, "block"), 0o755); err != nil {
		t.Fatal(err)
	}
}

// storeWriteEvents counts the process flight recorder's failed-write events
// for id, which every test's store hands out.
func storeWriteEvents(id string) int {
	n := 0
	for _, ev := range metrics.DefaultRecorder().Events() {
		if ev.Kind == evStoreWrite && ev.Actor == id {
			n++
		}
	}
	return n
}

// TestDoneWithFailedWrite: a collection whose log cannot be written at Done
// is not marked done. Its spec reads running in this process and
// interrupted after a restart, it cannot be paid, its HIT takes no more
// workers, and the flight recorder holds the failure once.
func TestDoneWithFailedWrite(t *testing.T) {
	dir := t.TempDir()
	f, srv := lifecycleFrontend(t, dir)
	id, wsPath := started(t, srv.URL)
	blockRecord(t, filepath.Join(dir, id, logFile))
	events := storeWriteEvents(id)
	collect(t, f, srv.URL, id, wsPath)

	if _, out := doJSON(t, "GET", srv.URL+"/api/specs/"+id, nil); out["status"] != "running" {
		t.Errorf("spec after a failed archive = %v, want running", out["status"])
	}
	if code, out := doJSON(t, "POST", srv.URL+"/api/specs/"+id+"/pay", nil); code != http.StatusConflict {
		t.Errorf("pay after a failed archive = %d %v, want 409", code, out)
	}
	if _, err := f.AcceptWorker(id); !errors.Is(err, marketplace.ErrHITExpired) {
		t.Errorf("accepting the HIT after Done = %v, want it expired", err)
	}
	if n := storeWriteEvents(id) - events; n != 1 {
		t.Errorf("%d failed-write events for %s, want 1", n, id)
	}

	_, srv2 := lifecycleFrontend(t, dir)
	if _, out := doJSON(t, "GET", srv2.URL+"/api/specs/"+id, nil); out["status"] != "interrupted" {
		t.Errorf("spec after a restart = %v, want interrupted", out["status"])
	}
}

// TestPayWithFailedWrite: a payment whose result cannot be written answers
// 500, leaves the spec done, and the flight recorder holds the failure once.
func TestPayWithFailedWrite(t *testing.T) {
	dir := t.TempDir()
	f, srv := lifecycleFrontend(t, dir)
	id, wsPath := started(t, srv.URL)
	collect(t, f, srv.URL, id, wsPath)
	// The result is rewritten through its temp file, so blocking that
	// fails the write and leaves the archived result readable.
	blockRecord(t, filepath.Join(dir, id, resultFile+".tmp"))
	events := storeWriteEvents(id)

	if code, out := doJSON(t, "POST", srv.URL+"/api/specs/"+id+"/pay", nil); code != http.StatusInternalServerError {
		t.Errorf("pay with a failed write = %d %v, want 500", code, out)
	}
	if _, out := doJSON(t, "GET", srv.URL+"/api/specs/"+id, nil); out["status"] != "done" {
		t.Errorf("spec after a failed pay = %v, want done", out["status"])
	}
	if n := storeWriteEvents(id) - events; n != 1 {
		t.Errorf("%d failed-write events for %s, want 1", n, id)
	}
}

// TestSpecIDsNeverReused: concurrent creates get an id each, and deleting
// the newest spec does not free its id, in the same process or after a
// restart over the same store.
func TestSpecIDsNeverReused(t *testing.T) {
	dir := t.TempDir()
	_, srv := lifecycleFrontend(t, dir)
	body, err := json.Marshal(kvSpec())
	if err != nil {
		t.Fatal(err)
	}
	concurrent := make([]string, 8)
	var wg gosync.WaitGroup
	for i := range concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/api/specs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var out map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Error(err)
			}
			concurrent[i] = out["id"]
		}()
	}
	wg.Wait()
	taken := map[string]bool{}
	for _, id := range concurrent {
		if id == "" || taken[id] {
			t.Fatalf("concurrent creates got ids %v", concurrent)
		}
		taken[id] = true
	}
	createAndDelete := func(base string) {
		t.Helper()
		code, out := doJSON(t, "POST", base+"/api/specs", kvSpec())
		if code != http.StatusCreated {
			t.Fatalf("create = %d %v", code, out)
		}
		id := out["id"].(string)
		if taken[id] {
			t.Fatalf("id %s handed out twice", id)
		}
		taken[id] = true
		if code, out := doJSON(t, "DELETE", base+"/api/specs/"+id, nil); code != http.StatusOK {
			t.Fatalf("delete = %d %v", code, out)
		}
	}
	createAndDelete(srv.URL)
	createAndDelete(srv.URL)
	_, srv2 := lifecycleFrontend(t, dir)
	createAndDelete(srv2.URL)
}
