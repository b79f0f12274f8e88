package frontend

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"crowdfill/internal/docstore"
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
	var stale specDoc
	if err := f.specs().Get(id, &stale); err != nil || stale.Status != "draft" {
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
	var sd specDoc
	if err := f.specs().Get(id, &sd); err != nil || sd.Status != "running" {
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
	path := t.TempDir() + "/store.json"
	store, err := docstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	f := New(store, marketplace.New(1, 20, true), 5)
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

	store2, err := docstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(New(store2, marketplace.New(1, 20, true), 5).Handler())
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
