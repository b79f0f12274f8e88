package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	gosync "sync"
	"testing"
	"time"

	"crowdfill/internal/client"
	"crowdfill/internal/metrics"
	"crowdfill/internal/sync"
	"crowdfill/internal/transport"
	"crowdfill/internal/wsock"
)

// counterValue extracts one counter from a snapshot (0 when absent).
func counterValue(s metrics.Snapshot, name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// histogramCount extracts one histogram's observation count (0 when absent).
func histogramCount(s metrics.Snapshot, name string) uint64 {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h.Count
		}
	}
	return 0
}

// TestObservabilityEndToEnd drives a live NetServer with one real WebSocket
// worker and one injected slow client, then scrapes the debug endpoints and
// asserts the whole observability plane lit up: publish and latency
// counters, wire-level byte counters, a cause-labeled drop for the evicted
// slow client, and the matching flight-recorder event. With
// CROWDFILL_DEBUG_SNAPSHOT set to a directory, the scraped artifacts are
// written there (the CI debug-snapshot artifact).
func TestObservabilityEndToEnd(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := metrics.NewRecorder(128)
	m := NewMetrics(reg, rec)

	s := kvSchema(t)
	cfg := cardinalityConfig(t, 50)
	cfg.Metrics = m
	cfg.LogCapacity = 16 // tiny log so the stalled client laps out quickly
	core, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ns := NewNetServer(core, quietLogf(t))
	defer ns.Shutdown()
	hsrv := httptest.NewServer(ns.Handler())
	defer hsrv.Close()
	wsURL := "ws" + strings.TrimPrefix(hsrv.URL, "http")

	// The slow client: a buffer-1 pipe the test side never reads. Its join
	// snapshot fills the buffer, the flusher blocks on the next send, the
	// cursor laps out as the good client's traffic wraps the log, and the
	// publisher-side evictor closes the transport.
	slowNear, slowFar := transport.Pipe(1)
	defer slowNear.Close()
	go ns.ServeConn(slowFar, "slow")

	// The good client: a real WebSocket worker filling keys, which generates
	// the publish traffic that wraps the log.
	ws, err := wsock.Dial(wsURL + "?worker=good")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := client.New(client.Config{ID: "good", Worker: "good", Schema: s})
	if err != nil {
		t.Fatal(err)
	}
	runner := client.NewRunner(cl, transport.WrapWS(ws))
	defer runner.Close()

	keys := []string{
		"k01", "k02", "k03", "k04", "k05", "k06", "k07", "k08", "k09", "k10",
		"k11", "k12", "k13", "k14", "k15", "k16", "k17", "k18", "k19", "k20",
		"k21", "k22", "k23", "k24", "k25", "k26", "k27", "k28", "k29", "k30",
	}
	fillDeadline := time.Now().Add(20 * time.Second)
	for len(keys) > 0 {
		if time.Now().After(fillDeadline) {
			t.Fatalf("could not place all keys; %d left", len(keys))
		}
		err := runner.Do(func(c *client.Client) ([]sync.Message, error) {
			for _, row := range c.Rows(nil) {
				if row.Vec.IsEmpty() {
					msgs, ferr := c.Fill(row.ID, 0, keys[0])
					if ferr == nil {
						keys = keys[1:]
						return msgs, nil
					}
				}
			}
			return nil, nil // snapshot not applied yet; retry
		})
		if err != nil {
			t.Fatalf("runner.Do: %v", err)
		}
		// Pace the traffic so the good client's pump never falls a full log
		// behind — only the stalled pipe client may lag out.
		time.Sleep(time.Millisecond)
	}

	// The slow client must be dropped for cursor lag — and only lag: the
	// evictor closed its transport, so the flusher's send failure is the
	// symptom and must be re-attributed (the single-noter invariant).
	deadline := time.Now().Add(10 * time.Second)
	for m.drops[dropLag].Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slow client was not dropped for cursor lag; drops = %+v", snapshotDrops(m))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := m.drops[dropSendError].Value(); got != 0 {
		t.Fatalf("send-error drops = %d, want 0 (evictor-closed transport must be attributed to lag)", got)
	}
	var evictEv *metrics.Event
	for _, ev := range rec.Events() {
		if ev.Kind == metrics.EvEvictLag {
			evictEv = &ev
			break
		}
	}
	if evictEv == nil {
		t.Fatalf("no %s event in flight recorder; events = %+v", metrics.EvEvictLag, rec.Events())
	}
	if !strings.HasPrefix(evictEv.Actor, "net-") {
		t.Fatalf("evict event actor = %q, want a net-* client id", evictEv.Actor)
	}

	// Scrape the debug endpoints exactly as an operator would.
	dsrv := httptest.NewServer(metrics.Handler(reg, rec))
	defer dsrv.Close()

	promText := httpGet(t, dsrv.URL+"/debug/metrics")
	for _, series := range []string{
		"crowdfill_bcast_publish_total",
		"crowdfill_bcast_publish_ns_count",
		"crowdfill_ws_bytes_in_total",
		"crowdfill_ws_bytes_out_total",
		`crowdfill_client_drops_total{cause="cursor-lag"}`,
	} {
		if !strings.Contains(promText, series) {
			t.Fatalf("prometheus exposition missing %s:\n%s", series, promText)
		}
	}

	snapJSON := httpGet(t, dsrv.URL+"/debug/metrics.json")
	var snap metrics.Snapshot
	if err := json.Unmarshal([]byte(snapJSON), &snap); err != nil {
		t.Fatalf("metrics.json: %v", err)
	}
	for _, name := range []string{
		"crowdfill_bcast_publish_total",
		"crowdfill_bcast_records_total",
		"crowdfill_ws_frames_in_total",
		"crowdfill_ws_bytes_in_total",
		"crowdfill_ws_bytes_out_total",
		"crowdfill_flush_sends_total",
		`crowdfill_core_msgs_total{type="replace"}`,
	} {
		if counterValue(snap, name) == 0 {
			t.Fatalf("counter %s is zero after traffic; snapshot:\n%s", name, snapJSON)
		}
	}
	for _, name := range []string{
		"crowdfill_bcast_publish_ns",
		"crowdfill_flush_batch_records",
		"crowdfill_repair_ns",
	} {
		if histogramCount(snap, name) == 0 {
			t.Fatalf("histogram %s has no observations after traffic", name)
		}
	}

	eventsJSON := httpGet(t, dsrv.URL+"/debug/events")
	var dump struct {
		Total  uint64          `json:"total"`
		Events []metrics.Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(eventsJSON), &dump); err != nil {
		t.Fatalf("events dump: %v", err)
	}
	if dump.Total == 0 || len(dump.Events) == 0 {
		t.Fatalf("events dump empty: %s", eventsJSON)
	}
	found := false
	for _, ev := range dump.Events {
		if ev.Kind == metrics.EvEvictLag {
			found = true
		}
	}
	if !found {
		t.Fatalf("events dump has no %s event: %s", metrics.EvEvictLag, eventsJSON)
	}

	if dir := os.Getenv("CROWDFILL_DEBUG_SNAPSHOT"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatalf("snapshot dir: %v", err)
		}
		for name, data := range map[string]string{
			"metrics.prom": promText,
			"metrics.json": snapJSON,
			"events.json":  eventsJSON,
		} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
				t.Fatalf("snapshot write: %v", err)
			}
		}
		t.Logf("debug snapshot written to %s", dir)
	}
}

// snapshotDrops summarizes the drop counters for failure messages.
func snapshotDrops(m *Metrics) map[string]uint64 {
	out := make(map[string]uint64, len(m.drops))
	for dc, c := range m.drops {
		out[dropCause(dc).String()] = c.Value()
	}
	return out
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	return string(data)
}

// TestRejectCountedNotDropped feeds the server a message type clients may
// not send and asserts it lands in the reject counter and the flight
// recorder without tearing the connection down.
func TestRejectCountedNotDropped(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := metrics.NewRecorder(16)
	cfg := cardinalityConfig(t, 4)
	cfg.Metrics = NewMetrics(reg, rec)
	core, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ns := NewNetServer(core, nil)
	defer ns.Shutdown()

	near, far := transport.Pipe(64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ns.ServeConn(far, "w1")
	}()
	// Drain the join snapshot so the flusher never blocks on us.
	var drainWG gosync.WaitGroup
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
		for {
			if _, err := near.Recv(); err != nil {
				return
			}
		}
	}()

	if err := near.Send(sync.Message{Type: sync.MsgSnapshot}); err != nil {
		t.Fatal(err)
	}
	m := cfg.Metrics
	deadline := time.Now().Add(5 * time.Second)
	for m.drops[dropReject].Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("reject was not counted")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The connection survives a reject: a valid message still round-trips.
	if err := near.Send(sync.Message{Type: sync.MsgInsert, Row: "w1-1"}); err != nil {
		t.Fatalf("connection dead after reject: %v", err)
	}
	foundReject := false
	for _, ev := range rec.Events() {
		if ev.Kind == metrics.EvReject {
			foundReject = true
		}
	}
	if !foundReject {
		t.Fatalf("no %s event recorded", metrics.EvReject)
	}
	near.Close()
	<-done
	drainWG.Wait()

	if got := m.drops[dropLag].Value() + m.drops[dropSendError].Value() + m.drops[dropWriteDeadline].Value(); got != 0 {
		t.Fatalf("teardown of a healthy connection was counted as a drop: %+v", snapshotDrops(m))
	}
}

// TestCompletionProgressSeries: the completion-progress series answer "how
// far is this collection from done" — final rows against active template
// rows — and say how the per-message completion checks were answered. A
// finished collection reports final ≥ template rows and at least one full
// check (the one that found it done); the vote messages that moved no
// final-table winner must have been answered without one. The repair-scope
// series say how much of the template each planner Repair looked at — every
// row at construction, none for a vote that leaves the matched rows probable —
// and that no template row is left waiting behind a planned insert.
func TestCompletionProgressSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := cardinalityConfig(t, 3)
	cfg.Metrics = NewMetrics(reg, metrics.NewRecorder(16))
	r := newRig(t, cfg)
	c1, c2 := r.join("c1", "w1"), r.join("c2", "w2")
	for i, row := range c1.Rows(nil) {
		key := string(rune('a' + i))
		msgs, err := c1.Fill(row.ID, 0, key)
		if err != nil {
			t.Fatal(err)
		}
		r.send("c1", msgs...)
		if msgs, err = c1.Fill(msgs[0].NewRow, 1, "val"+key); err != nil {
			t.Fatal(err)
		}
		r.send("c1", msgs...)
	}
	dirtyTemplates := func() (repairs uint64, templates int64) {
		for _, h := range reg.Snapshot().Histograms {
			if h.Name == "crowdfill_repair_dirty_templates" {
				return h.Count, h.Sum
			}
		}
		t.Fatal("histogram crowdfill_repair_dirty_templates not registered")
		return 0, 0
	}
	filledRepairs, filledTemplates := dirtyTemplates()
	if filledRepairs != uint64(r.core.RepairStats().Repairs) || filledTemplates < 3 {
		t.Fatalf("dirty-template histogram: %d repairs over %d templates, want one observation per Repair call (%d) and the 3 rows construction re-validates",
			filledRepairs, filledTemplates, r.core.RepairStats().Repairs)
	}
	for _, row := range c2.Rows(nil) {
		m, err := c2.Upvote(row.ID)
		if err != nil {
			t.Fatal(err)
		}
		r.send("c2", m)
	}
	if !r.core.Done() {
		t.Fatal("collection should have finished")
	}
	// The upvotes kept every matched row probable: one Repair each, all of
	// them finding nothing dirty.
	if repairs, templates := dirtyTemplates(); repairs != filledRepairs+3 || templates != filledTemplates {
		t.Fatalf("three upvotes: %d more repairs re-validating %d more templates, want 3 and 0",
			repairs-filledRepairs, templates-filledTemplates)
	}

	snap := reg.Snapshot()
	gauge := func(name string) int64 {
		for _, g := range snap.Gauges {
			if g.Name == name {
				return g.Value
			}
		}
		t.Fatalf("gauge %s not registered", name)
		return 0
	}
	final, tmpl := gauge("crowdfill_core_final_rows"), gauge("crowdfill_core_template_rows")
	if tmpl != 3 || final < tmpl {
		t.Fatalf("final rows %d, template rows %d: want 3 template rows and final >= template", final, tmpl)
	}
	if n := gauge("crowdfill_core_unmatched_templates"); n != 0 {
		t.Fatalf("%d template rows left behind a planned insert after the repair loop settled, want 0", n)
	}
	checks := func(outcome string) uint64 {
		return counterValue(snap, `crowdfill_core_done_checks_total{outcome="`+outcome+`"}`)
	}
	if checks("full") == 0 {
		t.Fatalf("a finished collection needs at least one full check")
	}
	if checks("unchanged") == 0 || checks("short") == 0 {
		t.Fatalf("checks unchanged=%d short=%d: fills that moved no winner and winners short of |T| should not run the matching",
			checks("unchanged"), checks("short"))
	}
	// One check per handled message plus the one in New.
	if got, want := checks("unchanged")+checks("short")+checks("full"), uint64(len(r.core.Trace())+1); got != want {
		t.Fatalf("completion checks = %d, want %d", got, want)
	}
}

// TestMetricsObserversAllocFree holds the metrics plane to what lets it sit
// on the serving paths: with a live *Metrics, one round of every
// //lint:hotpath observer allocates nothing.
func TestMetricsObserversAllocFree(t *testing.T) {
	m := NewMetrics(metrics.NewRegistry(), metrics.NewRecorder(16))
	start := time.Now()
	allocs := testing.AllocsPerRun(100, func() {
		m.publishDone(start, 3, 42)
		m.flushDone(3, 7)
		m.poolSized(64, 8)
		m.queueDelta(1)
		m.evictScanned()
		m.msgHandled(sync.MsgUpvote)
		m.repairScoped(1, 0)
		m.doneChecked(doneCheckShort, 10, 20)
		m.PollRegistered(64)
		m.PollWakeup(4)
		m.PollQueueDelta(-1)
		m.PollDispatch()
	})
	if allocs != 0 {
		t.Fatalf("hot-path observers allocate %.0f times per round, want 0", allocs)
	}
}
