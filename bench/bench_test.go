package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"crowdfill/internal/netpoll"
)

// These tests assert correctness and metric presence only — never a timing
// value.

// TestSupports pins the "at least ten samples beyond it" rule a tail
// percentile must meet before a run reports it.
func TestSupports(t *testing.T) {
	cases := []struct {
		n, pct, beyond int
		want           bool
	}{
		{n: 1000, pct: 99, beyond: 10, want: true}, // exactly 10 samples beyond p99
		{n: 999, pct: 99, beyond: 10, want: false},
		{n: 100, pct: 90, beyond: 10, want: true},
		{n: 99, pct: 90, beyond: 10, want: false},
		{n: 100, pct: 99, beyond: 1, want: true}, // the smoke scale's rule
		{n: 0, pct: 99, beyond: 1, want: false},
	}
	for _, c := range cases {
		if got := supports(c.n, c.pct, c.beyond); got != c.want {
			t.Errorf("supports(%d, %d, %d) = %v, want %v", c.n, c.pct, c.beyond, got, c.want)
		}
	}
	if _, _, err := roundStats(make([]int64, 2999), []int{2000, 2999}, 99, 10); err == nil {
		t.Error("a round of 999 samples reported a p99")
	}
}

// TestRoundStats: the run reports the median round, so a slow spell that
// covers less than half of the rounds does not move it.
func TestRoundStats(t *testing.T) {
	var samples []int64
	var ends []int
	for _, level := range []int64{100, 900, 110, 120, 800} { // two of five rounds hit a spell
		for i := range 1000 {
			samples = append(samples, level+int64(i%10))
		}
		ends = append(ends, len(samples))
	}
	p50, p99, err := roundStats(samples, ends, 99, 10)
	if err != nil {
		t.Fatal(err)
	}
	if p50 != 124.5 || p99 != 129 {
		t.Errorf("roundStats = p50 %v, p99 %v; want the median round's (level 120: 124.5, 129)", p50, p99)
	}
	if _, _, err := roundStats(nil, nil, 99, 10); err == nil {
		t.Error("no rounds reported a value")
	}
}

func TestSummarize(t *testing.T) {
	samples := make([]int64, 2000)
	for i := range samples {
		samples[i] = int64(2000 - i) // 2000..1, unsorted
	}
	d := summarize(samples, 0.99)
	if d.N != 2000 {
		t.Fatalf("summarize: N=%d", d.N)
	}
	if d.P50 != 1000.5 {
		t.Errorf("P50 = %v, want 1000.5", d.P50)
	}
	if d.Tail < 1980 || d.Tail > 1981 {
		t.Errorf("p99 = %v, want ≈1980", d.Tail)
	}
	if got := summarize(nil, 0.99); got.N != 0 || got.P50 != 0 {
		t.Errorf("summarize(nil) = %+v, want zeroes", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},   // overlaps a: counted once
		{Name: "c", Start: 90, End: 120, Parent: 0},  // clipped to the parent
		{Name: "a1", Start: 12, End: 18, Parent: 1},  // grandchild: a's, not op's
		{Name: "d", Start: 200, End: 210, Parent: 0}, // outside the parent: covers nothing
	}
	want := []int64{
		100 - (40 + 10), // [10,50] ∪ [90,100]
		20 - 6,
		30,
		30,
		6,
		10,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestLateness(t *testing.T) {
	var l lateness
	l.add(1000, 900)  // spun up to the slot: on time, never early
	l.add(1000, 1000) // on the dot
	l.add(1000, 1750)
	want := []int64{0, 0, 750}
	for i := range want {
		if l.samples[i] != want[i] {
			t.Errorf("lateness sample %d = %d, want %d", i, l.samples[i], want[i])
		}
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	gen := func(seed int64) *script {
		t.Helper()
		sc, err := genScript(paper5Config(seed), nil)
		if err != nil {
			t.Fatalf("genScript(seed %d): %v", seed, err)
		}
		return sc
	}
	a, again, b := gen(3), gen(3), gen(4)
	if a.hash != again.hash {
		t.Errorf("same seed, different scripts: %s vs %s", a.hash, again.hash)
	}
	if a.hash == b.hash {
		t.Errorf("different seeds, same script %s", a.hash)
	}
	if a.reference == "" || len(a.ops) == 0 || len(a.cum) != len(a.ops) {
		t.Errorf("script incomplete: %d ops, %d epoch targets", len(a.ops), len(a.cum))
	}

	table, err := table200Config(3, smokeScale.table)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := genScript(table, []float64{0.5, 0.9})
	if err != nil {
		t.Fatalf("table script: %v", err)
	}
	if len(ts.lateAfter) != 2 || ts.lateAfter[0] >= ts.lateAfter[1] || ts.lateAfter[1] >= len(ts.ops) {
		t.Errorf("late-join marks %v out of order for %d ops", ts.lateAfter, len(ts.ops))
	}

	f, fAgain, g := genFanInputs(3), genFanInputs(3), genFanInputs(4)
	if f.hash != fAgain.hash || f.hash == g.hash {
		t.Errorf("fan-out schedules do not follow the seed: %s %s %s", f.hash, fAgain.hash, g.hash)
	}
}

// ungatedOn lists, per workload, the ungated end-to-end metrics defined on it.
var ungatedOn = map[string][]string{
	"paper5":   {"deliver_p99_us", "join_p50_us", "collection_p50_ms"},
	"table200": {"deliver_p99_us", "join_p50_us", "collection_p50_ms"},
	"fanout64": {"deliver_p99_us", "sat_ops_per_s"},
	"burst64":  {"deliver_p99_us", "burst_drain_p50_us", "burst_drain_p90_us"},
}

// TestSmoke is the end-to-end run of all four workloads at tiny counts:
// every pass must verify its own output and report every metric of its
// list.
func TestSmoke(t *testing.T) {
	if !netpoll.OSSupported() {
		t.Skip("the traced pass's probe needs the readiness poller")
	}
	st, err := newStack()
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	outDir := t.TempDir()
	for _, wd := range workloads {
		w, err := newWorkload(wd.Name, st, smokeScale)
		if err != nil {
			t.Fatal(err)
		}
		out, err := runUntraced(w, 5, 150*time.Millisecond, smokeScale)
		if err != nil {
			t.Fatalf("%s: %v", wd.Name, err)
		}
		if len(out.failures) > 0 {
			t.Errorf("%s: output verification failed: %v", wd.Name, out.failures)
		}
		if out.attempted < 1 {
			t.Errorf("%s: nothing attempted", wd.Name)
		}
		for _, m := range endToEnd {
			if out.values[m.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", wd.Name, m.Name, out.values[m.Name])
			}
		}
		for _, name := range ungatedOn[wd.Name] {
			if out.values[name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", wd.Name, name, out.values[name])
			}
		}
		if out.values["fail_ratio"] != 0 {
			t.Errorf("%s: fail_ratio = %v, want 0", wd.Name, out.values["fail_ratio"])
		}

		w, err = newWorkload(wd.Name, st, smokeScale)
		if err != nil {
			t.Fatal(err)
		}
		led, err := runTraced(w, 5, 300*time.Millisecond, outDir)
		if err != nil {
			t.Fatalf("%s traced: %v", wd.Name, err)
		}
		if len(led.failures) > 0 {
			t.Errorf("%s traced: output verification failed: %v", wd.Name, led.failures)
		}
		// Every name is reported (0 where a metric does not apply to the
		// workload); the ones every workload has must be there for real.
		if got := led.result(perLayer).Metrics; len(got) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics reported, want %d", wd.Name, len(got), len(perLayer))
		}
		for _, name := range append([]string{"sync.decode_ns_per_msg", "wsock.write_ns_per_frame", "netpoll.dispatch_p50_us",
			"server.core_handle_p50_us", "server.residence_p50_us", "server.flush_batch_mean", "client.build_ns_per_op"}, ungatedOn[wd.Name]...) {
			if led.values[name] <= 0 {
				t.Errorf("%s: per-layer metric %s = %v, want > 0", wd.Name, name, led.values[name])
			}
		}
		// The ledger closes by construction: stages + unattributed = deliver.
		var sum float64
		for _, name := range []string{"client.build_ns_per_op", "transport.send_ns_per_msg"} {
			sum += led.values[name] / 1e3
		}
		sum += led.values["server.residence_p50_us"] + led.values["transport.recv_p50_us"] + led.values["client.apply_p50_us"]
		if diff := sum + led.values["gen.unattributed_p50_us"] - led.values["gen.traced_deliver_p50_us"]; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("%s: ledger does not close: stages %v + unattributed %v != deliver %v",
				wd.Name, sum, led.values["gen.unattributed_p50_us"], led.values["gen.traced_deliver_p50_us"])
		}
		if _, err := os.Stat(outDir + "/" + wd.Name + ".trace.json"); err != nil {
			t.Errorf("%s: no trace file: %v", wd.Name, err)
		}
	}
}

// TestBenchmarkJSON holds the committed BENCHMARK.json to the metric tables.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, want %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(workloads) || len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the tables have %d, %d and %d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if got := doc.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d = %+v, want %+v", i, got, w)
		}
	}
	for i, m := range endToEnd {
		if got := doc.EndToEnd[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end_to_end %d = %+v, want %+v", i, got, m)
		}
	}
	for i, m := range perLayer {
		if got := doc.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per_layer %d = %+v, want %+v", i, got, m)
		}
	}
}
