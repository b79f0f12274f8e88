package crowdfill

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"crowdfill/internal/pay"
)

func kvSpec() Spec {
	return Spec{
		Name:        "KV",
		Columns:     []Column{{Name: "k"}, {Name: "v"}},
		Key:         []string{"k"},
		Scoring:     Scoring{Kind: "majority", K: 3},
		Cardinality: 2,
		Budget:      4,
		Scheme:      "uniform",
	}
}

// waitFor polls cond for up to 10 seconds.
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

// fillRow has a worker claim an empty row and complete it with key/value.
func fillRow(t *testing.T, w *Worker, key, val string) {
	t.Helper()
	waitFor(t, func() bool {
		for _, r := range w.Rows() {
			if r.Cells[0] == "" && r.Cells[1] == "" {
				if err := w.Fill(r.ID, "k", key); err == nil {
					return true
				}
			}
		}
		return false
	})
	waitFor(t, func() bool {
		for _, r := range w.Rows() {
			if r.Cells[0] == key && r.Cells[1] == "" {
				if err := w.Fill(r.ID, "v", val); err == nil {
					return true
				}
			}
		}
		return false
	})
}

func TestCollectionInProcess(t *testing.T) {
	coll, err := NewCollection(kvSpec())
	if err != nil {
		t.Fatalf("NewCollection: %v", err)
	}
	defer coll.Close()
	if got := coll.Columns(); len(got) != 2 || got[0] != "k" {
		t.Fatalf("Columns = %v", got)
	}

	alice, err := coll.Connect("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := coll.Connect("bob")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(alice.Rows()) == 2 })

	fillRow(t, alice, "x", "1")
	fillRow(t, alice, "y", "2")

	// Bob upvotes both complete rows.
	for _, key := range []string{"x", "y"} {
		key := key
		waitFor(t, func() bool {
			for _, r := range bob.Rows() {
				if r.Complete && r.Cells[0] == key {
					if err := bob.Upvote(r.ID); err == nil {
						return true
					}
				}
			}
			return false
		})
	}
	waitFor(t, func() bool { return coll.Done() && alice.Done() && bob.Done() })

	st := coll.Status()
	if !st.Done || st.FinalRows != 2 {
		t.Fatalf("Status = %+v", st)
	}
	rows := coll.Result()
	if len(rows) != 2 {
		t.Fatalf("Result = %v", rows)
	}
	pay, err := coll.ComputePay()
	if err != nil {
		t.Fatalf("ComputePay: %v", err)
	}
	if pay["alice"] <= 0 || pay["bob"] <= 0 {
		t.Fatalf("pay = %v", pay)
	}
	total := pay["alice"] + pay["bob"]
	if total > 4.0001 {
		t.Fatalf("total pay %v exceeds budget", total)
	}
	// Estimates were broadcast.
	if _, _, _, ok := alice.Estimates(); !ok {
		t.Fatalf("alice never received estimates")
	}
}

// TestWorkerEstimatesIsACopy: the figures Worker.Estimates returns belong to
// the caller. The client overwrites its own copy in place when a later
// estimate arrives, and a slice returned before that must not change.
func TestWorkerEstimatesIsACopy(t *testing.T) {
	spec := kvSpec()
	spec.Scheme = "column-weighted" // a fill moves the per-column figures
	coll, err := NewCollection(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	alice, err := coll.Connect("alice")
	if err != nil {
		t.Fatal(err)
	}
	var first []float64
	waitFor(t, func() bool {
		var ok bool
		first, _, _, ok = alice.Estimates()
		return ok && len(first) == 2
	})
	kept := append([]float64(nil), first...)
	fillRow(t, alice, "x", "1")
	waitFor(t, func() bool {
		now, _, _, _ := alice.Estimates()
		return !slices.Equal(now, kept)
	})
	if !slices.Equal(first, kept) {
		t.Fatalf("a later estimate changed an earlier Estimates result: %v, want %v", first, kept)
	}
}

func TestCollectionValidatesSpec(t *testing.T) {
	bad := kvSpec()
	bad.Columns = nil
	if _, err := NewCollection(bad); err == nil {
		t.Fatalf("invalid spec should fail")
	}
}

func TestConnectValidatesWorker(t *testing.T) {
	coll, err := NewCollection(kvSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	if _, err := coll.Connect(""); err == nil {
		t.Fatalf("empty worker id should fail")
	}
}

func TestWorkerDownvote(t *testing.T) {
	coll, err := NewCollection(kvSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	alice, _ := coll.Connect("alice")
	bob, _ := coll.Connect("bob")
	waitFor(t, func() bool { return len(alice.Rows()) == 2 })
	fillRow(t, alice, "junk", "0")
	waitFor(t, func() bool {
		for _, r := range bob.Rows() {
			if r.Complete && r.Cells[0] == "junk" {
				if err := bob.Downvote(r.ID); err == nil {
					return true
				}
			}
		}
		return false
	})
	waitFor(t, func() bool {
		for _, r := range alice.Rows() {
			if r.Cells[0] == "junk" && r.Down >= 1 {
				return true
			}
		}
		return false
	})
}

func TestSimulatePaper(t *testing.T) {
	res, err := SimulatePaper(1)
	if err != nil {
		t.Fatalf("SimulatePaper: %v", err)
	}
	if !res.Done || res.FinalRows != 20 {
		t.Fatalf("paper sim = %s", ResultSummary(res))
	}
	if s := ResultSummary(res); !strings.Contains(s, "rows=20") {
		t.Fatalf("summary = %q", s)
	}
}

func TestSimulateCustomSpec(t *testing.T) {
	res, err := Simulate(SimOptions{
		Spec: Spec{
			Name:        "Gadget",
			Columns:     []Column{{Name: "id"}, {Name: "kind", Domain: []string{"a", "b"}}},
			Key:         []string{"id"},
			Scoring:     Scoring{Kind: "majority", K: 3},
			Cardinality: 5,
			Budget:      5,
			Scheme:      "column-weighted",
		},
		TruthRows: 60,
		Seed:      3,
	})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if !res.Done {
		t.Fatalf("custom sim did not converge: %s", ResultSummary(res))
	}
	if res.FinalRows < 5 {
		t.Fatalf("final rows = %d", res.FinalRows)
	}
}

// TestSimulateKeepsSplitFactors: Simulate runs the spec's §5.2.3 split
// factors, so its pay is pay.Compute's with those factors over the run's own
// trace, not the default split's.
func TestSimulateKeepsSplitFactors(t *testing.T) {
	s := Spec{
		Name:        "Gadget",
		Columns:     []Column{{Name: "id"}, {Name: "kind", Domain: []string{"a", "b"}}},
		Key:         []string{"id"},
		Scoring:     Scoring{Kind: "majority", K: 3},
		Cardinality: 5,
		Budget:      5,
		Scheme:      "dual-weighted",
		SplitKey:    0.9,
		SplitNonKey: 0.9,
	}
	res, err := Simulate(SimOptions{Spec: s, TruthRows: 60, Seed: 3})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	core, log := res.Core, res.Core.Log()
	in := pay.Input{
		Schema:   core.Master().Schema(),
		Budget:   s.Budget,
		Scheme:   pay.DualWeighted,
		Final:    core.FinalTable(),
		Trace:    log.Trace,
		CCLog:    log.CCLog,
		JoinTime: log.JoinTime,
		Start:    log.Start,
	}
	def, err := pay.Compute(in)
	if err != nil {
		t.Fatal(err)
	}
	in.SplitKey, in.SplitNonKey = 0.9, 0.9
	split, err := pay.Compute(in)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for w, want := range split.PerWorker {
		if got := res.Audit.Alloc.PerWorker[w]; math.Abs(got-want) > 1e-9 {
			t.Errorf("Simulate paid %s %v, pay.Compute with split 0.9/0.9 %v", w, got, want)
		}
		differs = differs || math.Abs(def.PerWorker[w]-want) > 1e-6
	}
	if len(res.Audit.Alloc.PerWorker) != len(split.PerWorker) || !differs {
		t.Fatalf("split pay %v, default pay %v: the factors must change the allocation",
			split.PerWorker, def.PerWorker)
	}
}

func TestSchemeName(t *testing.T) {
	if got, err := SchemeName("dual"); err != nil || got != "dual-weighted" {
		t.Fatalf("SchemeName = %q, %v", got, err)
	}
	if _, err := SchemeName("lottery"); err == nil {
		t.Fatalf("bad scheme should fail")
	}
}
