package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	gosync "sync"
	"testing"
	"time"

	"crowdfill/internal/constraint"
	"crowdfill/internal/crowd"
	"crowdfill/internal/sync"
)

// tableShapeConfig is a test-local copy of the repository benchmark's
// table200 configuration (bench/script.go, which tests here cannot import):
// the representative crowd on a larger truth with a values/predicates
// template — templateRows rows drawn from the truth by the seed (`=` on
// position or nationality, `>=` on caps or goals), padded to the cardinality.
func tableShapeConfig(tb testing.TB, seed int64, truthRows, templateRows, cardinality int) SimConfig {
	tb.Helper()
	cfg := RepresentativeConfig(seed)
	truth := crowd.SoccerPlayers(seed, truthRows)
	cfg.Truth = truth
	rng := rand.New(rand.NewSource(seed ^ 0x7ab1e200))
	perm := rng.Perm(len(truth.Rows))
	const position, nationality, caps, goals = 2, 1, 3, 4
	rows := make([]constraint.TemplateRow, templateRows)
	for i := range rows {
		r := truth.Rows[perm[i]]
		tr := make(constraint.TemplateRow, truth.Schema.NumColumns())
		switch i % 4 {
		case 0:
			tr[position] = constraint.Eq(r[position].Val)
		case 1:
			tr[nationality] = constraint.Eq(r[nationality].Val)
		case 2:
			tr[caps] = constraint.Ge(r[caps].Val)
		case 3:
			tr[goals] = constraint.Ge(r[goals].Val)
		}
		rows[i] = tr
	}
	t, err := constraint.PredTemplate(truth.Schema, rows...)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Template = t.WithCardinality(cardinality)
	cfg.MaxVirtual = 48 * time.Hour
	return cfg
}

// simDigest hashes everything a run hands to the rest of the system: the
// worker trace and the Central Client log as they go on the wire, the final
// table, and the allocation per worker and per message.
func simDigest(res *SimResult) string {
	h := sha256.New()
	var buf []byte
	for _, log := range [][]sync.Message{res.Core.Trace(), res.Core.CCLog()} {
		for _, m := range log {
			buf = append(sync.AppendMessage(buf[:0], m), '\n')
			h.Write(buf)
		}
		h.Write([]byte("--\n"))
	}
	for _, r := range res.Core.FinalTable() {
		fmt.Fprintf(h, "%s %s %d %d\n", r.ID, r.Vec.Encode(), r.Up, r.Down)
	}
	names := make([]string, 0, len(res.Audit.Alloc.PerWorker))
	for w := range res.Audit.Alloc.PerWorker {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		fmt.Fprintf(h, "%s %s\n", w, strconv.FormatFloat(res.Audit.Alloc.PerWorker[w], 'g', -1, 64))
	}
	for _, amt := range res.Audit.Alloc.PerMessage {
		buf = append(strconv.AppendFloat(buf[:0], amt, 'g', -1, 64), '\n')
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenCase is one configuration TestSimTraceGolden pins.
type goldenCase struct {
	name      string
	cfg       func() SimConfig
	trace, cc int // worker messages, Central Client messages
	digest    string
}

// goldenCases are the paper run, the benchmark's table200 shape and the
// paper run under 5 s propagation latency.
func goldenCases(tb testing.TB) []goldenCase {
	return []goldenCase{
		{
			name:  "paper",
			cfg:   func() SimConfig { return RepresentativeConfig(20140622) },
			trace: 243, cc: 30,
			digest: "afc12d731ccbe5136a5935d441db01c6a52bfeae1af8acbc032bbeeb78a8af2f",
		},
		{
			name:  "table200",
			cfg:   func() SimConfig { return tableShapeConfig(tb, 1, 500, 40, 200) },
			trace: 1982, cc: 284,
			digest: "9fc269099cb31c012c2b0d94bc388294ea9d122c5d2f44af2688d81c0e835cd9",
		},
		{
			// E11's 5 s propagation latency on the paper seed: one jitter draw
			// per delivered message, broadcast-major and in sorted client-id
			// order, so the digest pins the fan-out order itself.
			name: "paper-latency5s",
			cfg: func() SimConfig {
				cfg := RepresentativeConfig(20140622)
				cfg.Latency = 5 * time.Second
				return cfg
			},
			trace: 273, cc: 26,
			digest: "8d5bfa468dc163e5d3ce7937575f06ebc5ce9990d3f7b94ef63cc0ff50e11413",
		},
	}
}

// TestSimTraceGolden pins the simulation's output for fixed seeds. The first
// two digests were taken at the commit before the simulated crowd's lookups
// were indexed (PR 20), the latency one at the commit before the sim took over
// the per-recipient fan-out from the core (PR 26), and all must survive any change that claims to leave behaviour
// alone: a changed rng draw order, a different first match, a reordered map
// walk all show up here.
func TestSimTraceGolden(t *testing.T) {
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Done {
				t.Fatal("collection did not finish")
			}
			got := simDigest(res)
			trace, cc := len(res.Core.Trace()), len(res.Core.CCLog())
			if trace != tc.trace || cc != tc.cc || got != tc.digest {
				t.Fatalf("simulation output moved: %d worker + %d Central Client messages (want %d + %d), digest\n  got  %s\n  want %s\n"+
					"The digest is a contract, not a snapshot of convenience: stored traces, "+
					"crowdfill-replay audits, the benchmark's input hashes and EXPERIMENTS.md's numbers "+
					"all assume a seed reproduces its run. If the move is intended, paste the new digest "+
					"here, say so in CHANGES.md, and regenerate EXPERIMENTS.md and the benchmark baselines "+
					"in the same change.",
					trace, cc, tc.trace, tc.cc, got, tc.digest)
			}
		})
	}
}

// TestSharedTruthConcurrentRuns shares one ground truth between simulations
// running in parallel — its lookup index is built lazily, on whichever run
// asks first — and requires each to produce what it produces alone on a
// truth of its own. The -race pass is what gives it teeth.
func TestSharedTruthConcurrentRuns(t *testing.T) {
	const runs = 4
	config := func(i int, truth *crowd.Dataset) SimConfig {
		cfg := RepresentativeConfig(int64(100 + i))
		cfg.Truth = truth
		return cfg
	}
	shared := crowd.SoccerPlayers(7, 220)
	got := make([]string, runs)
	var wg gosync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Run(config(i, shared))
			if err != nil {
				t.Errorf("shared run %d: %v", i, err)
				return
			}
			got[i] = simDigest(res)
		}()
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		res, err := Run(config(i, crowd.SoccerPlayers(7, 220)))
		if err != nil {
			t.Fatalf("run %d alone: %v", i, err)
		}
		if want := simDigest(res); got[i] != want {
			t.Errorf("run %d over the shared truth diverged from the same run alone:\n  shared %s\n  alone  %s", i, got[i], want)
		}
	}
}
