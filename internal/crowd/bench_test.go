package crowd_test

import (
	"fmt"
	"testing"
	"time"

	"crowdfill/internal/client"
	"crowdfill/internal/constraint"
	"crowdfill/internal/crowd"
	"crowdfill/internal/exp"
)

var decideSink crowd.Decision

// BenchmarkWorkerDecide times one Decide of a late joiner who knows half the
// truth and faces a mid-collection table: the representative crowd (seed 1)
// is simulated on a Cardinality(card) template for the first part of its
// collection, and the joiner's client loads the resulting snapshot, so every
// row is one they have not voted on. rows= names the size of the finished
// collection's table (≈ 1.3 × cardinality); the rungs vary the table and the
// truth separately, because the claim is that a decision costs the rows it
// reads and not rows × knowledge. The rng is re-seeded per iteration, off the
// clock: every iteration makes the same decision.
func BenchmarkWorkerDecide(b *testing.B) {
	rungs := []struct {
		rows, card int
		prefix     time.Duration // virtual time simulated before the joiner arrives
		truths     []int
	}{
		{rows: 25, card: 20, prefix: 5 * time.Minute, truths: []int{100, 500, 2500}},
		{rows: 270, card: 200, prefix: 30 * time.Minute, truths: []int{500, 2500}},
		{rows: 1300, card: 1000, prefix: 2 * time.Hour, truths: []int{2500}},
	}
	for _, r := range rungs {
		for _, truthRows := range r.truths {
			// Built on the rung's first invocation and kept for the b.N
			// probes that follow: Decide only reads the client.
			var (
				truth *crowd.Dataset
				c     *client.Client
			)
			b.Run(fmt.Sprintf("rows=%d/truth=%d", r.rows, truthRows), func(b *testing.B) {
				if c == nil {
					truth, c = midCollection(b, truthRows, r.card, r.prefix)
				}
				w := crowd.NewWorker(crowd.Spec{Name: "late", Knowledge: 0.5, FillAccuracy: 0.95,
					VoteAccuracy: 0.95, VotePreference: 0.6, ResearchProb: 0.4, ReconsiderProb: 0.15,
					Seed: 7}, truth)
				w.Decide(c) // the truth builds its index on the first research lookup
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer() // seeding costs as much as a small decision
					w.Reseed(11)
					b.StartTimer()
					decideSink = w.Decide(c)
				}
				b.ReportMetric(float64(c.Replica().Table().Len()), "rows")
				b.ReportMetric(float64(w.KnownRows()), "known")
			})
		}
	}
}

// midCollection simulates the representative crowd (seed 1) on a
// Cardinality(card) template for prefix of virtual time and returns the truth
// and a late joiner's client holding the table as it stands then.
func midCollection(b *testing.B, truthRows, card int, prefix time.Duration) (*crowd.Dataset, *client.Client) {
	b.Helper()
	cfg := exp.RepresentativeConfig(1)
	cfg.Truth = crowd.SoccerPlayers(1, truthRows)
	cfg.Template = constraint.Cardinality(cfg.Truth.Schema, card)
	cfg.MaxVirtual = prefix
	res, err := exp.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if res.Done {
		b.Fatal("the collection finished inside the prefix: not a mid-collection table")
	}
	c, err := client.New(client.Config{ID: "late", Worker: "late", Schema: cfg.Truth.Schema,
		MaxVotesPerRow: cfg.MaxVotesPerRow})
	if err != nil {
		b.Fatal(err)
	}
	for _, o := range res.Core.AddClient("late", "late") {
		if o.To == "late" {
			if err := c.HandleServer(o.Msg); err != nil {
				b.Fatal(err)
			}
		}
	}
	return cfg.Truth, c
}
