package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"crowdfill/internal/constraint"
	"crowdfill/internal/crowd"
	"crowdfill/internal/exp"
	"crowdfill/internal/model"
	"crowdfill/internal/pay"
	"crowdfill/internal/server"
	"crowdfill/internal/sync"
)

// collectionSpec is what a collection is built from: the part of a
// server.Config the inputs decide.
type collectionSpec struct {
	schema   *model.Schema
	score    model.ScoreFunc
	template constraint.Template
	budget   float64
	scheme   pay.Scheme
	maxVotes int
}

// newCore builds a fresh server core for the spec, reporting into met.
func (cs collectionSpec) newCore(met *server.Metrics) (*server.Core, error) {
	return server.New(server.Config{
		Schema:         cs.schema,
		Score:          cs.score,
		Template:       cs.template,
		Budget:         cs.budget,
		Scheme:         cs.scheme,
		MaxVotesPerRow: cs.maxVotes,
		Metrics:        met,
	})
}

// scriptOp is one scripted worker message, handed to the program as a plain
// message: Worker indexes script.workers, Msg is what that worker's client
// applies locally and sends, Delta is how far the op moves every replica's
// epoch (the op itself plus the Central Client messages it triggers).
type scriptOp struct {
	Worker int
	Msg    sync.Message
	Delta  uint64
}

// script is the generated input of a lifecycle workload (paper5, table200):
// the simulated crowd's message trace, the per-op replica-epoch deltas that
// let each peer know exactly when an op has reached it, and the reference
// end state.
type script struct {
	spec    collectionSpec
	workers []string
	ops     []scriptOp
	// cum[k] is the sum of deltas of ops 0..k: a peer that loaded the
	// start-of-collection snapshot (epoch 1) has applied op k once its
	// replica epoch reaches 1+cum[k].
	cum []uint64
	// lateAfter lists op indexes after which one more client joins and
	// stays; after the last of them, visitors more join and leave again, so
	// the join metric has enough samples on one table size.
	lateAfter []int
	visitors  int
	reference string // master SnapshotText at Done
	hash      string
	genS      float64 // time spent in exp.Run (the simulated crowd)
}

// paper5Config is the paper's §6 deployment: 5 workers, Cardinality-20
// SoccerPlayer.
func paper5Config(seed int64) exp.SimConfig { return exp.RepresentativeConfig(seed) }

// tableSize sizes table200's truth and template.
type tableSize struct{ truth, templateRows, cardinality int }

// table200Config is the same crowd on a larger truth (500 entities at full
// scale) with a values/predicates template: rows drawn from the truth by
// the seed (40; `=` on position or nationality, `>=` on caps or goals),
// padded to the cardinality (200).
func table200Config(seed int64, size tableSize) (exp.SimConfig, error) {
	cfg := exp.RepresentativeConfig(seed)
	truth := crowd.SoccerPlayers(seed, size.truth)
	cfg.Truth = truth
	rng := rand.New(rand.NewSource(seed ^ 0x7ab1e200))
	perm := rng.Perm(len(truth.Rows))
	const position, nationality, caps, goals = 2, 1, 3, 4
	rows := make([]constraint.TemplateRow, size.templateRows)
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
		return exp.SimConfig{}, err
	}
	cfg.Template = t.WithCardinality(size.cardinality)
	cfg.MaxVirtual = 48 * time.Hour
	return cfg, nil
}

// genScript runs the simulated crowd (virtual clock, never inside a measured
// phase), turns its trace into a script, and self-checks it: a direct
// replay into a fresh core must finish the collection and reproduce the
// simulation's end state on both the master and a shadow receiver.
func genScript(cfg exp.SimConfig, lateMarks []float64) (*script, error) {
	t0 := time.Now()
	res, err := exp.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("simulate crowd: %w", err)
	}
	if !res.Done {
		return nil, errors.New("simulate crowd: collection did not finish")
	}
	sc := &script{
		spec: collectionSpec{
			schema:   cfg.Truth.Schema,
			score:    cfg.Score,
			template: cfg.Template,
			budget:   cfg.Budget,
			scheme:   cfg.Scheme,
			maxVotes: cfg.MaxVotesPerRow,
		},
		genS: time.Since(t0).Seconds(),
	}
	index := make(map[string]int, len(cfg.Workers))
	for i, w := range cfg.Workers {
		sc.workers = append(sc.workers, w.Name)
		index[w.Name] = i
	}
	for _, m := range res.Core.Trace() {
		w, ok := index[m.Worker]
		if !ok {
			return nil, fmt.Errorf("trace message from unknown worker %q", m.Worker)
		}
		m.TS = 0 // the live server stamps its own
		sc.ops = append(sc.ops, scriptOp{Worker: w, Msg: m})
	}
	for _, f := range lateMarks {
		sc.lateAfter = append(sc.lateAfter, int(f*float64(len(sc.ops)))-1)
	}
	if err := sc.selfCheck(res.Core.Master().SnapshotText()); err != nil {
		return nil, err
	}
	sc.hash = sc.digest()
	return sc, nil
}

// selfCheck replays the script straight into a fresh core, recording each
// op's epoch delta from a shadow receiver that applies exactly what the
// server would broadcast, and compares the end state with want.
func (sc *script) selfCheck(want string) error {
	core, err := sc.spec.newCore(nil)
	if err != nil {
		return err
	}
	shadow := sync.NewReplica(sc.spec.schema)
	for i, w := range sc.workers {
		out := core.AddClient(w, w)
		if i == 0 {
			shadow.LoadSnapshot(out[0].Msg.Snapshot)
		}
	}
	sc.cum = make([]uint64, len(sc.ops))
	for k := range sc.ops {
		op := &sc.ops[k]
		before := shadow.Epoch()
		bcasts, err := core.HandleBroadcast(sc.workers[op.Worker], op.Msg)
		if err != nil {
			return fmt.Errorf("self-check: op %d rejected: %w", k, err)
		}
		for _, b := range bcasts {
			if err := shadow.Apply(b.Prepared.Message()); err != nil {
				return fmt.Errorf("self-check: op %d broadcast: %w", k, err)
			}
		}
		op.Delta = shadow.Epoch() - before
		if op.Delta == 0 {
			return fmt.Errorf("self-check: op %d moved nothing", k)
		}
		sc.cum[k] = op.Delta
		if k > 0 {
			sc.cum[k] += sc.cum[k-1]
		}
	}
	if !core.Done() {
		return errors.New("self-check: replayed collection did not finish")
	}
	sc.reference = core.Master().SnapshotText()
	if sc.reference != want {
		return errors.New("self-check: replay diverged from the simulation")
	}
	if shadow.SnapshotText() != want {
		return errors.New("self-check: shadow receiver diverged from the master")
	}
	return nil
}

// digest hashes the script's messages, so two runs can be shown to have
// used identical inputs.
func (sc *script) digest() string {
	h := sha256.New()
	var buf []byte
	for _, op := range sc.ops {
		buf = append(buf[:0], byte(op.Worker))
		buf = sync.AppendMessage(buf, op.Msg)
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Fan-out topology shared by fanout64 and burst64.
const (
	fanSenders     = 2
	fanSubscribers = 64
	fanRows        = 8
	// fanGaps is how many open-loop inter-arrival gaps are drawn per
	// sender; segments walk the list cyclically.
	fanGaps = 4096
)

// fanInputs is the generated input of the fan-out workloads: the collection
// and each sender's open-loop schedule (exponential gaps around openRate,
// i.e. independent users).
type fanInputs struct {
	spec collectionSpec
	gaps [fanSenders][]int64 // nanoseconds between a sender's sends
	hash string
	genS float64 // time spent generating
}

func genFanInputs(seed int64) *fanInputs {
	t0 := time.Now()
	schema := model.MustSchema("T", []model.Column{{Name: "k"}, {Name: "v"}}, "k")
	in := &fanInputs{spec: collectionSpec{
		schema:   schema,
		score:    model.MajorityShortcut(3),
		template: constraint.Cardinality(schema, fanRows),
		budget:   1,
		scheme:   pay.Uniform,
	}}
	h := sha256.New()
	for s := range in.gaps {
		rng := rand.New(rand.NewSource(seed*fanSenders + int64(s)))
		mean := float64(time.Second) / openRate
		in.gaps[s] = make([]int64, fanGaps)
		for i := range in.gaps[s] {
			in.gaps[s][i] = int64(rng.ExpFloat64() * mean)
			_ = binary.Write(h, binary.LittleEndian, in.gaps[s][i]) // hash.Hash never fails
		}
	}
	in.hash = hex.EncodeToString(h.Sum(nil))[:16]
	in.genS = time.Since(t0).Seconds()
	return in
}
