package server

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crowdfill/internal/client"
	"crowdfill/internal/constraint"
	"crowdfill/internal/metrics"
	"crowdfill/internal/model"
	"crowdfill/internal/pay"
	"crowdfill/internal/sync"
	"crowdfill/internal/transport"
	"crowdfill/internal/wsock"
)

// infiniteBudget swaps in an estimator whose every figure is a share of an
// infinite budget — the non-finite payload New now refuses to configure, so
// a test can reach the estimate decision with one.
func infiniteBudget(c *Core) {
	c.est = pay.NewEstimator(c.cfg.Schema, c.cfg.Score, c.cfg.Scheme, math.Inf(1), c.cfg.Template, c.start, c.index)
}

// skippedEstimates counts the estimate-skipped events in rec's ring.
func skippedEstimates(rec *metrics.Recorder) int {
	n := 0
	for _, ev := range rec.Events() {
		if ev.Kind == metrics.EvEstimateSkipped {
			n++
		}
	}
	return n
}

// TestNonFiniteEstimateNotPublished: a decision that meets a payload it
// cannot encode publishes nothing — every broadcast it returns encodes — and
// says so as a flight-recorder event, but only when the driver emits the
// warnings it took: HandleBroadcast runs under the server lock and records
// nothing.
func TestNonFiniteEstimateNotPublished(t *testing.T) {
	cfg := cardinalityConfig(t, 2)
	cfg.Metrics = NewMetrics(metrics.NewRegistry(), metrics.NewRecorder(16))
	rec := cfg.Metrics.Recorder()
	r := newRig(t, cfg)
	c1 := r.join("c1", "w1")
	infiniteBudget(r.core)
	msgs, err := c1.Fill(c1.Rows(nil)[0].ID, 0, "x")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		before := skippedEstimates(rec)
		bcasts, err := r.core.HandleBroadcast("c1", m)
		if err != nil {
			t.Fatal(err)
		}
		if skippedEstimates(rec) != before {
			t.Fatal("HandleBroadcast recorded the skipped estimate itself; the event belongs after the lock")
		}
		r.core.TakeWarnings().Emit()
		if got := skippedEstimates(rec) - before; got != 1 {
			t.Fatalf("emitting the taken warnings recorded %d skipped estimates, want 1", got)
		}
		r.core.TakeWarnings().Emit()
		if skippedEstimates(rec) != before+1 {
			t.Fatal("a second take emitted the warning again")
		}
		for _, b := range bcasts {
			if b.Prepared.Message().Type == sync.MsgEstimate {
				t.Fatalf("a non-finite estimate was published: %+v", b.Prepared.Message().Estimates)
			}
			if _, err := b.Prepared.Payload(); err != nil {
				t.Fatalf("published a %v that cannot be encoded: %v", b.Prepared.Message().Type, err)
			}
		}
	}
	if skippedEstimates(rec) == 0 {
		t.Fatal("no decision met a non-finite payload; the test did not exercise the skip")
	}
}

// TestNonFiniteEstimateKeepsClients: over a real WebSocket, a skipped
// non-finite estimate costs the connected client nothing — it keeps
// receiving broadcasts and no drop is counted. Publishing the payload would
// fail that client's every send and drop it as a send error.
func TestNonFiniteEstimateKeepsClients(t *testing.T) {
	cfg := cardinalityConfig(t, 2)
	cfg.Metrics = NewMetrics(metrics.NewRegistry(), metrics.NewRecorder(16))
	rec := cfg.Metrics.Recorder()
	core, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ns := NewNetServer(core, nil)
	defer ns.Shutdown()
	hsrv := httptest.NewServer(ns.Handler())
	defer hsrv.Close()
	obs, err := wsock.Dial("ws" + strings.TrimPrefix(hsrv.URL, "http") + "?worker=obs")
	if err != nil {
		t.Fatal(err)
	}
	defer obs.Close()

	srv, cli := transport.Pipe(64)
	go ns.ServeConn(srv, "w1")
	c1, err := client.New(client.Config{ID: "w1", Worker: "w1", Schema: cfg.Schema})
	if err != nil {
		t.Fatal(err)
	}
	r1 := client.NewRunner(c1, cli)
	defer r1.Close()
	waitFor(t, func() bool {
		n := 0
		r1.View(func(c *client.Client) { n = len(c.Rows(nil)) })
		return n == 2
	})
	ns.WithCore(infiniteBudget)

	msgs := make(chan sync.Message, 64)
	go func() {
		defer close(msgs)
		for {
			raw, err := obs.ReadTextLease()
			if err != nil {
				return
			}
			var m sync.Message
			if err := sync.DecodeMessageInto(append([]byte(nil), raw...), &m); err != nil {
				return
			}
			msgs <- m
		}
	}()
	estimates := 0
	for fill := 0; fill < 2; fill++ {
		if err := r1.Do(func(c *client.Client) ([]sync.Message, error) {
			for _, row := range c.Rows(nil) {
				if !row.Vec[0].Set {
					return c.Fill(row.ID, 0, "k"+string(rune('a'+fill)))
				}
			}
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
		for replaced := false; !replaced; {
			select {
			case m, ok := <-msgs:
				if !ok {
					t.Fatalf("fill %d: the observer's connection closed (skipped decisions: %d)", fill, skippedEstimates(rec))
				}
				replaced = m.Type == sync.MsgReplace
				if m.Type == sync.MsgEstimate {
					estimates++
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("fill %d: no replace broadcast reached the observer", fill)
			}
		}
	}
	if estimates != 1 {
		t.Errorf("observer received %d estimates, want only its join estimate", estimates)
	}
	if n := skippedEstimates(rec); n < 2 {
		t.Errorf("%d skipped decisions, want one per fill", n)
	}
	for cause, n := range snapshotDrops(cfg.Metrics) {
		if n != 0 {
			t.Errorf("%d %s drops counted, want none", n, cause)
		}
	}
	if conns, _ := ns.log.poolStats(); conns != 2 {
		t.Errorf("%d connections registered, want both", conns)
	}
}

// TestOverrunWarningEmittedOnce: a repair overrun reaches the flight
// recorder (whose sink logs the line) only when the driver emits the
// warnings it took after releasing its lock — once, however often it takes.
func TestOverrunWarningEmittedOnce(t *testing.T) {
	cfg := cardinalityConfig(t, 2)
	cfg.Metrics = NewMetrics(metrics.NewRegistry(), metrics.NewRecorder(16))
	r := newRig(t, cfg)
	rec := cfg.Metrics.Recorder()
	before := rec.Total()
	r.core.warn.overrun = 1 // what runCC records when the loop hits its cap
	w := r.core.TakeWarnings()
	if rec.Total() != before {
		t.Fatal("taking the warnings recorded an event under the caller's lock")
	}
	w.Emit()
	r.core.TakeWarnings().Emit()
	overruns := 0
	for _, ev := range rec.Events() {
		if ev.Kind == metrics.EvRepairOverrun {
			overruns++
		}
	}
	if overruns != 1 {
		t.Fatalf("%d repair-overrun events recorded, want 1", overruns)
	}
	// The common case, a message that raised nothing, costs nothing.
	if n := testing.AllocsPerRun(100, func() { r.core.TakeWarnings().Emit() }); n != 0 {
		t.Errorf("taking and emitting no warnings: %v allocs/op, want 0", n)
	}
}

// TestEstimateDecisionAllocs: deciding that the estimate has not moved — the
// common case, 98.5 % of decisions on fanout64 — allocates and encodes
// nothing.
func TestEstimateDecisionAllocs(t *testing.T) {
	r := newRig(t, cardinalityConfig(t, 2))
	c1 := r.join("c1", "w1")
	msgs, err := c1.Fill(c1.Rows(nil)[0].ID, 0, "x")
	if err != nil {
		t.Fatal(err)
	}
	r.send("c1", msgs...)
	n := testing.AllocsPerRun(100, func() {
		if p := r.core.estimateBroadcast(); p != nil {
			t.Fatalf("an unchanged estimate was published: %+v", p.Message().Estimates)
		}
	})
	if n != 0 {
		t.Errorf("unchanged estimate decision: %v allocs/op, want 0", n)
	}
}

// TestSameFiguresIsSameText: comparing two payloads' float bits decides
// exactly what comparing their encodings did — across signed zeros,
// subnormals, both float text forms and neighbouring doubles — and payloads
// of different widths never match.
func TestSameFiguresIsSameText(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 0.30000000000000004, 0.3,
		1e-6, 9.999999999999999e-7, 1e-7, 1e20, 1e21, math.SmallestNonzeroFloat64,
		math.MaxFloat64, math.Nextafter(1, 2), 1 / 3.0}
	encode := func(e *sync.Estimates) []byte {
		b, err := sync.EncodeMessage(sync.Message{Type: sync.MsgEstimate, Estimates: e})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, x := range vals {
		for _, y := range vals {
			a := &sync.Estimates{PerColumn: []float64{x, 2}, Upvote: y, Downvote: x}
			b := &sync.Estimates{PerColumn: []float64{y, 2}, Upvote: x, Downvote: y}
			if got, want := sameFigures(a, b), bytes.Equal(encode(a), encode(b)); got != want {
				t.Errorf("sameFigures(%v, %v) = %v, encodings equal = %v", x, y, got, want)
			}
		}
	}
	if sameFigures(&sync.Estimates{PerColumn: []float64{1}}, &sync.Estimates{PerColumn: []float64{1, 1}}) {
		t.Error("payloads of different widths compared equal")
	}
}

// TestHandleBroadcastReusesResult: the broadcasts a handled message returns
// live in the core's own slice, overwritten by the next call, so handling a
// message leaves no transient result slice behind.
func TestHandleBroadcastReusesResult(t *testing.T) {
	r := newRig(t, cardinalityConfig(t, 2))
	c1 := r.join("c1", "w1")
	msgs, err := c1.Fill(c1.Rows(nil)[0].ID, 0, "x")
	if err != nil {
		t.Fatal(err)
	}
	vote := sync.Message{Type: sync.MsgUpvote, Vec: msgs[0].Vec}
	first, err := r.core.HandleBroadcast("c1", msgs[0])
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.core.HandleBroadcast("c1", vote)
	if err != nil {
		t.Fatal(err)
	}
	if &first[0] != &second[0] {
		t.Fatal("each handled message returned a freshly allocated broadcast slice")
	}
	if second[0].Prepared.Message().Type != sync.MsgUpvote {
		t.Fatalf("the reused slice does not hold the second message's broadcasts: %v", second[0].Prepared.Message().Type)
	}
}

// settleLink is one worker connection of TestEstimatesSettleOnEveryLink,
// with the counts that tell when it is quiet: messages the worker sent, the
// server handled, the server sent down the link, and the worker applied.
type settleLink struct {
	runner   *client.Runner
	upstream int
	handled  atomic.Int64
	sent     atomic.Int64
	applied  atomic.Int64
}

// settleServerEnd is a link's server end. The serve loop handles a message
// before it receives the next one, so a message counts as handled at the
// next Recv.
type settleServerEnd struct {
	transport.Conn
	l    *settleLink
	last int64
}

func (c *settleServerEnd) Recv() (sync.Message, error) {
	c.l.handled.Add(c.last)
	m, err := c.Conn.Recv()
	c.last = 0
	if err == nil {
		c.last = 1
	}
	return m, err
}

func (c *settleServerEnd) Send(m sync.Message) error {
	err := c.Conn.Send(m)
	if err == nil {
		c.l.sent.Add(1)
	}
	return err
}

func (c *settleServerEnd) SendPreparedBatch(ps []*sync.Prepared) error {
	for _, p := range ps {
		if err := c.Send(p.Message()); err != nil {
			return err
		}
	}
	return nil
}

// settleClientEnd is a link's worker end. A Runner applies a batch before
// it receives the next one, so a batch counts as applied at the next
// RecvBatch.
type settleClientEnd struct {
	transport.Conn
	l    *settleLink
	last int
}

func (c *settleClientEnd) RecvBatch(dst []sync.Message) (int, error) {
	c.l.applied.Add(int64(c.last))
	n, err := c.Conn.RecvBatch(dst)
	c.last = n
	return n, err
}

// TestEstimatesSettleOnEveryLink: an estimate is published only when its
// rounded figures change, with no periodic re-send, so a link holds the
// current figures only if every change was published and every join was
// sent the current figures. Over seeded random schedules under each scheme
// — fills, votes and undos from workers that join late, and one that leaves
// and rejoins as a fresh client — whenever every link is quiet its figures
// must equal the estimator's current (rounded) figures bit for bit, and each
// must lie within half a cent of the full-precision one. A worker that joins
// after the last action is checked too.
func TestEstimatesSettleOnEveryLink(t *testing.T) {
	const steps, every = 120, 10
	keys, vals := []string{"a", "b", "c", "d", "e"}, []string{"1", "2", "3"}
	moves := 0
	for seed := int64(0); seed < 12; seed++ {
		s := kvSchema(t)
		// Five keys can never fill a twelve-row table, so the collection
		// stays open for the whole schedule.
		core, err := New(Config{
			Schema:   s,
			Score:    model.MajorityShortcut(3),
			Template: constraint.Cardinality(s, 12),
			Budget:   5,
			Scheme:   []pay.Scheme{pay.Uniform, pay.ColumnWeighted, pay.DualWeighted}[seed%3],
		})
		if err != nil {
			t.Fatal(err)
		}
		ns := NewNetServer(core, nil)
		rng := rand.New(rand.NewSource(seed))
		live := map[string]*settleLink{}
		sessions := 0
		join := func(worker string) {
			sessions++
			l := &settleLink{}
			srv, cli := transport.Pipe(256)
			go ns.ServeConn(&settleServerEnd{Conn: srv, l: l}, worker)
			c, err := client.New(client.Config{ID: fmt.Sprintf("%s-%d", worker, sessions), Worker: worker, Schema: s})
			if err != nil {
				t.Fatal(err)
			}
			l.runner = client.NewRunner(c, &settleClientEnd{Conn: cli, l: l})
			live[worker] = l
			// Registered and past its snapshot and estimate.
			waitFor(t, func() bool { return l.applied.Load() >= 2 })
		}
		quiet := func() bool {
			for _, l := range live {
				if l.handled.Load() != int64(l.upstream) {
					return false
				}
			}
			if !ns.log.drained() {
				return false
			}
			for _, l := range live {
				if l.sent.Load() != l.applied.Load() {
					return false
				}
			}
			return true
		}
		var last sync.Estimates
		check := func(when string) {
			t.Helper()
			waitFor(t, quiet)
			var want, exact sync.Estimates
			ns.WithCore(func(c *Core) {
				c.Estimator().Current(&want)
				c.Estimator().Exact(&exact)
			})
			if !sameFigures(&want, &last) {
				moves++
			}
			last = sync.Estimates{PerColumn: slices.Clone(want.PerColumn), Upvote: want.Upvote, Downvote: want.Downvote}
			for w, l := range live {
				var got sync.Estimates
				l.runner.View(func(c *client.Client) {
					if e := c.Estimates(); e != nil {
						got = sync.Estimates{PerColumn: slices.Clone(e.PerColumn), Upvote: e.Upvote, Downvote: e.Downvote}
					}
				})
				if !sameFigures(&got, &want) {
					t.Fatalf("seed %d, %s: %s's link holds %+v, the estimator's current figures are %+v", seed, when, w, got, want)
				}
				near := func(g, x float64) bool { return math.Abs(g-x) <= pay.Resolution/2*(1+1e-9) }
				if !near(got.Upvote, exact.Upvote) || !near(got.Downvote, exact.Downvote) ||
					!slices.EqualFunc(got.PerColumn, exact.PerColumn, near) {
					t.Fatalf("seed %d, %s: %s's link holds %+v, more than half a cent from %+v", seed, when, w, got, exact)
				}
			}
		}

		join("w1")
		join("w2")
		voted := map[string][]model.Vector{}
		for step := 1; step <= steps; step++ {
			switch step {
			case 20:
				join("w3")
			case 50:
				join("w4")
			case 80:
				join("w1") // w1 comes back as a fresh client
			}
			workers := make([]string, 0, len(live))
			for w := range live {
				workers = append(workers, w)
			}
			slices.Sort(workers)
			w := workers[rng.Intn(len(workers))]
			l := live[w]
			_ = l.runner.Do(func(c *client.Client) ([]sync.Message, error) {
				rows := c.Rows(nil)
				if len(rows) == 0 {
					return nil, nil
				}
				row := rows[rng.Intn(len(rows))]
				var msgs []sync.Message
				var err error
				switch k := rng.Intn(10); {
				case k < 5:
					col := rng.Intn(2)
					if row.Vec[col].Set {
						return nil, nil
					}
					pool := [][]string{keys, vals}[col]
					msgs, err = c.Fill(row.ID, col, pool[rng.Intn(len(pool))])
				case k < 8:
					var m sync.Message
					if row.Vec.IsComplete() {
						m, err = c.Upvote(row.ID)
					} else {
						m, err = c.Downvote(row.ID)
					}
					if err == nil {
						voted[w] = append(voted[w], m.Vec.Clone())
						msgs = []sync.Message{m}
					}
				default:
					if len(voted[w]) == 0 {
						return nil, nil
					}
					j := rng.Intn(len(voted[w]))
					v := voted[w][j]
					voted[w] = slices.Delete(voted[w], j, j+1)
					var m sync.Message
					if m, err = c.UndoVote(v); err == nil {
						msgs = []sync.Message{m}
					}
				}
				if err != nil {
					return nil, nil // the client refused: nothing was sent
				}
				l.upstream += len(msgs)
				return msgs, nil
			})
			if step%every == 0 {
				check(fmt.Sprintf("step %d", step))
			}
			if step == 60 {
				live["w1"].runner.Close()
				delete(live, "w1")
				delete(voted, "w1")
			}
		}
		join("late")
		check("after a join at the end")
		if ns.Done() {
			t.Fatalf("seed %d: the collection finished; the schedule assumes it stays open", seed)
		}
		for _, l := range live {
			l.runner.Close()
		}
		ns.Shutdown()
	}
	// Not vacuous: the figures moved between checks.
	if moves < 30 {
		t.Fatalf("the current figures moved between only %d checks", moves)
	}
	t.Logf("figures moved between %d checks", moves)
}
