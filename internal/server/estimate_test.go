package server

import (
	"bytes"
	"math"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crowdfill/internal/client"
	"crowdfill/internal/metrics"
	"crowdfill/internal/pay"
	"crowdfill/internal/sync"
	"crowdfill/internal/transport"
	"crowdfill/internal/wsock"
)

// infiniteBudget swaps in an estimator whose every figure is a share of an
// infinite budget — the non-finite payload New now refuses to configure, so
// a test can reach the estimate decision with one.
func infiniteBudget(c *Core) {
	c.est = pay.NewEstimator(c.cfg.Schema, c.score, c.cfg.Scheme, math.Inf(1), c.cfg.Template, c.start, c.index)
}

// skipCounter returns a Config.Logf that counts skipped estimate decisions.
func skipCounter(n *atomic.Int32) func(string, ...any) {
	return func(format string, _ ...any) {
		if strings.HasPrefix(format, "crowdfill: estimate not broadcast") {
			n.Add(1)
		}
	}
}

// TestNonFiniteEstimateNotPublished: a decision that meets a payload it
// cannot encode publishes nothing — every broadcast it returns encodes — and
// says so through Config.Logf, but only when the driver emits the warnings
// it took: HandleBroadcast runs under the server lock and writes no log.
func TestNonFiniteEstimateNotPublished(t *testing.T) {
	var skipped atomic.Int32
	cfg := cardinalityConfig(t, 2)
	cfg.Logf = skipCounter(&skipped)
	r := newRig(t, cfg)
	c1 := r.join("c1", "w1")
	infiniteBudget(r.core)
	msgs, err := c1.Fill(c1.Rows(nil)[0].ID, 0, "x")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		before := skipped.Load()
		bcasts, err := r.core.HandleBroadcast("c1", m)
		if err != nil {
			t.Fatal(err)
		}
		if skipped.Load() != before {
			t.Fatal("HandleBroadcast logged the skipped estimate itself; the line belongs after the lock")
		}
		r.core.TakeWarnings().Emit()
		if got := skipped.Load() - before; got != 1 {
			t.Fatalf("emitting the taken warnings logged %d skipped estimates, want 1", got)
		}
		r.core.TakeWarnings().Emit()
		if skipped.Load() != before+1 {
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
	if skipped.Load() == 0 {
		t.Fatal("no decision met a non-finite payload; the test did not exercise the skip")
	}
}

// TestNonFiniteEstimateKeepsClients: over a real WebSocket, a skipped
// non-finite estimate costs the connected client nothing — it keeps
// receiving broadcasts and no drop is counted. Publishing the payload would
// fail that client's every send and drop it as a send error.
func TestNonFiniteEstimateKeepsClients(t *testing.T) {
	var skipped atomic.Int32
	cfg := cardinalityConfig(t, 2)
	cfg.Logf = skipCounter(&skipped)
	cfg.Metrics = NewMetrics(metrics.NewRegistry(), metrics.NewRecorder(16))
	core, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ns := NewNetServer(core, quietLogf(t))
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
			raw, err := obs.ReadText()
			if err != nil {
				return
			}
			m, err := sync.DecodeMessage(raw)
			if err != nil {
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
					t.Fatalf("fill %d: the observer's connection closed (skipped decisions: %d)", fill, skipped.Load())
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
	if skipped.Load() < 2 {
		t.Errorf("%d skipped decisions, want one per fill", skipped.Load())
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
		r.core.sinceEstBcast = 0 // never the forced broadcast
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
