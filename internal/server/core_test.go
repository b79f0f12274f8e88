package server

import (
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"crowdfill/internal/client"
	"crowdfill/internal/constraint"
	"crowdfill/internal/model"
	"crowdfill/internal/pay"
	"crowdfill/internal/replay"
	"crowdfill/internal/simclock"
	"crowdfill/internal/sync"
)

func kvSchema(t testing.TB) *model.Schema {
	t.Helper()
	return model.MustSchema("KV", []model.Column{
		{Name: "k", Type: model.TypeString},
		{Name: "v", Type: model.TypeString},
	}, "k")
}

// rig wires a Core to in-process worker clients, delivering outbounds
// synchronously (a zero-latency reliable in-order network).
type rig struct {
	t       *testing.T
	core    *Core
	clients map[string]*client.Client
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	core, err := New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	return &rig{t: t, core: core, clients: make(map[string]*client.Client)}
}

func (r *rig) join(id, worker string) *client.Client {
	r.t.Helper()
	c, err := client.New(client.Config{ID: id, Worker: worker, Schema: r.core.Master().Schema()})
	if err != nil {
		r.t.Fatalf("client.New: %v", err)
	}
	r.clients[id] = c
	r.deliver(r.core.AddClient(id, worker))
	return c
}

func (r *rig) deliver(out []Outbound) {
	r.t.Helper()
	for _, o := range out {
		if c, ok := r.clients[o.To]; ok {
			if err := c.HandleServer(o.Msg); err != nil {
				r.t.Fatalf("deliver to %s: %v", o.To, err)
			}
		}
	}
}

func (r *rig) send(from string, msgs ...sync.Message) {
	r.t.Helper()
	for _, m := range msgs {
		out, err := handleExpanded(r.core, from, m)
		if err != nil {
			r.t.Fatalf("HandleBroadcast(%s, %v): %v", from, m.Type, err)
		}
		r.deliver(out)
	}
}

// handleExpanded is the spec of delivery: one handled message's broadcasts
// expanded into per-recipient Outbound values, broadcast-major and in sorted
// client order. The simulation harness fans out the same way, and
// TestLogDeliveryMatchesDirectOutbound holds the sequenced log to it.
func handleExpanded(c *Core, clientID string, m sync.Message) ([]Outbound, error) {
	bcasts, err := c.HandleBroadcast(clientID, m)
	if err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(c.clients))
	for id := range c.clients {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out []Outbound
	for _, b := range bcasts {
		for _, id := range ids {
			if id != b.Exclude {
				out = append(out, Outbound{To: id, Msg: b.Prepared.Message(), Prepared: b.Prepared})
			}
		}
	}
	return out, nil
}

func cardinalityConfig(t *testing.T, n int) Config {
	t.Helper()
	s := kvSchema(t)
	return Config{
		Schema:   s,
		Score:    model.MajorityShortcut(3),
		Template: constraint.Cardinality(s, n),
		Budget:   10,
		Scheme:   pay.Uniform,
		Clock:    simclock.NewSim(0),
	}
}

func TestNewSeedsTemplateRows(t *testing.T) {
	r := newRig(t, cardinalityConfig(t, 3))
	if got := r.core.Master().Table().Len(); got != 3 {
		t.Fatalf("seeded rows = %d, want 3", got)
	}
	if r.core.Done() {
		t.Fatalf("empty cardinality template cannot be done")
	}
	if !r.core.Planner().CheckPRI(r.core.Master()) {
		t.Fatalf("PRI must hold after init")
	}
}

func TestCompleteTemplateFinishesImmediately(t *testing.T) {
	s := kvSchema(t)
	tmpl, err := constraint.PredTemplate(s,
		constraint.TemplateRow{constraint.Eq("x"), constraint.Eq("1")},
		constraint.TemplateRow{constraint.Eq("y"), constraint.Eq("2")},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Default scoring: the CC's single upvote on each complete template row
	// already gives a positive score, so the constraint holds immediately.
	core, err := New(Config{Schema: s, Template: tmpl, Budget: 1, Clock: simclock.NewSim(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !core.Done() {
		t.Fatalf("complete template under default scoring should finish instantly")
	}
	if got := len(core.FinalTable()); got != 2 {
		t.Fatalf("final rows = %d, want 2", got)
	}
}

// TestFullCollectionRun drives two workers to fill a 3-row table to
// completion and checks convergence, the trace, completion detection, and
// compensation.
func TestFullCollectionRun(t *testing.T) {
	r := newRig(t, cardinalityConfig(t, 3))
	c1 := r.join("c1", "w1")
	c2 := r.join("c2", "w2")

	// w1 fills all three rows (k and v); each completing fill auto-upvotes.
	for i, row := range c1.Rows(nil) {
		key := string(rune('a' + i))
		msgs, err := c1.Fill(row.ID, 0, key)
		if err != nil {
			t.Fatal(err)
		}
		r.send("c1", msgs...)
		msgs, err = c1.Fill(msgs[0].NewRow, 1, "val"+key)
		if err != nil {
			t.Fatal(err)
		}
		r.send("c1", msgs...)
	}
	if r.core.Done() {
		t.Fatalf("majority-of-3 needs a second vote per row")
	}
	// w2 upvotes every complete row; after the third, the constraint is
	// satisfied and the run completes.
	for _, row := range c2.Rows(nil) {
		if !row.Vec.IsComplete() {
			continue
		}
		m, err := c2.Upvote(row.ID)
		if err != nil {
			t.Fatal(err)
		}
		r.send("c2", m)
	}
	if !r.core.Done() {
		t.Fatalf("run should be done after three upvotes")
	}
	if got := len(r.core.FinalTable()); got != 3 {
		t.Fatalf("final rows = %d, want 3", got)
	}
	if !r.core.Planner().SatisfiedBy(r.core.FinalTable()) {
		t.Fatalf("constraint must be satisfied")
	}

	// Replicas converged.
	want := r.core.Master().SnapshotText()
	if c1.Replica().SnapshotText() != want || c2.Replica().SnapshotText() != want {
		t.Fatalf("replicas diverged from master")
	}

	// Trace: 6 fills + 3 auto-upvotes from w1, 3 upvotes from w2.
	if got := len(r.core.Trace()); got != 12 {
		t.Fatalf("trace length = %d, want 12", got)
	}
	for i := 1; i < len(r.core.Trace()); i++ {
		if r.core.Trace()[i].TS <= r.core.Trace()[i-1].TS {
			t.Fatalf("trace timestamps not strictly increasing at %d", i)
		}
	}

	// Compensation: uniform scheme, full budget allocated (every cell has a
	// self-indirect contributor: all values are fresh).
	alloc, err := r.core.ComputePay()
	if err != nil {
		t.Fatalf("ComputePay: %v", err)
	}
	if math.Abs(alloc.Allocated-10) > 1e-9 {
		t.Fatalf("allocated %v, want 10", alloc.Allocated)
	}
	// w1 did all the data entry; w2 only voted. |C|=6, |U|=3, |D|=0 -> each
	// unit 10/9; w2 gets 3*10/9.
	if got := alloc.PerWorker["w2"]; math.Abs(got-3*10.0/9) > 1e-9 {
		t.Fatalf("w2 pay = %v, want %v", got, 3*10.0/9)
	}
	if got := alloc.PerWorker["w1"]; math.Abs(got-6*10.0/9) > 1e-9 {
		t.Fatalf("w1 pay = %v, want %v", got, 6*10.0/9)
	}

	// Estimator recorded one estimate per paid-action (auto-upvotes are
	// excluded, but replaces are): 6 fills + 3 upvotes... plus w1's
	// auto-upvotes are skipped.
	if got := len(r.core.Estimator().Records); got != 9 {
		t.Fatalf("estimate records = %d, want 9", got)
	}

	// Late messages after completion are dropped silently.
	out, err := handleExpanded(r.core, "c2", sync.Message{Type: sync.MsgUpvote, Vec: model.VectorOf("a", "vala")})
	if err != nil || out != nil {
		t.Fatalf("post-done handle = %v, %v", out, err)
	}
}

// TestDownvoteTriggersCC: voting a row out of the probable set makes the
// Central Client insert a replacement, which reaches every client.
func TestDownvoteTriggersCC(t *testing.T) {
	r := newRig(t, cardinalityConfig(t, 2))
	c1 := r.join("c1", "w1")
	c2 := r.join("c2", "w2")

	row := c1.Rows(nil)[0]
	msgs, err := c1.Fill(row.ID, 0, "junk")
	if err != nil {
		t.Fatal(err)
	}
	r.send("c1", msgs...)
	bad := msgs[0].NewRow

	// Two downvotes (one per worker) push the row's score to -2.
	m, err := c2.Downvote(bad)
	if err != nil {
		t.Fatal(err)
	}
	r.send("c2", m)
	// w1 downvotes their own entry too (allowed: they only auto-upvote on
	// completion, and this row is partial).
	m, err = c1.Downvote(bad)
	if err != nil {
		t.Fatal(err)
	}
	inserts := len(r.core.CCLog())
	r.send("c1", m)
	if got := len(r.core.CCLog()); got <= inserts {
		t.Fatalf("CC should have inserted a replacement row")
	}
	// All replicas still identical and the PRI restored.
	want := r.core.Master().SnapshotText()
	if c1.Replica().SnapshotText() != want || c2.Replica().SnapshotText() != want {
		t.Fatalf("replicas diverged after CC insert")
	}
	if !r.core.Planner().CheckPRI(r.core.Master()) {
		t.Fatalf("PRI must be restored")
	}
}

func TestLateJoinGetsSnapshot(t *testing.T) {
	r := newRig(t, cardinalityConfig(t, 2))
	c1 := r.join("c1", "w1")
	msgs, err := c1.Fill(c1.Rows(nil)[0].ID, 0, "x")
	if err != nil {
		t.Fatal(err)
	}
	r.send("c1", msgs...)

	c2 := r.join("c2", "w2")
	if c2.Replica().SnapshotText() != r.core.Master().SnapshotText() {
		t.Fatalf("late joiner snapshot diverges from master")
	}
	if c2.Estimates() == nil {
		t.Fatalf("late joiner should receive estimates")
	}
}

func TestHandleErrors(t *testing.T) {
	r := newRig(t, cardinalityConfig(t, 1))
	if _, err := r.core.HandleBroadcast("ghost", sync.Message{Type: sync.MsgUpvote}); err == nil || !strings.Contains(err.Error(), "unknown client") {
		t.Fatalf("unknown client err = %v", err)
	}
	r.join("c1", "w1")
	if _, err := r.core.HandleBroadcast("c1", sync.Message{Type: sync.MsgSnapshot}); err == nil {
		t.Fatalf("clients must not send snapshots")
	}
	if _, err := r.core.HandleBroadcast("c1", sync.Message{Type: sync.MsgUpvote, Vec: model.VectorOf("a")}); err == nil {
		t.Fatalf("bad width should surface the replica error")
	}
	r.core.RemoveClient("c1")
	if got := r.core.Status().Clients; got != 0 {
		t.Fatalf("clients = %d", got)
	}
}

// TestMsgTypeAcceptedIsReplayed holds the bookkeeping trace's contract
// (§3.3): the core accepts from a client exactly the types MsgType.IsOp
// names, and everything it accepted replays into the master's state. Each
// type, declared or not, is offered as a well-formed message of its kind,
// so a rejection is the type's and not its payload's.
func TestMsgTypeAcceptedIsReplayed(t *testing.T) {
	for typ := sync.MsgType(0); typ <= sync.MsgUndownvote+1; typ++ {
		r := newRig(t, cardinalityConfig(t, 2))
		c1 := r.join("c1", "w1")
		m := sync.Message{Type: typ}
		switch typ {
		case sync.MsgInsert:
			m.Row = "probe-row"
		case sync.MsgReplace:
			m.Row, m.NewRow, m.Vec = c1.Rows(nil)[0].ID, "probe-new", model.NewVector(2).With(0, "a")
		case sync.MsgUpvote, sync.MsgDownvote, sync.MsgUnupvote, sync.MsgUndownvote:
			m.Vec = model.VectorOf("a", "b")
		case sync.MsgSnapshot:
			m.Snapshot = r.core.Master().TakeSnapshot()
		case sync.MsgEstimate:
			m.Estimates = &sync.Estimates{PerColumn: []float64{1, 1}, Upvote: 1, Downvote: 1}
		}
		_, err := r.core.HandleBroadcast("c1", m)
		if accepted := err == nil; accepted != typ.IsOp() {
			t.Errorf("%v: core accepted = %v (err %v), IsOp = %v", typ, accepted, err, typ.IsOp())
			continue
		}
		if err != nil {
			continue
		}
		rep, err := replay.Rebuild(r.core.Master().Schema(), r.core.Trace(), r.core.CCLog())
		if err != nil {
			t.Errorf("%v: the core accepted it, but its trace does not replay: %v", typ, err)
			continue
		}
		if got, want := rep.SnapshotText(), r.core.Master().SnapshotText(); got != want {
			t.Errorf("%v: replayed state differs from the master:\n%s\n%s", typ, got, want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	s := kvSchema(t)
	if _, err := New(Config{}); err == nil {
		t.Errorf("missing schema should fail")
	}
	if _, err := New(Config{Schema: s}); err == nil {
		t.Errorf("missing template should fail")
	}
	bad := Config{Schema: s, Template: constraint.Cardinality(s, 1),
		Score: func(u, d int) int { return 1 }}
	if _, err := New(bad); err == nil {
		t.Errorf("invalid scoring function should fail")
	}
	// Every estimate is a share of the budget; one that cannot be encoded
	// would fail every client's send.
	for _, budget := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		cfg := cardinalityConfig(t, 1)
		cfg.Budget = budget
		if _, err := New(cfg); err == nil {
			t.Errorf("budget %v should fail", budget)
		}
	}
}

// TestValuesTemplateRun: workers complete a partially-specified template and
// the run finishes exactly when the values constraint is met.
func TestValuesTemplateRun(t *testing.T) {
	s := kvSchema(t)
	tmpl, err := constraint.PredTemplate(s,
		constraint.TemplateRow{constraint.Eq("x"), constraint.Any}, // value pinned for k
		constraint.TemplateRow{constraint.Any, constraint.Any},     // plus one free row
	)
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, Config{
		Schema: s, Score: model.MajorityShortcut(3), Template: tmpl,
		Budget: 5, Scheme: pay.ColumnWeighted, Clock: simclock.NewSim(0),
	})
	c1 := r.join("c1", "w1")
	c2 := r.join("c2", "w2")

	// Find the row seeded with k=x and the empty row.
	var seeded, empty model.RowID
	for _, row := range c1.Rows(nil) {
		if row.Vec[0].Set && row.Vec[0].Val == "x" {
			seeded = row.ID
		} else if row.Vec.IsEmpty() {
			empty = row.ID
		}
	}
	if seeded == "" || empty == "" {
		t.Fatalf("template seeding wrong: %v", c1.Rows(nil))
	}
	msgs, err := c1.Fill(seeded, 1, "1")
	if err != nil {
		t.Fatal(err)
	}
	r.send("c1", msgs...)
	msgs, err = c1.Fill(empty, 0, "y")
	if err != nil {
		t.Fatal(err)
	}
	r.send("c1", msgs...)
	msgs, err = c1.Fill(msgs[0].NewRow, 1, "2")
	if err != nil {
		t.Fatal(err)
	}
	r.send("c1", msgs...)

	if r.core.Done() {
		t.Fatalf("needs second votes")
	}
	for _, row := range c2.Rows(nil) {
		if row.Vec.IsComplete() {
			m, uerr := c2.Upvote(row.ID)
			if uerr != nil {
				t.Fatal(uerr)
			}
			r.send("c2", m)
		}
	}
	if !r.core.Done() || !r.core.Planner().SatisfiedBy(r.core.FinalTable()) {
		t.Fatalf("values-template run should be done and satisfied")
	}
	final := r.core.FinalTable()
	foundX := false
	for _, row := range final {
		if row.Vec[0].Val == "x" {
			foundX = true
		}
	}
	if !foundX {
		t.Fatalf("final table must contain the pinned k=x row: %v", final)
	}
}

// TestEstimateBroadcastContents: after worker actions, estimate broadcasts
// carry per-column fill values and vote values, all positive while budget
// remains.
func TestEstimateBroadcastContents(t *testing.T) {
	r := newRig(t, cardinalityConfig(t, 2))
	c1 := r.join("c1", "w1")
	msgs, err := c1.Fill(c1.Rows(nil)[0].ID, 0, "x")
	if err != nil {
		t.Fatal(err)
	}
	r.send("c1", msgs...)
	est := c1.Estimates()
	if est == nil {
		t.Fatalf("no estimates broadcast")
	}
	if len(est.PerColumn) != 2 {
		t.Fatalf("PerColumn = %v", est.PerColumn)
	}
	for i, v := range est.PerColumn {
		if v <= 0 {
			t.Fatalf("column %d estimate = %v, want positive", i, v)
		}
	}
	if est.Upvote <= 0 || est.Downvote <= 0 {
		t.Fatalf("vote estimates = %v/%v", est.Upvote, est.Downvote)
	}
}

// TestClientDisconnectMidRun: removing a client must not break later
// broadcasts or completion.
func TestClientDisconnectMidRun(t *testing.T) {
	r := newRig(t, cardinalityConfig(t, 1))
	c1 := r.join("c1", "w1")
	c2 := r.join("c2", "w2")
	msgs, err := c1.Fill(c1.Rows(nil)[0].ID, 0, "x")
	if err != nil {
		t.Fatal(err)
	}
	r.send("c1", msgs...)
	// c2 vanishes; c1 keeps working.
	r.core.RemoveClient("c2")
	delete(r.clients, "c2")
	for _, row := range c1.Rows(nil) {
		if row.Vec[0].Set && !row.Vec[1].Set {
			msgs, err = c1.Fill(row.ID, 1, "1")
			if err != nil {
				t.Fatal(err)
			}
			r.send("c1", msgs...)
		}
	}
	// A third worker joins and completes the vote.
	c3 := r.join("c3", "w3")
	for _, row := range c3.Rows(nil) {
		if row.Vec.IsComplete() {
			m, err := c3.Upvote(row.ID)
			if err != nil {
				t.Fatal(err)
			}
			r.send("c3", m)
		}
	}
	if !r.core.Done() {
		t.Fatalf("run should finish after disconnect and rejoin")
	}
	_ = c2
}

func TestCoreAccessors(t *testing.T) {
	r := newRig(t, cardinalityConfig(t, 1))
	r.join("c1", "w1")
	if got := r.core.JoinTimes(); len(got) != 1 || got["w1"] == 0 {
		t.Fatalf("JoinTimes = %v", got)
	}
	if start := r.core.Log().Start; start < 0 {
		t.Fatalf("Log().Start = %d", start)
	}
	if _, err := r.core.ComputePay(); err != nil {
		t.Fatalf("ComputePay: %v", err)
	}
}

func TestNetServerAccessorsAndSlowClient(t *testing.T) {
	core, err := New(cardinalityConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	ns := NewNetServer(core, nil)
	// Swap in a tiny log so cursor lag triggers quickly.
	ns.Shutdown()
	ns.log = newBcastLog(4, nil)
	defer ns.log.close()

	evicted := make(chan struct{})
	slow := follow(ns.log, func() { close(evicted) })
	fast := follow(ns.log, nil)
	rec := []Broadcast{{Prepared: sync.NewPrepared(sync.Message{Type: sync.MsgDone})}}
	out := make([]Broadcast, 4)
	for i := 0; i < 16; i++ {
		ns.log.publish(rec)
		if n, err := ns.log.drainBatch(fast, out); err != nil || n != 1 {
			t.Fatalf("fast cursor drain %d = %d, %v", i, n, err)
		}
	}
	// The stalled cursor is evicted from the publishing side...
	select {
	case <-evicted:
	case <-time.After(5 * time.Second):
		t.Fatalf("stalled cursor was not evicted by the publisher")
	}
	// ...and its own drain reports the lag, while the fast cursor is fine.
	if _, err := ns.log.drainBatch(slow, out); err != errCursorLagged {
		t.Fatalf("lagged cursor drain = %v, want errCursorLagged", err)
	}
	if n, err := ns.log.drainBatch(fast, out); err != nil || n != 0 {
		t.Fatalf("fast cursor drain = %d, %v; want drained and live", n, err)
	}
	// Closing the log fails followers with errLogClosed.
	ns.log.close()
	if _, err := ns.log.drainBatch(fast, out); err != errLogClosed {
		t.Fatalf("drain after close = %v, want errLogClosed", err)
	}
}

func TestNetServerHandlerRejectsMissingWorker(t *testing.T) {
	core, err := New(cardinalityConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	ns := NewNetServer(core, nil)
	srv := httptest.NewServer(ns.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing worker = %d", resp.StatusCode)
	}
}

// TestRepairStats drives a small run through a replacement insert and checks
// the RepairStats surface, and the core's incremental state against scratch.
func TestRepairStats(t *testing.T) {
	r := newRig(t, cardinalityConfig(t, 2))
	c1 := r.join("c1", "w1")
	c2 := r.join("c2", "w2")

	st := r.core.RepairStats()
	if st.Repairs == 0 {
		t.Fatalf("init must have run at least one repair")
	}

	// A fill followed by two downvotes forces the CC to insert a replacement
	// row (exercising the incremental augment + insert path).
	row := c1.Rows(nil)[0]
	msgs, err := c1.Fill(row.ID, 0, "junk")
	if err != nil {
		t.Fatal(err)
	}
	r.send("c1", msgs...)
	bad := msgs[0].NewRow
	for _, cl := range []struct {
		id string
		c  *client.Client
	}{{"c2", c2}, {"c1", c1}} {
		m, err := cl.c.Downvote(bad)
		if err != nil {
			t.Fatal(err)
		}
		r.send(cl.id, m)
	}

	got := r.core.RepairStats()
	if got.Repairs <= st.Repairs || got.Augments == 0 || got.AugmentVisits == 0 || got.Inserts <= st.Inserts {
		t.Fatalf("stats did not advance: before %+v, after %+v", st, got)
	}
	if got.Overruns != 0 {
		t.Fatalf("unexpected repair overruns: %+v", got)
	}
	if err := scratchMismatch(r.core); err != nil {
		t.Fatal(err)
	}
}
