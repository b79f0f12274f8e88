package sync

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	_ "unsafe" // go:linkname

	"crowdfill/internal/model"
)

// netSim models the paper's execution environment: one server, K clients,
// reliable in-order links in both directions. Clients generate random valid
// primitive operations against their own replica; the scheduler interleaves
// op generation and message deliveries arbitrarily. At quiescence the
// convergence theorem demands identical candidate tables and histories
// everywhere.
type netSim struct {
	schema  *model.Schema
	server  *Replica
	clients []*Replica
	gens    []*IDGen
	// toServer[i] is the FIFO queue client i -> server;
	// toClient[i] is the FIFO queue server -> client i.
	toServer [][]Message
	toClient [][]Message
	rng      *rand.Rand
	ops      int
	// castUp and castDown track votes each client has cast and not yet
	// undone, so the generator can issue valid §8 undo operations.
	castUp   [][]model.Vector
	castDown [][]model.Vector
	// lemma1 maps each row id to the value it was created with: Lemma 1
	// says no id is ever associated with a second value, anywhere.
	lemma1 map[model.RowID]string
	t      *testing.T
}

func newNetSim(schema *model.Schema, k int, seed int64) *netSim {
	ns := &netSim{
		schema:   schema,
		server:   NewReplica(schema),
		rng:      rand.New(rand.NewSource(seed)),
		toServer: make([][]Message, k),
		toClient: make([][]Message, k),
	}
	for i := 0; i < k; i++ {
		ns.clients = append(ns.clients, NewReplica(schema))
		ns.gens = append(ns.gens, NewIDGen(fmt.Sprintf("c%d", i)))
	}
	ns.castUp = make([][]model.Vector, k)
	ns.castDown = make([][]model.Vector, k)
	ns.lemma1 = make(map[model.RowID]string)
	return ns
}

// checkLemma1 records/validates the value associated with a row id.
func (ns *netSim) checkLemma1(m Message) {
	var id model.RowID
	var val string
	switch m.Type {
	case MsgInsert:
		id = m.Row
		val = model.NewVector(ns.schema.NumColumns()).Encode()
	case MsgReplace:
		id = m.NewRow
		val = m.Vec.Encode()
	default:
		return
	}
	if prev, ok := ns.lemma1[id]; ok {
		if prev != val && ns.t != nil {
			ns.t.Fatalf("lemma 1 violated: row %s associated with two values", id)
		}
		return
	}
	ns.lemma1[id] = val
}

// genOp makes client i perform one random valid primitive operation, if any
// is possible, and enqueues the message to the server.
func (ns *netSim) genOp(i int) bool {
	c := ns.clients[i]
	g := ns.gens[i]
	rows := c.Table().Rows()

	type action struct {
		kind int
		row  *model.Row
		col  int
	}
	var actions []action
	// insert is always possible (the model allows any client to insert;
	// the production system restricts it to CC, but the theorem covers it).
	actions = append(actions, action{kind: 0})
	for _, r := range rows {
		for col := range r.Vec {
			if !r.Vec[col].Set {
				actions = append(actions, action{kind: 1, row: r, col: col})
			}
		}
		if r.Vec.IsComplete() {
			actions = append(actions, action{kind: 2, row: r})
		}
		if r.Vec.IsPartial() {
			actions = append(actions, action{kind: 3, row: r})
		}
	}
	if len(ns.castUp[i]) > 0 {
		actions = append(actions, action{kind: 4})
	}
	if len(ns.castDown[i]) > 0 {
		actions = append(actions, action{kind: 5})
	}
	a := actions[ns.rng.Intn(len(actions))]
	var m Message
	var err error
	switch a.kind {
	case 0:
		m, err = c.Insert(g.Next())
	case 1:
		m, err = c.Fill(a.row.ID, a.col, fmt.Sprintf("v%d", ns.rng.Intn(4)), g.Next())
	case 2:
		m, err = c.Upvote(a.row.ID)
		if err == nil {
			ns.castUp[i] = append(ns.castUp[i], m.Vec.Clone())
		}
	case 3:
		m, err = c.Downvote(a.row.ID)
		if err == nil {
			ns.castDown[i] = append(ns.castDown[i], m.Vec.Clone())
		}
	case 4: // §8 undo: retract one of this client's own upvotes
		j := ns.rng.Intn(len(ns.castUp[i]))
		v := ns.castUp[i][j]
		ns.castUp[i] = append(ns.castUp[i][:j], ns.castUp[i][j+1:]...)
		m, err = c.UndoUpvote(v)
	case 5:
		j := ns.rng.Intn(len(ns.castDown[i]))
		v := ns.castDown[i][j]
		ns.castDown[i] = append(ns.castDown[i][:j], ns.castDown[i][j+1:]...)
		m, err = c.UndoDownvote(v)
	}
	if err != nil {
		panic(fmt.Sprintf("locally valid op failed: %v", err))
	}
	m.Origin = fmt.Sprintf("c%d", i)
	ns.toServer[i] = append(ns.toServer[i], m)
	ns.ops++
	return true
}

// deliverToServer pops one message from client i's queue, applies it at the
// server, and forwards it to every other client.
func (ns *netSim) deliverToServer(i int) {
	if len(ns.toServer[i]) == 0 {
		return
	}
	m := ns.toServer[i][0]
	ns.toServer[i] = ns.toServer[i][1:]
	ns.checkLemma1(m)
	if err := ns.server.Apply(m); err != nil {
		panic(fmt.Sprintf("server apply: %v", err))
	}
	for j := range ns.clients {
		if j != i {
			ns.toClient[j] = append(ns.toClient[j], m)
		}
	}
}

// deliverToClient pops one message from the server->client j queue.
func (ns *netSim) deliverToClient(j int) {
	if len(ns.toClient[j]) == 0 {
		return
	}
	m := ns.toClient[j][0]
	ns.toClient[j] = ns.toClient[j][1:]
	if err := ns.clients[j].Apply(m); err != nil {
		panic(fmt.Sprintf("client %d apply: %v", j, err))
	}
}

// step performs one random schedulable event. budget limits op generation.
func (ns *netSim) step(opBudget int) {
	k := len(ns.clients)
	// Choose among: generate op (if budget), deliver to server, deliver to client.
	for tries := 0; tries < 10; tries++ {
		switch ns.rng.Intn(3) {
		case 0:
			if ns.ops < opBudget {
				ns.genOp(ns.rng.Intn(k))
				return
			}
		case 1:
			i := ns.rng.Intn(k)
			if len(ns.toServer[i]) > 0 {
				ns.deliverToServer(i)
				return
			}
		case 2:
			j := ns.rng.Intn(k)
			if len(ns.toClient[j]) > 0 {
				ns.deliverToClient(j)
				return
			}
		}
	}
}

// quiesce drains every queue.
func (ns *netSim) quiesce() {
	for {
		moved := false
		for i := range ns.clients {
			if len(ns.toServer[i]) > 0 {
				ns.deliverToServer(i)
				moved = true
			}
		}
		for j := range ns.clients {
			for len(ns.toClient[j]) > 0 {
				ns.deliverToClient(j)
				moved = true
			}
		}
		if !moved {
			return
		}
	}
}

// TestConvergenceTheorem is the paper's §2.4.2 theorem as an executable
// property: for many random op streams and delivery schedules, at quiescence
// the server and all clients hold identical candidate tables and identical
// vote histories, and Lemma 3's invariants hold everywhere.
//
// One seed runs twice, the second time with model's vector hash narrowed to
// four values, so that nearly every entry of the value indexes and the vote
// histories sits on a collision chain: it must reach the same state.
func TestConvergenceTheorem(t *testing.T) {
	schema := model.MustSchema("T", []model.Column{
		{Name: "a"}, {Name: "b"}, {Name: "c"},
	}, "a")
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		checkConvergence(t, schema, seed)
	}
	const chained = 7
	want := checkConvergence(t, schema, chained)
	vecHashMask = 3
	defer func() { vecHashMask = ^uint64(0) }()
	if got := checkConvergence(t, schema, chained); got != want {
		t.Fatalf("seed %d through collision chains reached another state:\n%s\nwant:\n%s", chained, got, want)
	}
}

// vecHashMask is model's mask over every vector hash (see model.VecMap); a
// test narrows it to force collisions.
//
//go:linkname vecHashMask crowdfill/internal/model.vecHashMask
var vecHashMask uint64

// checkConvergence runs one seed of the theorem to quiescence, checks that
// every replica equals the server's and satisfies Lemma 3, and returns the
// server's state.
func checkConvergence(t *testing.T, schema *model.Schema, seed int) string {
	t.Helper()
	ns := newNetSim(schema, 2+seed%4, int64(seed))
	ns.t = t
	opBudget := 30 + seed*3
	for step := 0; step < opBudget*10; step++ {
		ns.step(opBudget)
	}
	ns.quiesce()
	want := ns.server.SnapshotText()
	for j, c := range ns.clients {
		if got := c.SnapshotText(); got != want {
			t.Fatalf("seed %d: client %d diverged from server\nserver:\n%s\nclient:\n%s",
				seed, j, want, got)
		}
	}
	if err := ns.server.CheckLemma3(); err != nil {
		t.Fatalf("seed %d: server %v", seed, err)
	}
	for j, c := range ns.clients {
		if err := c.CheckLemma3(); err != nil {
			t.Fatalf("seed %d: client %d %v", seed, j, err)
		}
	}
	return want
}

// TestConvergenceLateJoin extends the theorem to snapshot-initialized
// late-joining clients: a client that joins mid-collection from a server
// snapshot converges with everyone else.
func TestConvergenceLateJoin(t *testing.T) {
	schema := model.MustSchema("T", []model.Column{{Name: "a"}, {Name: "b"}}, "a")
	for seed := int64(0); seed < 10; seed++ {
		ns := newNetSim(schema, 2, seed)
		for step := 0; step < 200; step++ {
			ns.step(25)
		}
		// A third client joins from the server's current snapshot. All
		// messages the server processed so far are reflected in the
		// snapshot; in-flight server->client queues don't concern it.
		late := NewReplica(schema)
		if err := late.LoadSnapshot(ns.server.TakeSnapshot()); err != nil {
			t.Fatalf("seed %d: join: %v", seed, err)
		}
		ns.clients = append(ns.clients, late)
		ns.gens = append(ns.gens, NewIDGen("late"))
		ns.toServer = append(ns.toServer, nil)
		ns.toClient = append(ns.toClient, nil)
		ns.castUp = append(ns.castUp, nil)
		ns.castDown = append(ns.castDown, nil)
		for step := 0; step < 200; step++ {
			ns.step(50)
		}
		ns.quiesce()
		want := ns.server.SnapshotText()
		for j, c := range ns.clients {
			if got := c.SnapshotText(); got != want {
				t.Fatalf("seed %d: client %d diverged after late join", seed, j)
			}
		}
	}
}

// TestConvergenceFinalTablesAgree: since candidate tables and vote counts
// converge, the derived final tables agree too.
func TestConvergenceFinalTablesAgree(t *testing.T) {
	schema := model.MustSchema("T", []model.Column{{Name: "a"}, {Name: "b"}}, "a")
	ns := newNetSim(schema, 3, 99)
	for step := 0; step < 800; step++ {
		ns.step(80)
	}
	ns.quiesce()
	f := model.MajorityShortcut(3)
	want := fmt.Sprint(model.FinalVectors(ns.server.Table(), f))
	for j, c := range ns.clients {
		if got := fmt.Sprint(model.FinalVectors(c.Table(), f)); got != want {
			t.Fatalf("client %d final table diverged: %s vs %s", j, got, want)
		}
	}
}

func BenchmarkReplicaApplyReplace(b *testing.B) {
	schema := model.MustSchema("T", []model.Column{{Name: "a"}, {Name: "b"}, {Name: "c"}}, "a")
	r := NewReplica(schema)
	g := NewIDGen("c")
	ids := make([]model.RowID, 0, b.N)
	for i := 0; i < b.N; i++ {
		m, _ := r.Insert(g.Next())
		ids = append(ids, m.Row)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Fill(ids[i], 0, "v", g.Next()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplicaApplyVote(b *testing.B) {
	schema := model.MustSchema("T", []model.Column{{Name: "a"}, {Name: "b"}}, "a")
	r := NewReplica(schema)
	g := NewIDGen("c")
	// 100-row table to vote over.
	var target model.RowID
	for i := 0; i < 100; i++ {
		m, _ := r.Insert(g.Next())
		id := m.Row
		id2 := g.Next()
		r.Fill(id, 0, fmt.Sprintf("k%d", i), id2)
		id3 := g.Next()
		r.Fill(id2, 1, "v", id3)
		target = id3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Upvote(target); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeMessageNeverPanics fuzzes the wire decoder with arbitrary bytes.
func TestDecodeMessageNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		// Must not panic; errors are fine.
		_, _ = decodeMessage(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeDecodePropertyRoundTrip: any message built from the operation
// surface survives the wire.
func TestEncodeDecodePropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	schema := model.MustSchema("T", []model.Column{{Name: "a"}, {Name: "b"}}, "a")
	rep := NewReplica(schema)
	g := NewIDGen("c")
	for i := 0; i < 200; i++ {
		rows := rep.Table().Rows()
		var m Message
		var err error
		if len(rows) == 0 || rng.Intn(4) == 0 {
			m, err = rep.Insert(g.Next())
		} else {
			r := rows[rng.Intn(len(rows))]
			filled := false
			for col, cell := range r.Vec {
				if !cell.Set {
					m, err = rep.Fill(r.ID, col, fmt.Sprintf("v|%d:", rng.Intn(9)), g.Next())
					filled = true
					break
				}
			}
			if !filled {
				m, err = rep.Upvote(r.ID)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		data, err := EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeMessage(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != m.Type || got.Row != m.Row || got.NewRow != m.NewRow || !got.Vec.Equal(m.Vec) {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
		}
	}
}
