package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"crowdfill/internal/client"
	"crowdfill/internal/constraint"
	"crowdfill/internal/model"
	"crowdfill/internal/pay"
	"crowdfill/internal/simclock"
	"crowdfill/internal/sync"
)

// TestLogDeliveryMatchesDirectOutbound is the delivery-equivalence check
// between the spec of delivery — every broadcast materialized per recipient
// in sorted client order (handleExpanded, the fan-out the simulation harness
// performs) — and the sequenced broadcast log with per-connection cursors
// (HandleBroadcast + publish + drainBatch — what the network server runs).
// Two identical cores consume the
// same randomized op mix, one through each plane, and every client must
// receive a byte-identical payload sequence, including clients that join
// mid-stream.
func TestLogDeliveryMatchesDirectOutbound(t *testing.T) {
	s := kvSchema(t)
	mkCore := func() *Core {
		core, err := New(Config{
			Schema:   s,
			Score:    model.MajorityShortcut(3),
			Template: constraint.Cardinality(s, 3),
			Budget:   10,
			Scheme:   pay.DualWeighted,
			Clock:    simclock.NewSim(0),
		})
		if err != nil {
			t.Fatal(err)
		}
		return core
	}
	coreA, coreB := mkCore(), mkCore()
	logB := newBcastLog(defaultLogCapacity, nil, nil)
	defer logB.close()

	payload := func(p *sync.Prepared) []byte {
		t.Helper()
		b, err := p.Payload()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	outBytes := func(o Outbound) []byte {
		t.Helper()
		if o.Prepared != nil {
			return payload(o.Prepared)
		}
		b, err := sync.EncodeMessage(o.Msg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	seqA := make(map[string][][]byte)
	seqB := make(map[string][][]byte)
	cursors := make(map[string]*flushConn)
	recs := make([]Broadcast, 8)
	mirrors := make(map[string]*client.Client)
	var active []string

	drainB := func() {
		t.Helper()
		for _, id := range active {
			for {
				n, err := logB.drainBatch(cursors[id], recs)
				if err != nil {
					t.Fatalf("cursor %s: %v", id, err)
				}
				if n == 0 {
					break
				}
				for _, rec := range recs[:n] {
					if rec.Exclude != id {
						seqB[id] = append(seqB[id], payload(rec.Prepared))
					}
				}
			}
		}
	}

	join := func(id string) {
		t.Helper()
		worker := "w-" + id
		mc, err := client.New(client.Config{ID: id, Worker: worker, Schema: s})
		if err != nil {
			t.Fatal(err)
		}
		mirrors[id] = mc
		outA := coreA.AddClient(id, worker)
		for _, o := range outA {
			seqA[o.To] = append(seqA[o.To], outBytes(o))
			if c, ok := mirrors[o.To]; ok {
				if err := c.HandleServer(o.Msg); err != nil {
					t.Fatalf("mirror %s: %v", o.To, err)
				}
			}
		}
		// Join point pinned in the sequence exactly like NetServer.serve:
		// AddClient and cursor creation are one atomic step, so the private
		// snapshot covers everything before the cursor and nothing after.
		outB := coreB.AddClient(id, worker)
		cursors[id] = follow(logB, nil)
		for _, o := range outB {
			seqB[id] = append(seqB[id], outBytes(o))
		}
		active = append(active, id)
	}

	// A mirror-driven random op: fills, votes, and undos, valid against the
	// mirror's replica (which tracks core A exactly).
	rng := rand.New(rand.NewSource(42))
	vals := []string{"ada", "bob", "cyd", "dee"}
	genOp := func(c *client.Client) []sync.Message {
		rows := c.Rows(nil)
		if len(rows) == 0 {
			return nil
		}
		row := rows[rng.Intn(len(rows))]
		switch rng.Intn(5) {
		case 0, 1: // fill some empty cell
			for ci := range row.Vec {
				if !row.Vec[ci].Set {
					msgs, err := c.Fill(row.ID, ci, vals[rng.Intn(len(vals))])
					if err != nil {
						return nil
					}
					return msgs
				}
			}
		case 2:
			m, err := c.Upvote(row.ID)
			if err != nil {
				return nil
			}
			return []sync.Message{m}
		case 3:
			m, err := c.Downvote(row.ID)
			if err != nil {
				return nil
			}
			return []sync.Message{m}
		case 4:
			m, err := c.UndoVote(row.Vec)
			if err != nil {
				return nil
			}
			return []sync.Message{m}
		}
		return nil
	}

	join("c1")
	join("c2")
	for step := 0; step < 400 && !coreA.Done(); step++ {
		if step == 60 {
			join("c3")
		}
		if step == 140 {
			join("c4")
		}
		id := active[rng.Intn(len(active))]
		for _, m := range genOp(mirrors[id]) {
			outA, errA := handleExpanded(coreA, id, m)
			bcasts, errB := coreB.HandleBroadcast(id, m)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("handle divergence: %v vs %v", errA, errB)
			}
			if errA != nil {
				continue
			}
			for _, o := range outA {
				seqA[o.To] = append(seqA[o.To], outBytes(o))
				if c, ok := mirrors[o.To]; ok {
					if err := c.HandleServer(o.Msg); err != nil {
						t.Fatalf("mirror %s: %v", o.To, err)
					}
				}
			}
			logB.publish(bcasts)
			drainB()
		}
	}

	if coreA.Done() != coreB.Done() {
		t.Fatalf("completion divergence: %v vs %v", coreA.Done(), coreB.Done())
	}
	for _, id := range active {
		a, b := seqA[id], seqB[id]
		if len(a) == 0 {
			t.Fatalf("client %s saw no traffic; op mix too timid", id)
		}
		if len(a) != len(b) {
			t.Fatalf("client %s: %d messages via Outbound, %d via log", id, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("client %s message %d differs:\n%s\n%s", id, i, a[i], b[i])
			}
		}
	}
}

// TestJoinStormSharesSnapshotEncoding: between table mutations, every joiner
// receives the same epoch-cached Prepared snapshot (one TakeSnapshot + one
// JSON encode for the whole storm), each snapshot loads into a replica that
// matches the master exactly, and a mutation invalidates the cache.
func TestJoinStormSharesSnapshotEncoding(t *testing.T) {
	core, err := New(cardinalityConfig(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	s := core.Master().Schema()
	master := core.Master().SnapshotText()

	var shared *sync.Prepared
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("c%02d", i)
		out := core.AddClient(id, "w-"+id)
		snap := out[0]
		if snap.Msg.Type != sync.MsgSnapshot || snap.Prepared == nil {
			t.Fatalf("first join message = %+v", snap.Msg.Type)
		}
		if i == 0 {
			shared = snap.Prepared
		} else if snap.Prepared != shared {
			t.Fatalf("joiner %d re-encoded the snapshot during a join storm", i)
		}
		mc, err := client.New(client.Config{ID: id, Worker: "w-" + id, Schema: s})
		if err != nil {
			t.Fatal(err)
		}
		if err := mc.HandleServer(snap.Msg); err != nil {
			t.Fatal(err)
		}
		if got := mc.Replica().SnapshotText(); got != master {
			t.Fatalf("joiner %d snapshot does not match master:\n%s\n%s", i, got, master)
		}
	}

	// A table mutation bumps the replica epoch; the next joiner gets a fresh
	// snapshot reflecting it.
	mc := mirrorOf(t, core, "c00", "w-c00")
	var msgs []sync.Message
	for _, row := range mc.Rows(nil) {
		if !row.Vec[0].Set {
			var err error
			msgs, err = mc.Fill(row.ID, 0, "x")
			if err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	for _, m := range msgs {
		if _, err := core.HandleBroadcast("c00", m); err != nil {
			t.Fatal(err)
		}
	}
	out := core.AddClient("late", "w-late")
	if out[0].Prepared == shared {
		t.Fatal("snapshot cache not invalidated by a table mutation")
	}
	if got := core.Master().SnapshotText(); got == master {
		t.Fatal("mutation did not change the master (test is vacuous)")
	}
}

// mirrorOf builds a client synced to the core's current state via AddClient's
// own snapshot (registering id as a connected client in the process).
func mirrorOf(t *testing.T, core *Core, id, worker string) *client.Client {
	t.Helper()
	mc, err := client.New(client.Config{ID: id, Worker: worker, Schema: core.Master().Schema()})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range core.AddClient(id, worker) {
		if err := mc.HandleServer(o.Msg); err != nil {
			t.Fatal(err)
		}
	}
	return mc
}
