package server

import (
	"fmt"
	"math/rand"
	gosync "sync"
	"testing"
	"time"

	"crowdfill/internal/client"
	"crowdfill/internal/constraint"
	"crowdfill/internal/model"
	"crowdfill/internal/pay"
	"crowdfill/internal/sync"
	"crowdfill/internal/transport"
)

// TestChaosDisconnectReconnect exercises the live server under connection
// churn: workers repeatedly drop mid-run and reconnect as fresh clients
// (snapshot-initialized, per §2.4's late-join story). The collection must
// still finish with a correct table and a consistent trace.
func TestChaosDisconnectReconnect(t *testing.T) {
	s := kvSchema(t)
	core, err := New(Config{
		Schema:   s,
		Score:    model.MajorityShortcut(3),
		Template: constraint.Cardinality(s, 6),
		Budget:   6,
		Scheme:   pay.ColumnWeighted,
	})
	if err != nil {
		t.Fatal(err)
	}
	ns := NewNetServer(core, nil)

	type session struct {
		runner *client.Runner
	}
	connect := func(worker string) *session {
		serverSide, clientSide := transport.Pipe(256)
		go ns.ServeConn(serverSide, worker)
		c, err := client.New(client.Config{
			ID:     fmt.Sprintf("%s-%d", worker, time.Now().UnixNano()),
			Worker: worker,
			Schema: s,
		})
		if err != nil {
			t.Fatal(err)
		}
		return &session{runner: client.NewRunner(c, clientSide)}
	}

	var wg gosync.WaitGroup
	work := func(worker string, keys []string, seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		sess := connect(worker)
		deadline := time.Now().Add(30 * time.Second)
		for !sess.runner.Done() && time.Now().Before(deadline) {
			// Random chaos: drop the connection and come back.
			if rng.Intn(12) == 0 {
				sess.runner.Close()
				time.Sleep(time.Millisecond)
				sess = connect(worker)
			}
			_ = sess.runner.Do(func(c *client.Client) ([]sync.Message, error) {
				rows := c.Rows(nil)
				// Vote on a complete row not yet voted.
				for _, r := range rows {
					if r.Vec.IsComplete() && !c.VotedOn(r.Vec) {
						if m, err := c.Upvote(r.ID); err == nil {
							return []sync.Message{m}, nil
						}
					}
				}
				// Fill: own keys first, then second columns.
				if len(keys) > 0 {
					for _, r := range rows {
						if r.Vec.IsEmpty() {
							msgs, err := c.Fill(r.ID, 0, keys[0])
							if err == nil {
								keys = keys[1:]
								return msgs, nil
							}
						}
					}
				}
				for _, r := range rows {
					if r.Vec[0].Set && !r.Vec[1].Set {
						if msgs, err := c.Fill(r.ID, 1, "val-"+r.Vec[0].Val); err == nil {
							return msgs, nil
						}
					}
				}
				return nil, nil
			})
			time.Sleep(time.Millisecond)
		}
		sess.runner.Close()
	}

	wg.Add(3)
	go work("w1", []string{"a", "b", "c"}, 1)
	go work("w2", []string{"d", "e", "f"}, 2)
	go work("w3", nil, 3)
	wg.Wait()

	if !ns.Done() {
		t.Fatalf("collection did not finish under chaos")
	}
	ns.WithCore(func(c *Core) {
		final := c.FinalTable()
		if len(final) < 6 {
			t.Fatalf("final rows = %d, want >= 6", len(final))
		}
		if !c.Planner().SatisfiedBy(c.FinalTable()) {
			t.Fatalf("constraint unsatisfied")
		}
		// Trace stays strictly ordered despite the churn.
		trace := c.Trace()
		for i := 1; i < len(trace); i++ {
			if trace[i].TS <= trace[i-1].TS {
				t.Fatalf("trace timestamps not strictly increasing at %d", i)
			}
		}
		// Pay still computes and respects the budget; reconnecting under the
		// same worker identity aggregates into one pay line.
		alloc, err := c.ComputePay()
		if err != nil {
			t.Fatalf("ComputePay: %v", err)
		}
		if alloc.Allocated > 6+1e-9 {
			t.Fatalf("allocated %v", alloc.Allocated)
		}
		for w := range alloc.PerWorker {
			if w != "w1" && w != "w2" && w != "w3" {
				t.Fatalf("unexpected worker identity %q", w)
			}
		}
	})
}
