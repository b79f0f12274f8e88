package server

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"crowdfill/internal/client"
	"crowdfill/internal/constraint"
	"crowdfill/internal/model"
	"crowdfill/internal/pay"
	"crowdfill/internal/simclock"
	"crowdfill/internal/sync"
	"crowdfill/internal/transport"
)

// BenchmarkBroadcastHandlePublish measures the server's per-message hot path
// — core transition plus broadcast-log publish — as connected clients grow.
// The publish side is O(1) in the client count (writers fan out on their own
// goroutines), so ns/op should stay flat from 8 to 512 clients; the 128-
// client cost staying within 2× of the 8-client cost is the acceptance bar.
//
// Only the handleAndPublish call is timed: the per-recipient delivery work is
// off the publisher's critical path by design, so the benchmark quiesces the
// followers between iterations (waiting for every cursor to reach the head)
// rather than letting their drain work — which a multi-core server runs on
// other cores — get time-sliced into the publisher's measurement.
func BenchmarkBroadcastHandlePublish(b *testing.B) {
	for _, clients := range []int{8, 32, 128, 512} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			s := kvSchema(b)
			// Cardinality 2 with only one row ever completed: the collection
			// never finishes, so toggle traffic flows for the whole run.
			core, err := New(Config{
				Schema:   s,
				Score:    model.MajorityShortcut(3),
				Template: constraint.Cardinality(s, 2),
				Budget:   1,
				Scheme:   pay.DualWeighted,
				Clock:    simclock.NewSim(0),
			})
			if err != nil {
				b.Fatal(err)
			}
			ns := NewNetServer(core, nil)
			defer ns.Shutdown()

			for j := 0; j < clients; j++ {
				srv, cli := transport.Pipe(256)
				go ns.ServeConn(srv, fmt.Sprintf("w%d", j))
				go func() {
					for {
						if _, err := cli.Recv(); err != nil {
							return
						}
					}
				}()
			}
			for {
				n := 0
				ns.WithCore(func(c *Core) { n = c.Clients() })
				if n == clients {
					break
				}
				time.Sleep(time.Millisecond)
			}

			// A connection-less driver client publishes the benchmark load.
			var mc *client.Client
			ns.WithCore(func(c *Core) {
				mc, err = client.New(client.Config{ID: "bench", Worker: "bench", Schema: s})
				if err != nil {
					return
				}
				for _, o := range c.AddClient("bench", "bench") {
					if herr := mc.HandleServer(o.Msg); herr != nil {
						err = herr
						return
					}
				}
			})
			if err != nil {
				b.Fatal(err)
			}
			send := func(msgs []sync.Message, err error) {
				b.Helper()
				if err != nil {
					b.Fatal(err)
				}
				for _, m := range msgs {
					if err := ns.handleAndPublish("bench", m); err != nil {
						b.Fatal(err)
					}
				}
			}
			rows := mc.Rows(nil)
			send(mc.Fill(rows[0].ID, 0, "x"))
			for _, r := range mc.Rows(nil) {
				if r.Vec[0].Set && !r.Vec[1].Set {
					send(mc.Fill(r.ID, 1, "1"))
				}
			}
			var vec model.Vector
			var rowID model.RowID
			for _, r := range mc.Rows(nil) {
				if r.Vec.IsComplete() {
					vec, rowID = r.Vec.Clone(), r.ID
				}
			}
			if vec == nil {
				b.Fatal("no complete row after seeding")
			}

			// waitDrained blocks until every live cursor has caught up with
			// the log head (the full write lock excludes follower pos
			// updates, so the reads are safe).
			waitDrained := func() {
				for {
					l := ns.log
					l.mu.Lock()
					caughtUp := true
					for fc := range l.conns {
						if !fc.lagged && fc.pos != l.head {
							caughtUp = false
							break
						}
					}
					l.mu.Unlock()
					if caughtUp {
						// One more scheduler round lets the flushers finish
						// re-parking their connections, so their lock traffic
						// is not charged to the next timed publish.
						runtime.Gosched()
						return
					}
					runtime.Gosched()
				}
			}

			b.ReportAllocs()
			b.ResetTimer()
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				var m sync.Message
				var err error
				if i%2 == 0 {
					m, err = mc.UndoVote(vec) // seeding auto-upvoted the row
				} else {
					m, err = mc.Upvote(rowID)
				}
				if err != nil {
					b.Fatal(err)
				}
				waitDrained()
				b.StartTimer()
				if err := ns.handleAndPublish("bench", m); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
			}
		})
	}
}
