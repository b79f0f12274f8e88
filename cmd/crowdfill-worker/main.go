// Command crowdfill-worker runs one simulated worker against a live
// CrowdFill back-end over a real WebSocket connection. The worker behaves
// per the crowd model: it knows a seeded fraction of a synthetic ground
// truth, fills cells with configurable accuracy and think times, and votes
// on other workers' data.
//
// Usage:
//
//	crowdfill-worker -url ws://localhost:8080/ws/specs-000001 \
//	    -spec spec.json -worker w1 -knowledge 0.8 -accuracy 0.95 -speedup 20
package main

import (
	"encoding/json"
	"flag"
	"log"
	"os"
	"time"

	"crowdfill/internal/client"
	"crowdfill/internal/crowd"
	"crowdfill/internal/spec"
	"crowdfill/internal/transport"
	"crowdfill/internal/wsock"
)

func main() {
	url := flag.String("url", "ws://localhost:8080/ws/specs-000001", "collection WebSocket endpoint")
	specPath := flag.String("spec", "", "table specification JSON (for the schema)")
	worker := flag.String("worker", "w1", "worker identity")
	knowledge := flag.Float64("knowledge", 0.8, "fraction of ground truth known")
	accuracy := flag.Float64("accuracy", 0.95, "fill accuracy")
	voteAcc := flag.Float64("vote-accuracy", 0.95, "vote accuracy")
	votePref := flag.Float64("vote-pref", 0.5, "preference for voting over filling")
	speedup := flag.Float64("speedup", 20, "divide think times by this factor")
	truthSeed := flag.Int64("truth-seed", 42, "ground truth seed (must match other workers)")
	truthRows := flag.Int("truth-rows", 220, "ground truth size")
	seed := flag.Int64("seed", time.Now().UnixNano(), "worker randomness seed")
	flag.Parse()

	if *specPath == "" {
		log.Fatal("crowdfill-worker: -spec is required")
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		log.Fatalf("crowdfill-worker: %v", err)
	}
	var ts spec.TableSpec
	if err := json.Unmarshal(data, &ts); err != nil {
		log.Fatalf("crowdfill-worker: parse spec: %v", err)
	}
	schema, err := ts.Schema()
	if err != nil {
		log.Fatalf("crowdfill-worker: %v", err)
	}
	truth := crowd.Generic(*truthSeed, schema, *truthRows)

	w := crowd.NewWorker(crowd.Spec{
		Name:           *worker,
		Knowledge:      *knowledge,
		FillAccuracy:   *accuracy,
		VoteAccuracy:   *voteAcc,
		VotePreference: *votePref,
		ResearchProb:   0.4,
		ReconsiderProb: 0.15,
		Seed:           *seed,
	}, truth)
	log.Printf("crowdfill-worker: %s knows %d of %d entities", *worker, w.KnownRows(), len(truth.Rows))

	ws, err := wsock.Dial(*url + "?worker=" + *worker)
	if err != nil {
		log.Fatalf("crowdfill-worker: dial: %v", err)
	}
	cl, err := client.New(client.Config{ID: *worker, Worker: *worker, Schema: schema})
	if err != nil {
		log.Fatalf("crowdfill-worker: %v", err)
	}
	runner := client.NewRunner(cl, transport.WrapWS(ws))
	defer runner.Close()

	actions := 0
	for !runner.Done() {
		var d crowd.Decision
		runner.View(func(c *client.Client) { d = w.Decide(c) })
		think := time.Duration(float64(d.Think) / *speedup)
		select {
		case err := <-runner.Err():
			if runner.Done() {
				break // the server closes every link after MsgDone
			}
			log.Printf("crowdfill-worker: connection: %v", err)
			return
		case <-time.After(think):
		}
		if runner.Done() {
			break
		}
		err := runner.Do(d.Act)
		if err == nil && d.Kind != crowd.ActIdle {
			actions++
			if actions%10 == 0 {
				log.Printf("crowdfill-worker: %s performed %d actions", *worker, actions)
			}
		}
	}
	log.Printf("crowdfill-worker: %s done after %d actions", *worker, actions)
}
