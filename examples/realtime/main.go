// Realtime: a live CrowdFill deployment in miniature — the back-end server
// listens on a real TCP port, and three worker processes (goroutines here)
// connect over genuine WebSockets, collaborating on the same evolving table
// exactly as browser clients would in the paper's §3 architecture.
//
// Run with: go run ./examples/realtime
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"crowdfill"
)

func main() {
	spec := crowdfill.Spec{
		Name:        "Landmark",
		Columns:     []crowdfill.Column{{Name: "landmark"}, {Name: "city"}},
		Key:         []string{"landmark"},
		Scoring:     crowdfill.Scoring{Kind: "majority", K: 3},
		Cardinality: 3,
		Budget:      6,
		Scheme:      "column-weighted",
	}
	coll, err := crowdfill.NewCollection(spec)
	if err != nil {
		log.Fatal(err)
	}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = http.Serve(lis, coll.Handler()) }()
	url := "ws://" + lis.Addr().String()
	fmt.Println("back-end server listening on", url)

	facts := map[string]string{
		"Eiffel Tower": "Paris",
		"Big Ben":      "London",
		"Colosseum":    "Rome",
	}

	var wg sync.WaitGroup
	// Two fillers split the entities; one verifier upvotes everything right.
	wg.Add(3)
	go filler(&wg, url, "filler-1", spec, facts, []string{"Eiffel Tower", "Big Ben"})
	go filler(&wg, url, "filler-2", spec, facts, []string{"Colosseum"})
	go verifier(&wg, url, "verifier", spec, facts)
	wg.Wait()

	fmt.Println("columns:", coll.Columns())
	for _, row := range coll.Result() {
		fmt.Println("row:", row)
	}
	pay, err := coll.ComputePay()
	if err != nil {
		log.Fatal(err)
	}
	workers := make([]string, 0, len(pay))
	for worker := range pay {
		workers = append(workers, worker)
	}
	sort.Strings(workers)
	for _, worker := range workers {
		fmt.Printf("pay: %-10s $%.2f\n", worker, pay[worker])
	}
}

func filler(wg *sync.WaitGroup, url, name string, spec crowdfill.Spec, facts map[string]string, mine []string) {
	defer wg.Done()
	w, err := crowdfill.ConnectWS(url, name, spec)
	if err != nil {
		log.Fatal(err)
	}
	defer w.Close()
	for _, landmark := range mine {
		waitRow(w, func(r crowdfill.Row) bool { return r.Cells[0] == "" && r.Cells[1] == "" },
			func(id string) error { return w.Fill(id, "landmark", landmark) })
		waitRow(w, func(r crowdfill.Row) bool { return r.Cells[0] == landmark && r.Cells[1] == "" },
			func(id string) error { return w.Fill(id, "city", facts[landmark]) })
	}
	for !w.Done() {
		time.Sleep(time.Millisecond)
	}
}

func verifier(wg *sync.WaitGroup, url, name string, spec crowdfill.Spec, facts map[string]string) {
	defer wg.Done()
	w, err := crowdfill.ConnectWS(url, name, spec)
	if err != nil {
		log.Fatal(err)
	}
	defer w.Close()
	endorsed := map[string]bool{}
	for !w.Done() {
		for _, r := range w.Rows() {
			if !r.Complete || endorsed[r.Cells[0]] {
				continue
			}
			if facts[r.Cells[0]] == r.Cells[1] {
				if err := w.Upvote(r.ID); err == nil {
					endorsed[r.Cells[0]] = true
				}
			} else if err := w.Downvote(r.ID); err == nil {
				endorsed[r.Cells[0]] = true
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// waitRow retries act on the first row matching cond until it succeeds
// (rows churn while other workers race on the same table).
func waitRow(w *crowdfill.Worker, cond func(crowdfill.Row) bool, act func(string) error) {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		for _, r := range w.Rows() {
			if cond(r) {
				if err := act(r.ID); err == nil {
					return
				} else if strings.Contains(err.Error(), "finished") {
					return
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	log.Fatal("timed out waiting for a row")
}
