// Command crowdfill-replay audits a finished collection offline: it loads
// the bookkeeping log (as served by the front-end's /trace endpoint or
// written by the library's ExportTrace), replays it through a fresh replica,
// re-derives the final table, and recomputes compensation under any
// allocation scheme — answering "why did worker X earn $Y" without the live
// system.
//
// The log is one JSON object with four fields: "trace" (every worker
// message in server order), "ccLog" (the Central Client's messages),
// "start" (the collection start, Unix nanoseconds) and "joinTime" (each
// worker's first-join timestamp). With all four, and no override, the
// replay pays exactly what the collection paid. Logs exported before
// "start" and "joinTime" were recorded still load: no "start" means the
// first message's timestamp and no join time the start; that moves each
// worker's first time gap, so such a replay can differ from the live pay
// by cents.
//
// Usage:
//
//	crowdfill-ctl -server http://host:8080 -id specs-000001 trace > trace.json
//	crowdfill-replay -spec spec.json -trace trace.json -budget 10 -scheme dual
//	crowdfill-replay -spec spec.json -trace trace.json -statement w1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"crowdfill/internal/model"
	"crowdfill/internal/replay"
	"crowdfill/internal/spec"
)

func main() {
	specPath := flag.String("spec", "", "table specification JSON (schema + scoring)")
	tracePath := flag.String("trace", "", "log JSON ({trace, ccLog, start, joinTime}, as served by /trace)")
	budget := flag.Float64("budget", 0, "budget override (default: the spec's)")
	scheme := flag.String("scheme", "", "allocation scheme override (default: the spec's)")
	statement := flag.String("statement", "", "print the itemized pay statement for one worker")
	showTable := flag.Bool("table", false, "print the rebuilt candidate table")
	flag.Parse()

	if *specPath == "" || *tracePath == "" {
		log.Fatal("crowdfill-replay: -spec and -trace are required")
	}
	var ts spec.TableSpec
	if data, err := os.ReadFile(*specPath); err != nil {
		log.Fatalf("crowdfill-replay: %v", err)
	} else if err := json.Unmarshal(data, &ts); err != nil {
		log.Fatalf("crowdfill-replay: parse spec: %v", err)
	}
	var lg replay.Log
	if data, err := os.ReadFile(*tracePath); err != nil {
		log.Fatalf("crowdfill-replay: %v", err)
	} else if err := json.Unmarshal(data, &lg); err != nil {
		log.Fatalf("crowdfill-replay: parse trace: %v", err)
	}
	if *budget > 0 {
		ts.Budget = *budget
	}
	if *scheme != "" {
		ts.Scheme = *scheme
	}

	audit, err := spec.Audit(ts, lg)
	if err != nil {
		log.Fatalf("crowdfill-replay: %v", err)
	}

	schema := audit.Replica.Schema()
	fmt.Printf("replayed %d messages (%d worker, %d central-client)\n",
		len(lg.Trace)+len(lg.CCLog), len(lg.Trace), len(lg.CCLog))
	fmt.Printf("candidate rows: %d   final rows: %d\n",
		audit.Replica.Table().Len(), len(audit.Final))
	if *showTable {
		fmt.Println()
		fmt.Print(model.RenderTable(schema, audit.Replica.Table().Rows()))
	}
	fmt.Println()
	fmt.Print(model.RenderFinal(schema, audit.Final))
	fmt.Println()
	fmt.Printf("compensation (%s, $%.2f budget, $%.2f allocated):\n",
		audit.Alloc.Scheme, ts.Budget, audit.Alloc.Allocated)
	workers := make([]string, 0, len(audit.Alloc.PerWorker))
	for worker := range audit.Alloc.PerWorker {
		workers = append(workers, worker)
	}
	sort.Strings(workers)
	for _, worker := range workers {
		fmt.Printf("  %-12s $%.2f\n", worker, audit.Alloc.PerWorker[worker])
	}
	if *statement != "" {
		fmt.Println()
		fmt.Print(audit.Statement(*statement))
	}
}
