// Command crowdfill-sim regenerates the paper's §6 evaluation (see
// EXPERIMENTS.md): the representative run's overall effectiveness (E1),
// per-worker compensation under dual-weighted allocation (E2), estimation
// accuracy / Figure 5 (E3), the allocation-scheme comparison (E4), the
// estimation-MAPE-by-scheme table (E5), and the earning-rate curves /
// Figure 6 (E6). It also runs the microtask-baseline comparison the paper
// proposes as future work.
//
// Usage:
//
//	crowdfill-sim                 # all experiments, default seed
//	crowdfill-sim -exp e3 -seed 4 # one experiment, custom seed
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"crowdfill/internal/exp"
	"crowdfill/internal/microtask"
)

// writeCSV writes one figure series when -csv is set.
func writeCSV(dir, name, content string) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatalf("crowdfill-sim: %v", err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		log.Fatalf("crowdfill-sim: %v", err)
	}
	log.Printf("crowdfill-sim: wrote %s", path)
}

func main() {
	which := flag.String("exp", "all", "experiment: e1..e12, baseline, or all")
	seed := flag.Int64("seed", exp.DefaultSeed, "representative-run seed")
	e5seeds := flag.Int("e5-runs", 3, "seeds for the multi-run E5 experiment")
	csvDir := flag.String("csv", "", "directory to write figure5.csv / figure6.csv series into")
	flag.Parse()

	want := func(name string) bool { return *which == "all" || strings.EqualFold(*which, name) }

	var res *exp.SimResult
	needRep := want("e1") || want("e2") || want("e3") || want("e4") || want("e6") || want("baseline")
	if needRep {
		var err error
		res, err = exp.Run(exp.RepresentativeConfig(*seed))
		if err != nil {
			log.Fatalf("crowdfill-sim: %v", err)
		}
		if !res.Done {
			log.Printf("crowdfill-sim: warning: seed %d did not converge within the virtual budget", *seed)
		}
	}
	if want("e1") {
		fmt.Println(exp.E1(res))
	}
	if want("e2") {
		fmt.Println(exp.E2(res))
	}
	if want("e3") {
		r := exp.E3(res)
		fmt.Println(r)
		writeCSV(*csvDir, "figure5.csv", r.CSV())
	}
	if want("e4") {
		r, err := exp.E4(res)
		if err != nil {
			log.Fatalf("crowdfill-sim: E4: %v", err)
		}
		fmt.Println(r)
	}
	if want("e5") {
		seeds := make([]int64, *e5seeds)
		for i := range seeds {
			seeds[i] = *seed + 20 + int64(i)
		}
		r, err := exp.E5(seeds)
		if err != nil {
			log.Fatalf("crowdfill-sim: E5: %v", err)
		}
		fmt.Println(r)
	}
	if want("e6") {
		r, err := exp.E6(res)
		if err != nil {
			log.Fatalf("crowdfill-sim: E6: %v", err)
		}
		fmt.Println(r)
		writeCSV(*csvDir, "figure6.csv", r.CSV())
	}
	if want("e7") {
		r, err := exp.E7(*seed)
		if err != nil {
			log.Fatalf("crowdfill-sim: E7: %v", err)
		}
		fmt.Println(r)
	}
	if want("e8") {
		r, err := exp.E8(*seed, nil)
		if err != nil {
			log.Fatalf("crowdfill-sim: E8: %v", err)
		}
		fmt.Println(r)
	}
	if want("e9") {
		r, err := exp.E9(*seed)
		if err != nil {
			log.Fatalf("crowdfill-sim: E9: %v", err)
		}
		fmt.Println(r)
	}
	if want("e10") {
		r, err := exp.E10(nil)
		if err != nil {
			log.Fatalf("crowdfill-sim: E10: %v", err)
		}
		fmt.Println(r)
	}
	if want("e11") {
		r, err := exp.E11(*seed, nil)
		if err != nil {
			log.Fatalf("crowdfill-sim: E11: %v", err)
		}
		fmt.Println(r)
	}
	if want("e12") {
		r, err := exp.E12(*seed)
		if err != nil {
			log.Fatalf("crowdfill-sim: E12: %v", err)
		}
		fmt.Println(r)
	}
	if want("baseline") {
		cfg := exp.RepresentativeConfig(*seed)
		mt, err := microtask.Run(microtask.Config{
			Truth:      cfg.Truth,
			Rows:       20,
			Workers:    cfg.Workers,
			PayPerTask: 0.05,
		}, *seed)
		if err != nil {
			log.Fatalf("crowdfill-sim: baseline: %v", err)
		}
		fmt.Println("EX  Microtask baseline comparison (§8 future work)")
		fmt.Printf("    %-28s %12s %12s\n", "", "table-fill", "microtask")
		fmt.Printf("    %-28s %12v %12v\n", "collection time", res.Duration.Round(1e9), mt.Duration.Round(1e9))
		fmt.Printf("    %-28s %11.0f%% %11.0f%%\n", "accuracy", res.Accuracy*100, mt.Accuracy*100)
		fmt.Printf("    %-28s %12d %12d\n", "worker messages / tasks", len(res.Core.Trace()), mt.Tasks)
		fmt.Printf("    %-28s %12d %12d\n", "duplicate-entity waste", 0, mt.DuplicateKeys)
		fmt.Printf("    %-28s %12.2f %12.2f\n", "cost ($)", res.Audit.Alloc.Allocated, mt.Cost)
		fmt.Println()
	}
}
