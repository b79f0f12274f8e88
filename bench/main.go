// Command bench is the repository's benchmark: four workloads driven through
// the real serving stack (in-process server.NetServer on a loopback
// listener, real wsock connections), each verified, with end-to-end metrics
// from an untraced run and a per-layer ledger from a separate traced pass.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

// traceDir is where the traced pass writes <workload>.trace.json.
const traceDir = "bench/out"

// hardLimit ends a single-workload run that hangs (a lost delivery would
// otherwise block a waiter forever) well inside the driver's 180 s cap,
// without a result.
const hardLimit = 170 * time.Second

// scale sizes a run: the full benchmark, or the tiny -smoke variant the
// package's tests drive.
type scale struct {
	table tableSize
	// lateVisitors is how many more clients join (and leave) at table200's
	// last late-join mark.
	lateVisitors int
	fan          fanShape
	warmOps      int           // unmeasured lifecycle ops per set-up
	setups       int           // set-ups per untraced run (setup_s is their median)
	replay       time.Duration // budget of each replay measurement
	// minBeyond is how many samples must lie beyond a tail percentile for
	// the run to report it; with fewer the run ends without a result.
	minBeyond int
}

var fullScale = scale{
	table:        tableSize{truth: 500, templateRows: 40, cardinality: 200},
	lateVisitors: 8,
	fan:          fullFanShape,
	warmOps:      600,
	setups:       3,
	replay:       400 * time.Millisecond,
	minBeyond:    10,
}

var smokeScale = scale{
	table:        tableSize{truth: 120, templateRows: 8, cardinality: 30},
	lateVisitors: 1,
	fan:          fanShape{subscribers: 8, open: 100 * time.Millisecond, closed: 40 * time.Millisecond, bursts: 10, burstEvery: 5 * time.Millisecond},
	warmOps:      50,
	setups:       1,
	replay:       10 * time.Millisecond,
	minBeyond:    1,
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what one workload pass produced, before it is shaped into a
// result: metric values by name, the failure accounting, and notes for the
// human-readable report (input hashes, sample counts, the ledger).
type outcome struct {
	values    map[string]float64
	attempted int
	failures  []string
	notes     []string
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// deliver fills deliver_p50_us and deliver_p99_us from the (op, receiver)
// latencies of the run's rounds (see roundStats). The percentile is fixed: a
// run whose rounds are too short to carry it fails.
func (o *outcome) deliver(samples []int64, ends []int, minBeyond int) error {
	p50, p99, err := roundStats(samples, ends, 99, minBeyond)
	if err != nil {
		return fmt.Errorf("deliver: %w", err)
	}
	o.values["deliver_p50_us"] = p50 / 1e3
	o.values["deliver_p99_us"] = p99 / 1e3
	return nil
}

// drops fails the outcome if the program dropped or rejected a client
// inside window.
func (o *outcome) drops(window regDelta) {
	if n := window.counterPrefix(dropsPrefix); n > 0 {
		o.failures = append(o.failures, fmt.Sprintf("%v client drops or rejects", n))
	}
}

// absorb adds another pass's failure accounting to o.
func (o *outcome) absorb(other *outcome) {
	o.attempted += other.attempted
	o.failures = append(o.failures, other.failures...)
}

// seal closes the failure accounting: fail_ratio is failed ÷ attempted, as
// the result reports them.
func (o *outcome) seal() {
	o.attempted = max(1, o.attempted)
	o.values["fail_ratio"] = float64(len(o.failures)) / float64(o.attempted)
}

// result shapes the outcome into the contract's object, with exactly the
// metrics of defs.
func (o *outcome) result(defs []metricDef) result {
	r := result{
		Correct:   len(o.failures) == 0,
		Attempted: o.attempted,
		Failed:    len(o.failures),
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Value: o.values[d.Name], Unit: d.Unit}
	}
	return r
}

// workload is one of the four benchmark workloads.
type workload interface {
	// setUp generates inputs from the seed, self-checks them, builds
	// whatever persists across measured rounds, and warms the path up. A
	// run may set up several times (round 0, 1, ...): every round is a
	// complete set-up, and the measured phase uses what all of them left.
	setUp(seed int64, round int) error
	// tearDown releases what the set-ups built.
	tearDown()
	// inputHash identifies the generated inputs.
	inputHash() string
	// measure runs the untraced measured phase for about d.
	measure(d time.Duration) (*outcome, error)
	// ledger runs the traced pass and the replay measurements in about d.
	ledger(d time.Duration, outDir string) (*outcome, error)
}

func newWorkload(name string, st *stack, sc scale) (workload, error) {
	switch name {
	case "paper5":
		return &lifecycleWorkload{name: name, st: st, sc: sc, perSetup: 4}, nil
	case "table200":
		return &lifecycleWorkload{name: name, st: st, sc: sc, perSetup: 2, table: true, lateMarks: []float64{0.5, 0.9}, visitors: sc.lateVisitors}, nil
	case "fanout64":
		return &fanWorkload{name: name, st: st, sc: sc}, nil
	case "burst64":
		return &fanWorkload{name: name, st: st, sc: sc, bursts: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runUntraced is the --trace 0 run: set up sc.setups times (setup_s is the
// median), measure on the last set-up, verify.
func runUntraced(w workload, seed int64, d time.Duration, sc scale) (*outcome, error) {
	var setups []float64
	defer w.tearDown()
	for round := range sc.setups {
		t0 := time.Now()
		if err := w.setUp(seed, round); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	hash := w.inputHash()
	out, err := w.measure(d)
	if err != nil {
		return nil, err
	}
	out.values["setup_s"] = medianFloat(setups)
	out.seal()
	out.notes = append([]string{fmt.Sprintf("input hash %s (seed %d), %d set-ups", hash, seed, len(setups))}, out.notes...)
	return out, nil
}

// runTraced is the --trace 1 run: one set-up, then the traced pass.
func runTraced(w workload, seed int64, d time.Duration, outDir string) (*outcome, error) {
	defer w.tearDown()
	if err := w.setUp(seed, 0); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	out, err := w.ledger(d, outDir)
	if err != nil {
		return nil, err
	}
	out.seal()
	out.notes = append([]string{fmt.Sprintf("input hash %s (seed %d)", w.inputHash(), seed)}, out.notes...)
	return out, nil
}

// report prints one pass for people: every metric by name with its unit,
// then the notes.
func report(title string, defs []metricDef, out *outcome) {
	fmt.Printf("== %s\n", title)
	for _, d := range defs {
		fmt.Printf("  %-36s %14.4f %s\n", d.Name, out.values[d.Name], d.Unit)
	}
	for _, n := range out.notes {
		fmt.Printf("  # %s\n", n)
	}
	for _, f := range out.failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

func emit(r result) {
	line, err := json.Marshal(r)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// stopSpinners ends the run's spinner children; every exit path calls it.
var stopSpinners = func() {}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	stopSpinners()
	os.Exit(2)
}

func main() {
	name := flag.String("workload", "", "workload to run (paper5, table200, fanout64, burst64); empty runs all four, untraced then traced")
	seed := flag.Int64("seed", 1, "input seed: truth, crowd, templates and open-loop schedules")
	seconds := flag.Float64("seconds", runSeconds, "measured time per pass")
	trace := flag.Int("trace", 0, "0: end-to-end metrics (untraced); 1: per-layer ledger (traced pass)")
	smoke := flag.Bool("smoke", false, "tiny inputs and topology (the package tests' end-to-end run)")
	aa := flag.Bool("aa", false, "run the full set twice on this binary and print each end-to-end metric's relative difference next to its bound")
	spin := flag.Bool("spin", false, "internal: run as a spinner child")
	flag.Parse()
	if *spin {
		spinMain()
		return
	}

	// One process, a fixed and recorded parallelism: min(nproc, 4).
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	sc := fullScale
	if *smoke {
		sc = smokeScale
	}
	// Every run measures with the spinners on: a run without them reads
	// 30–50 % slower on the 1-in-flight workloads and must never be compared
	// with one that had them.
	stop, n, err := startSpinners()
	if err != nil {
		fatal(fmt.Errorf("low-priority spinners: %w", err))
	}
	stopSpinners = stop
	fmt.Printf("# %d nice-19 spinners keep the CPUs awake\n", n)
	d := time.Duration(*seconds * float64(time.Second))
	st, err := newStack()
	if err != nil {
		fatal(err)
	}
	defer st.close()

	// pass runs one workload once, traced or not, and prints its report.
	pass := func(name string, traced bool, title string) (*outcome, result) {
		w, err := newWorkload(name, st, sc)
		if err != nil {
			fatal(err)
		}
		var out *outcome
		defs, shown := endToEnd, slices.Concat(endToEnd, ungated)
		if traced {
			defs, shown = perLayer, perLayer
			out, err = runTraced(w, *seed, d, traceDir)
		} else {
			out, err = runUntraced(w, *seed, d, sc)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		report(title, shown, out)
		return out, out.result(defs)
	}
	finish := func(r result) {
		stopSpinners()
		emit(r)
		if !r.Correct {
			os.Exit(1)
		}
	}

	if *name != "" {
		// The driver's form: one workload, one pass, inside its time cap.
		time.AfterFunc(hardLimit, func() { fatal(fmt.Errorf("run exceeded %v", hardLimit)) })
		_, r := pass(*name, *trace == 1, fmt.Sprintf("%s seed=%d trace=%d", *name, *seed, *trace))
		finish(r)
		return
	}

	// Everything: each workload untraced then traced; twice with -aa.
	sets := 1
	if *aa {
		sets = 2
	}
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	e2e := make([]map[string]map[string]float64, sets)
	for set := range e2e {
		e2e[set] = map[string]map[string]float64{}
		for _, wd := range workloads {
			for _, traced := range []bool{false, true} {
				out, r := pass(wd.Name, traced, fmt.Sprintf("%s seed=%d traced=%v set=%d", wd.Name, *seed, traced, set))
				all.Correct = all.Correct && r.Correct
				all.Attempted += r.Attempted
				all.Failed += r.Failed
				for k, v := range r.Metrics {
					all.Metrics[wd.Name+"/"+k] = v
				}
				if !traced {
					e2e[set][wd.Name] = out.values
				}
			}
		}
	}
	if *aa {
		reportAA(e2e[0], e2e[1])
	}
	finish(all)
}

// reportAA prints, per end-to-end metric and workload, the relative
// difference between two sets of runs of the same binary next to the
// metric's bound (the ungated ones have none).
func reportAA(a, b map[string]map[string]float64) {
	fmt.Println("== A/A: relative difference between two sets on the same binary")
	names := make([]string, 0, len(a))
	for w := range a {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		for _, d := range slices.Concat(endToEnd, ungated) {
			va, vb := a[w][d.Name], b[w][d.Name]
			if va == 0 {
				continue // not defined on this workload (or fail_ratio, reported by every pass)
			}
			diff := (vb - va) / va
			verdict := "ungated"
			if d.Bound > 0 {
				verdict = fmt.Sprintf("bound %.0f%%", 100*d.Bound)
				if diff > d.Bound || diff < -d.Bound {
					verdict += "  EXCEEDED"
				}
			}
			fmt.Printf("  %-10s %-20s %12.4f %12.4f  %+7.2f%%  (%s)\n", w, d.Name, va, vb, 100*diff, verdict)
		}
	}
}
