package crowdfill

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCommandBinariesEndToEnd builds the real binaries and drives a full
// session: crowdfill-server up, crowdfill-ctl create/start, two
// crowdfill-worker processes collecting over real WebSockets, then
// status/result/pay through the REST API.
func TestCommandBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs subprocesses")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin,
		"./cmd/crowdfill-server", "./cmd/crowdfill-ctl", "./cmd/crowdfill-worker",
		"./cmd/crowdfill-replay")
	build.Dir = "."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	// Pick free ports for the API listener and the debug listener.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	dlis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	debugAddr := dlis.Addr().String()
	dlis.Close()

	server := exec.Command(filepath.Join(bin, "crowdfill-server"),
		"-addr", addr, "-debug-addr", debugAddr)
	// Without -db the server stores under a fresh temp directory; keep it
	// inside the test's.
	server.Env = append(os.Environ(), "TMPDIR="+bin)
	server.Stdout = os.Stderr
	server.Stderr = os.Stderr
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = server.Process.Kill()
		_, _ = server.Process.Wait()
	}()
	base := "http://" + addr
	waitHTTP(t, base+"/api/specs")

	// A small spec the workers can finish quickly.
	specPath := filepath.Join(bin, "spec.json")
	spec := `{
	 "name": "Gadget",
	 "columns": [
	   {"name": "id"},
	   {"name": "kind", "domain": ["a", "b"]},
	   {"name": "price", "type": "int"}
	 ],
	 "key": ["id"],
	 "scoring": {"kind": "majority", "k": 3},
	 "cardinality": 4,
	 "budget": 5,
	 "scheme": "column-weighted",
	 "maxVotesPerRow": 5
	}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}

	ctl := func(args ...string) string {
		cmd := exec.Command(filepath.Join(bin, "crowdfill-ctl"),
			append([]string{"-server", base}, args...)...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("ctl %v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	out := ctl("-spec", specPath, "create")
	id := extractJSONField(t, out, "id")
	start := ctl("-id", id, "start")
	ws := extractJSONField(t, start, "ws")

	// Two worker processes with compatible ground truth and high speedup.
	var workers []*exec.Cmd
	for i := 1; i <= 2; i++ {
		w := exec.Command(filepath.Join(bin, "crowdfill-worker"),
			"-url", "ws://"+addr+ws,
			"-spec", specPath,
			"-worker", fmt.Sprintf("w%d", i),
			"-knowledge", "0.9",
			"-accuracy", "0.99",
			"-vote-accuracy", "0.99",
			"-vote-pref", "0.6",
			"-speedup", "300",
			"-truth-seed", "42",
			"-seed", fmt.Sprint(100+i),
		)
		w.Stdout = os.Stderr
		w.Stderr = os.Stderr
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	defer func() {
		for _, w := range workers {
			_ = w.Process.Kill()
			_, _ = w.Process.Wait()
		}
	}()

	// Poll status until done.
	deadline := time.Now().Add(60 * time.Second)
	done := false
	for time.Now().Before(deadline) && !done {
		st := ctl("-id", id, "status")
		done = strings.Contains(st, `"done": true`)
		time.Sleep(200 * time.Millisecond)
	}
	if !done {
		t.Fatalf("collection did not finish")
	}
	result := ctl("-id", id, "result")
	if !strings.Contains(result, "rows") {
		t.Fatalf("result output:\n%s", result)
	}
	pay := ctl("-id", id, "pay")
	if !strings.Contains(pay, `"status": "paid"`) {
		t.Fatalf("pay output:\n%s", pay)
	}
	got := ctl("-id", id, "get")
	if !strings.Contains(got, "Gadget") {
		t.Fatalf("get output:\n%s", got)
	}

	// The debug listener saw the whole session: the Prometheus exposition
	// must show broadcast publishes and marketplace payments, pprof must be
	// mounted, and crowdfill-ctl's metrics/events commands must read the
	// same listener.
	debugBase := "http://" + debugAddr
	prom := httpGetBody(t, debugBase+"/debug/metrics")
	for _, series := range []string{
		"crowdfill_bcast_publish_total",
		"crowdfill_ws_bytes_out_total",
		"crowdfill_mkt_payments_total",
	} {
		if !strings.Contains(prom, series) {
			t.Fatalf("debug exposition missing %s:\n%s", series, prom)
		}
	}
	if !strings.Contains(httpGetBody(t, debugBase+"/debug/pprof/cmdline"), "crowdfill-server") {
		t.Fatalf("pprof cmdline does not name the server binary")
	}
	ctlMetrics := ctl("-debug", debugBase, "metrics")
	if !strings.Contains(ctlMetrics, "crowdfill_bcast_publish_total") {
		t.Fatalf("ctl metrics output missing publish counter:\n%s", ctlMetrics)
	}
	ctlEvents := ctl("-debug", debugBase, "events")
	if !strings.Contains(ctlEvents, `"total"`) {
		t.Fatalf("ctl events output missing recorder dump:\n%s", ctlEvents)
	}

	// Offline audit: fetch the trace, replay it, and check the recomputed
	// pay matches what the marketplace was told to pay.
	traceOut := ctl("-id", id, "trace")
	idx := strings.Index(traceOut, "{")
	tracePath := filepath.Join(bin, "trace.json")
	if err := os.WriteFile(tracePath, []byte(traceOut[idx:]), 0o644); err != nil {
		t.Fatal(err)
	}
	replayCmd := exec.Command(filepath.Join(bin, "crowdfill-replay"),
		"-spec", specPath, "-trace", tracePath, "-statement", "w1")
	replayOut, err := replayCmd.CombinedOutput()
	if err != nil {
		t.Fatalf("replay: %v\n%s", err, replayOut)
	}
	if !strings.Contains(string(replayOut), "final rows: 4") {
		t.Fatalf("replay output:\n%s", replayOut)
	}
	if !strings.Contains(string(replayOut), "pay statement for w1") {
		t.Fatalf("replay statement missing:\n%s", replayOut)
	}
	var paid struct {
		Pay map[string]float64 `json:"pay"`
	}
	if err := json.Unmarshal([]byte(pay[strings.Index(pay, "{"):]), &paid); err != nil {
		t.Fatalf("parse pay output: %v\n%s", err, pay)
	}
	if len(paid.Pay) == 0 {
		t.Fatalf("pay output names no worker:\n%s", pay)
	}
	for worker, amount := range paid.Pay {
		if line := fmt.Sprintf("  %-12s $%.2f\n", worker, amount); !strings.Contains(string(replayOut), line) {
			t.Errorf("replay does not pay %s the $%.2f /pay paid:\n%s", worker, amount, replayOut)
		}
	}
}

// httpGetBody fetches a URL and returns its body, failing on any error.
// TestServerTakenDebugPortFailsAtStartup: crowdfill-server binds its debug
// listener before it serves the API, so a taken -debug-addr port ends the
// process at start-up with a non-zero exit and the bind error, and the API
// is never announced as serving.
func TestServerTakenDebugPortFailsAtStartup(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a subprocess")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./cmd/crowdfill-server")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	free, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := free.Addr().String()
	free.Close()

	server := exec.Command(filepath.Join(bin, "crowdfill-server"),
		"-addr", addr, "-debug-addr", taken.Addr().String())
	server.Env = append(os.Environ(), "TMPDIR="+bin)
	var out strings.Builder
	server.Stdout, server.Stderr = &out, &out
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- server.Wait() }()
	select {
	case err = <-exited:
	case <-time.After(10 * time.Second):
		_ = server.Process.Kill()
		<-exited
		t.Fatalf("server still running with its debug port taken:\n%s", out.String())
	}
	if err == nil {
		t.Fatalf("server exited 0 with its debug port taken:\n%s", out.String())
	}
	log := out.String()
	if !strings.Contains(log, "debug listener") || !strings.Contains(log, taken.Addr().String()) {
		t.Fatalf("exit log does not name the debug listener's bind error:\n%s", log)
	}
	if strings.Contains(log, "REST API and WebSocket endpoints on") {
		t.Fatalf("server announced its API before failing on the debug port:\n%s", log)
	}
}

func httpGetBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	return string(data)
}

// waitHTTP polls a URL until it answers.
func waitHTTP(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("server never came up at %s", url)
}

// extractJSONField pulls a string field out of crowdfill-ctl's pretty output
// (status line + JSON body).
func extractJSONField(t *testing.T, out, field string) string {
	t.Helper()
	idx := strings.Index(out, "{")
	if idx < 0 {
		t.Fatalf("no JSON in output:\n%s", out)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(out[idx:]), &m); err != nil {
		t.Fatalf("parse output: %v\n%s", err, out)
	}
	v, ok := m[field].(string)
	if !ok {
		t.Fatalf("field %q missing in %v", field, m)
	}
	return v
}
