package frontend

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"crowdfill/internal/client"
	"crowdfill/internal/metrics"
	"crowdfill/internal/sync"
	"crowdfill/internal/transport"
	"crowdfill/internal/wsock"
)

// TestMetricsCatalogue: with a collection started and a worker connected,
// the process registry holds exactly the series README's metrics table
// names, each in full; and a second collection with more workers adds none,
// so the registry's size does not grow with collections or workers.
func TestMetricsCatalogue(t *testing.T) {
	if os.Getenv("CROWDFILL_METRICS") == "off" {
		t.Skip("the metrics plane is switched off")
	}
	f, srv := testFrontend(t)
	id, wsPath := started(t, srv.URL)
	connectWorkers(t, f, srv.URL, id, wsPath, 1)
	got := registeredSeries()

	want := readmeSeries(t)
	for _, name := range got {
		if !slices.Contains(want, name) {
			t.Errorf("series %s is registered but not in README's metrics table", name)
		}
	}
	for _, name := range want {
		if !slices.Contains(got, name) {
			t.Errorf("README's metrics table names %s, which is not registered", name)
		}
	}

	id2, wsPath2 := started(t, srv.URL)
	connectWorkers(t, f, srv.URL, id2, wsPath2, 3)
	if after := registeredSeries(); !slices.Equal(after, got) {
		t.Fatalf("a second collection with three workers changed the registry from %d to %d series: %v", len(got), len(after), after)
	}
}

// registeredSeries returns the names of every series in the process
// registry, sorted.
func registeredSeries() []string {
	s := metrics.Default().Snapshot()
	var names []string
	for _, c := range s.Counters {
		names = append(names, c.Name)
	}
	for _, g := range s.Gauges {
		names = append(names, g.Name)
	}
	for _, g := range s.Floats {
		names = append(names, g.Name)
	}
	for _, h := range s.Histograms {
		names = append(names, h.Name)
	}
	slices.Sort(names)
	return names
}

var catalogueSeries = regexp.MustCompile("`(crowdfill_[a-z0-9_]+(?:\\{[a-z]+=\"[^\"]+\"\\})?)`")

// readmeSeries returns the series README's metrics table names: the code
// spans of every table row that starts with one.
func readmeSeries(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "| `crowdfill_") {
			continue
		}
		first, _, _ := strings.Cut(strings.TrimPrefix(line, "| "), " | ")
		for _, m := range catalogueSeries.FindAllStringSubmatch(first, -1) {
			names = append(names, m[1])
		}
	}
	if len(names) == 0 {
		t.Fatal("README has no metrics table")
	}
	return names
}

// connectWorkers has n marketplace workers accept the started spec's HIT
// and join its collection over WebSocket, returning once each has its
// join snapshot.
func connectWorkers(t *testing.T, f *Frontend, base, id, wsPath string, n int) {
	t.Helper()
	cfg, err := kvSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		worker, err := f.AcceptWorker(id)
		if err != nil {
			t.Fatalf("AcceptWorker: %v", err)
		}
		ws, err := wsock.Dial("ws" + strings.TrimPrefix(base, "http") + wsPath + "?worker=" + worker)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c, err := client.New(client.Config{ID: worker, Worker: worker, Schema: cfg.Schema})
		if err != nil {
			t.Fatal(err)
		}
		r := client.NewRunner(c, transport.WrapWS(ws))
		t.Cleanup(func() { r.Close() })
		waitFor(t, func() bool {
			rows := 0
			_ = r.Do(func(c *client.Client) ([]sync.Message, error) {
				rows = len(c.Rows(nil))
				return nil, nil
			})
			return rows > 0
		})
	}
}
