package metrics

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestPrometheusGolden locks the text exposition down byte for byte: header
// grouping for labeled series, cumulative histogram buckets, sorted order.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("crowdfill_pub_total", "publish calls").Add(3)
	r.Counter(`crowdfill_drops_total{cause="cursor-lag"}`, "client drops by cause").Add(2)
	r.Counter(`crowdfill_drops_total{cause="send-error"}`, "client drops by cause").Inc()
	r.Gauge("crowdfill_conns", "registered connections").Set(7)
	r.FloatGauge("crowdfill_paid_dollars", "bonuses paid").Add(1.5)
	sc := r.ShardedCounter("crowdfill_bytes_total", "bytes out", 4)
	sc.Add(0, 100)
	sc.Add(1, 23)
	h := r.Histogram("crowdfill_lat_ns", "publish latency", []int64{10, 100})
	h.Observe(5)
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)

	var sb strings.Builder
	if err := WritePrometheus(&sb, r); err != nil {
		t.Fatal(err)
	}
	want := `# HELP crowdfill_bytes_total bytes out
# TYPE crowdfill_bytes_total counter
crowdfill_bytes_total 123
# HELP crowdfill_drops_total client drops by cause
# TYPE crowdfill_drops_total counter
crowdfill_drops_total{cause="cursor-lag"} 2
crowdfill_drops_total{cause="send-error"} 1
# HELP crowdfill_pub_total publish calls
# TYPE crowdfill_pub_total counter
crowdfill_pub_total 3
# HELP crowdfill_conns registered connections
# TYPE crowdfill_conns gauge
crowdfill_conns 7
# HELP crowdfill_paid_dollars bonuses paid
# TYPE crowdfill_paid_dollars gauge
crowdfill_paid_dollars 1.5
# HELP crowdfill_lat_ns publish latency
# TYPE crowdfill_lat_ns histogram
crowdfill_lat_ns_bucket{le="10"} 2
crowdfill_lat_ns_bucket{le="100"} 3
crowdfill_lat_ns_bucket{le="+Inf"} 4
crowdfill_lat_ns_sum 5060
crowdfill_lat_ns_count 4
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestDebugHandler drives the three debug endpoints end to end.
func TestDebugHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("crowdfill_pub_total", "publish calls").Add(9)
	rec := NewRecorder(8)
	rec.Record(EvEvictLag, "net-00007", "")
	srv := httptest.NewServer(Handler(r, rec))
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return sb.String()
	}

	if body := get("/debug/metrics"); !strings.Contains(body, "crowdfill_pub_total 9") {
		t.Errorf("/debug/metrics missing counter:\n%s", body)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/debug/metrics.json")), &snap); err != nil {
		t.Fatalf("metrics.json did not parse: %v", err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 9 {
		t.Errorf("metrics.json counters = %+v", snap.Counters)
	}
	var dump struct {
		Total  uint64  `json:"total"`
		Events []Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(get("/debug/events")), &dump); err != nil {
		t.Fatalf("events did not parse: %v", err)
	}
	if dump.Total != 1 || len(dump.Events) != 1 || dump.Events[0].Kind != EvEvictLag {
		t.Errorf("events dump = %+v", dump)
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Error("pprof cmdline empty")
	}
}
