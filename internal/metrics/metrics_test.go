package metrics

import (
	"math"
	gosync "sync"
	"testing"
)

// TestConcurrentInstruments hammers one counter, one sharded counter, one
// gauge, and one histogram from many goroutines while snapshots run
// concurrently, then checks exact totals. Run under -race this is the
// data-race gate for the whole observe surface.
// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Shards returns the shard count (a power of two).
func (c *ShardedCounter) Shards() int { return len(c.cells) }

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	sc := r.ShardedCounter("test_sharded_total", "sharded ops", 8)
	g := r.Gauge("test_depth", "depth")
	h := r.Histogram("test_lat_ns", "latency", LatencyBuckets)

	const workers = 8
	const perWorker = 10_000
	var wg gosync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(shard uint32) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				sc.Add(shard, 2)
				g.Add(1)
				g.Add(-1)
				h.Observe(int64(i))
			}
		}(uint32(w))
	}
	// Concurrent snapshots must not race with observers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := sc.Value(); got != 2*workers*perWorker {
		t.Errorf("sharded counter = %d, want %d", got, 2*workers*perWorker)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestShardedCounterMerge checks that per-shard writes land in distinct
// cells and fold to the exact total, including shard indexes beyond the
// cell count (masked into range).
func TestShardedCounterMerge(t *testing.T) {
	sc := newShardedCounter(4)
	if sc.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", sc.Shards())
	}
	for shard := uint32(0); shard < 4; shard++ {
		for i := uint32(0); i <= shard; i++ {
			sc.Inc(shard)
		}
	}
	// 1+2+3+4 increments across shards 0..3.
	if got := sc.Value(); got != 10 {
		t.Fatalf("Value() = %d, want 10", got)
	}
	// Out-of-range shard indexes mask into range rather than panicking.
	sc.Add(4, 5) // masks to shard 0
	if got := sc.Value(); got != 15 {
		t.Fatalf("Value() after masked add = %d, want 15", got)
	}
	// Rounding up to a power of two.
	if got := newShardedCounter(5).Shards(); got != 8 {
		t.Fatalf("newShardedCounter(5).Shards() = %d, want 8", got)
	}
}

// TestObserveAllocs pins what lets the serving paths observe freely: one
// round of every instrument's observe method allocates nothing.
func TestObserveAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	g := r.Gauge("g", "g")
	sc := r.ShardedCounter("sc_total", "sc", 4)
	h := r.Histogram("h_ns", "h", ExpBuckets(1, 2, 16))
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(2)
		g.Set(3)
		g.Add(-1)
		sc.Inc(1)
		sc.Add(2, 5)
		h.Observe(300)
	}); n != 0 {
		t.Fatalf("observe round: %v allocs/op, want 0", n)
	}
	if c.Value() != 3*101 || sc.Value() != 6*101 || h.Count() != 101 {
		t.Fatalf("after 101 rounds: counter %d, sharded %d, histogram %d", c.Value(), sc.Value(), h.Count())
	}
}

// TestHistogramBuckets checks the `le` boundary semantics: a sample equal to
// a bound lands in that bound's bucket; one past it lands in the next.
func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]int64{10, 100, 1000})
	samples := []int64{0, 5, 10, 11, 100, 101, 1000, 1001, 50_000}
	for _, v := range samples {
		h.Observe(v)
	}
	hv := h.snapshot("x")
	wantCounts := []uint64{3, 2, 2, 2} // ≤10: {0,5,10}; ≤100: {11,100}; ≤1000: {101,1000}; +Inf: {1001,50000}
	for i, want := range wantCounts {
		if hv.Buckets[i].Count != want {
			t.Errorf("bucket %d count = %d, want %d", i, hv.Buckets[i].Count, want)
		}
	}
	if hv.Count != uint64(len(samples)) {
		t.Errorf("count = %d, want %d", hv.Count, len(samples))
	}
	var wantSum int64
	for _, v := range samples {
		wantSum += v
	}
	if hv.Sum != wantSum {
		t.Errorf("sum = %d, want %d", hv.Sum, wantSum)
	}
	if hv.Buckets[3].UpperBound != math.MaxInt64 {
		t.Errorf("last bucket bound = %d, want MaxInt64", hv.Buckets[3].UpperBound)
	}
}

// TestHistogramQuantile feeds a uniform distribution and checks the
// interpolated quantile estimates stay within one bucket of truth, plus the
// saturation and empty edge cases.
func TestHistogramQuantile(t *testing.T) {
	h := newHistogram(ExpBuckets(1, 2, 14)) // 1,2,4,...,8192
	// Uniform 1..1000: true p50 = 500, p90 = 900, p99 = 990.
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	hv := h.snapshot("x")
	checks := []struct {
		q         float64
		truth     int64
		loose, hi int64 // acceptable range given bucket resolution
	}{
		{0.50, 500, 256, 512},
		{0.90, 900, 512, 1024},
		{0.99, 990, 512, 1024},
	}
	for _, c := range checks {
		got := hv.Quantile(c.q)
		if got < c.loose || got > c.hi {
			t.Errorf("Quantile(%v) = %d, want within [%d,%d] (truth %d)", c.q, got, c.loose, c.hi, c.truth)
		}
	}

	// Interpolation inside one bucket: all mass in (4,8], uniform.
	h2 := newHistogram([]int64{4, 8, 16})
	for v := int64(5); v <= 8; v++ {
		h2.Observe(v)
	}
	hv2 := h2.snapshot("x")
	if got := hv2.Quantile(0.5); got < 4 || got > 8 {
		t.Errorf("single-bucket Quantile(0.5) = %d, want in [4,8]", got)
	}

	// Overflow saturation: everything past the last finite bound estimates
	// as that bound.
	h3 := newHistogram([]int64{10})
	h3.Observe(1_000_000)
	if got := h3.snapshot("x").Quantile(0.99); got != 10 {
		t.Errorf("overflow Quantile = %d, want 10 (saturated)", got)
	}

	// Empty histogram.
	if got := newHistogram([]int64{1}).snapshot("x").Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %d, want 0", got)
	}
}

// TestRegistryGetOrCreate checks instrument identity and the cross-kind
// panic.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "")
	b := r.Counter("dup_total", "")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering a counter name as a gauge did not panic")
		}
	}()
	r.Gauge("dup_total", "")
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1000, 4, 12)
	if len(b) != 12 || b[0] != 1000 || b[1] != 4000 {
		t.Fatalf("unexpected buckets: %v", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("buckets not ascending at %d: %v", i, b)
		}
	}
}
