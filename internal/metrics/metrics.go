// Package metrics is CrowdFill's dependency-free runtime instrumentation
// plane: a registry of atomic counters, gauges, and fixed-bucket histograms
// with a consistent Snapshot API, Prometheus text exposition, and a
// fixed-size flight recorder for operational events (recorder.go). It is
// built only on the standard library, in the same spirit as the hand-rolled
// codec and the lint engine.
//
// Two disciplines shape the API:
//
//   - Observation is allocation-free. Counter.Inc/Add, Gauge.Set/Add, and
//     Histogram.Observe allocate nothing (TestObserveAllocs), so server hot
//     paths (publish, flush, frame I/O) may call them freely. Registration
//     (Registry.Counter and friends) allocates and locks; it happens once
//     at construction time, never per event.
//
//   - Instruments are process-shareable. Registering the same name twice
//     returns the same instrument (get-or-create), so every collection in a
//     multi-collection process accumulates into one set of process-wide
//     series; tests that need isolation build their own Registry.
//
// Naming follows Prometheus conventions: a `crowdfill_` prefix, `_total`
// suffix on counters, an explicit unit suffix on histograms (`_ns`,
// `_bytes`, `_records`). A name may carry a single `{key="value"}` label
// suffix (e.g. `crowdfill_client_drops_total{cause="cursor-lag"}`); labeled
// series of one base name share HELP/TYPE headers in the exposition.
package metrics

import (
	"math"
	"sort"
	gosync "sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is an atomic float64 value (monetary totals). Add is a CAS
// loop; it is not meant for hot paths.
type FloatGauge struct {
	bits atomic.Uint64
}

// Add adjusts the value by delta.
func (g *FloatGauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// cacheLine is the assumed cache-line size for shard padding. 64 bytes is
// right for every platform this targets; being wrong only costs false
// sharing, not correctness.
const cacheLine = 64

// paddedCell is one shard's counter, padded out to a full cache line so
// adjacent shards never share a line (the whole point of sharding).
type paddedCell struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// ShardedCounter is a counter split across cache-line-padded shards for
// write-heavy hot paths with many concurrent writers (frame and byte counts
// across hundreds of connection goroutines). Writers pick a shard
// explicitly — a stable per-connection or per-worker index — so the hot Add
// involves no runtime pinning, no hashing, and no contention between
// writers on different shards. Value folds the shards at read time.
type ShardedCounter struct {
	cells []paddedCell
	mask  uint32
}

// newShardedCounter sizes the shard array to the next power of two ≥ n (≥ 2)
// so shard selection is a mask, not a modulo.
func newShardedCounter(n int) *ShardedCounter {
	size := 2
	for size < n {
		size <<= 1
	}
	return &ShardedCounter{cells: make([]paddedCell, size), mask: uint32(size - 1)}
}

// Add adds n to the given shard. Any shard value is safe: it is masked into
// range, so callers may use a free-running connection sequence number.
func (c *ShardedCounter) Add(shard uint32, n uint64) {
	c.cells[shard&c.mask].v.Add(n)
}

// Inc adds one to the given shard.
func (c *ShardedCounter) Inc(shard uint32) {
	c.cells[shard&c.mask].v.Add(1)
}

// Value sums all shards. The fold is not a snapshot-consistent point read
// across shards, which is fine for monitoring (each shard is individually
// monotone).
func (c *ShardedCounter) Value() uint64 {
	var sum uint64
	for i := range c.cells {
		sum += c.cells[i].v.Load()
	}
	return sum
}

// Registry holds named instruments. The zero value is not usable; call
// NewRegistry. Registration is get-or-create: the same name always returns
// the same instrument, and registering a name under two different kinds
// panics (a programming error, caught at construction time).
type Registry struct {
	mu       gosync.Mutex
	kinds    map[string]string
	help     map[string]string
	counters map[string]*Counter
	gauges   map[string]*Gauge
	floats   map[string]*FloatGauge
	sharded  map[string]*ShardedCounter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kinds:    make(map[string]string),
		help:     make(map[string]string),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		floats:   make(map[string]*FloatGauge),
		sharded:  make(map[string]*ShardedCounter),
		hists:    make(map[string]*Histogram),
	}
}

// defaultRegistry is the process-wide registry (Default). Instruments of
// every collection in the process accumulate here unless a component was
// given its own registry.
var (
	defaultRegistry     *Registry
	defaultRegistryOnce gosync.Once
)

// Default returns the process-wide registry.
func Default() *Registry {
	defaultRegistryOnce.Do(func() { defaultRegistry = NewRegistry() })
	return defaultRegistry
}

// claim records name under kind, panicking if it is already registered as a
// different kind. Callers hold r.mu.
func (r *Registry) claim(name, kind, help string) {
	if prev, ok := r.kinds[name]; ok && prev != kind {
		panic("metrics: " + name + " already registered as " + prev + ", not " + kind)
	}
	r.kinds[name] = kind
	if help != "" {
		r.help[name] = help
	}
}

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, "counter", help)
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, "gauge", help)
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// FloatGauge returns the float gauge registered under name, creating it if
// needed.
func (r *Registry) FloatGauge(name, help string) *FloatGauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, "float", help)
	g, ok := r.floats[name]
	if !ok {
		g = &FloatGauge{}
		r.floats[name] = g
	}
	return g
}

// ShardedCounter returns the sharded counter registered under name, creating
// it with at least shards shards if needed. An existing instrument keeps its
// original shard count.
func (r *Registry) ShardedCounter(name, help string, shards int) *ShardedCounter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, "sharded", help)
	c, ok := r.sharded[name]
	if !ok {
		c = newShardedCounter(shards)
		r.sharded[name] = c
	}
	return c
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds (ascending; an implicit +Inf bucket is
// appended) if needed. An existing instrument keeps its original buckets.
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, "histogram", help)
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// CounterValue is one counter's snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeValue is one gauge's snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// FloatValue is one float gauge's snapshot.
type FloatValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Snapshot is a point-in-time view of every instrument in a registry,
// sorted by name within each kind. Sharded counters appear folded among
// Counters.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Floats     []FloatValue     `json:"floats,omitempty"`
	Histograms []HistogramValue `json:"histograms"`
}

// Snapshot captures the current value of every instrument. Values are read
// atomically per instrument; the snapshot as a whole is not a consistent
// cut, which is the normal monitoring contract.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, c := range r.sharded {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: g.Value()})
	}
	for name, g := range r.floats {
		s.Floats = append(s.Floats, FloatValue{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		s.Histograms = append(s.Histograms, h.snapshot(name))
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Floats, func(i, j int) bool { return s.Floats[i].Name < s.Floats[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
