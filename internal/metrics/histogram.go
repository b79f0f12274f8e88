package metrics

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram of int64 samples (latencies in
// nanoseconds, sizes in bytes or records). Buckets are chosen at
// registration and never change, so Observe is a short bounded scan plus
// three atomic adds — no locking, no allocation. Each bucket counts samples
// ≤ its upper bound and > the previous bound (Prometheus `le` semantics); an
// implicit +Inf bucket catches the overflow.
//
// Bucket counts, sum, and count are updated with independent atomics, so a
// concurrent snapshot may observe a sample in the bucket array before it is
// reflected in count (or vice versa). The skew is bounded by the number of
// in-flight Observe calls — the standard lock-free histogram contract.
type Histogram struct {
	bounds []int64         // ascending upper bounds; implicit +Inf after the last
	counts []atomic.Uint64 // len(bounds)+1; counts[len(bounds)] is the +Inf bucket
	sum    atomic.Int64
	count  atomic.Uint64
}

func newHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// BucketValue is one histogram bucket's snapshot: the count of samples at or
// below UpperBound (and above the previous bound). UpperBound is
// math.MaxInt64 for the +Inf bucket.
type BucketValue struct {
	UpperBound int64  `json:"le"`
	Count      uint64 `json:"count"`
}

// HistogramValue is one histogram's snapshot, with quantile estimates
// precomputed for human consumption (crowdfill-ctl, JSON dashboards).
type HistogramValue struct {
	Name    string        `json:"name"`
	Count   uint64        `json:"count"`
	Sum     int64         `json:"sum"`
	Buckets []BucketValue `json:"buckets"`
	P50     int64         `json:"p50"`
	P90     int64         `json:"p90"`
	P99     int64         `json:"p99"`
}

func (h *Histogram) snapshot(name string) HistogramValue {
	hv := HistogramValue{
		Name:    name,
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Buckets: make([]BucketValue, len(h.counts)),
	}
	for i := range h.counts {
		ub := int64(math.MaxInt64)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		hv.Buckets[i] = BucketValue{UpperBound: ub, Count: h.counts[i].Load()}
	}
	hv.P50 = hv.Quantile(0.50)
	hv.P90 = hv.Quantile(0.90)
	hv.P99 = hv.Quantile(0.99)
	return hv
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the bucket containing the target rank, the standard
// fixed-bucket estimate. Samples in the +Inf bucket are attributed to the
// last finite bound (the estimate saturates there). Returns 0 for an empty
// histogram.
func (hv HistogramValue) Quantile(q float64) int64 {
	// Total from the bucket array itself so the estimate is internally
	// consistent even when Count is mid-update.
	var total uint64
	for _, b := range hv.Buckets {
		total += b.Count
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i, b := range hv.Buckets {
		if b.Count == 0 {
			continue
		}
		cum += b.Count
		if float64(cum) < rank {
			continue
		}
		if b.UpperBound == math.MaxInt64 {
			// Overflow bucket: saturate at the last finite bound.
			if i == 0 {
				return 0
			}
			return hv.Buckets[i-1].UpperBound
		}
		lower := int64(0)
		if i > 0 {
			lower = hv.Buckets[i-1].UpperBound
		}
		within := rank - float64(cum-b.Count)
		frac := within / float64(b.Count)
		return lower + int64(frac*float64(b.UpperBound-lower))
	}
	return hv.Buckets[len(hv.Buckets)-1].UpperBound
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at start
// and growing by factor (start, start*factor, ...), rounded to integers.
// Registration-time helper; allocates.
func ExpBuckets(start int64, factor float64, n int) []int64 {
	bounds := make([]int64, 0, n)
	v := float64(start)
	for i := 0; i < n; i++ {
		b := int64(math.Round(v))
		if len(bounds) > 0 && b <= bounds[len(bounds)-1] {
			b = bounds[len(bounds)-1] + 1
		}
		bounds = append(bounds, b)
		v *= factor
	}
	return bounds
}

// Standard bucket layouts. Latency spans 1µs–4.3s in nanoseconds; sizes span
// 64B–16MB; counts span 1–16384 (batch sizes, action deltas, cursor lag).
var (
	LatencyBuckets = ExpBuckets(1_000, 4, 12)
	SizeBuckets    = ExpBuckets(64, 4, 10)
	CountBuckets   = ExpBuckets(1, 4, 8)
)
