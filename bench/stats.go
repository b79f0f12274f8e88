package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks. It returns 0 for no samples.
func quantile(sorted []int64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(sorted[lo]) + frac*float64(sorted[hi]-sorted[lo])
}

// supports reports whether n samples carry the percentile pct (in whole
// percent): at least beyond of them lie beyond it (a p99 over 300 samples is
// the 3rd-worst value, which is noise).
func supports(n, pct, beyond int) bool { return n*(100-pct) >= 100*beyond }

// dist summarises one timing metric: its sample count, median and tail.
type dist struct {
	N    int
	P50  float64
	Tail float64
}

// summarize sorts samples in place and reads the median and the tail
// percentile. The percentile of a metric is fixed where the metric is
// defined; whoever gates on the tail checks supports first.
func summarize(samples []int64, tail float64) dist {
	slices.Sort(samples)
	return dist{N: len(samples), P50: quantile(samples, 0.5), Tail: quantile(samples, tail)}
}

// roundStats summarises a timing metric measured in rounds: samples holds
// the rounds back to back, ends[i] is where round i ends. It returns the
// median over rounds of each round's median and of each round's pct-th
// percentile: host noise arrives in spells of seconds, and the median round
// does not see a spell that covers less than half of a run. Every round must
// carry the percentile (see supports). The rounds are sorted in place.
func roundStats(samples []int64, ends []int, pct, beyond int) (p50, tail float64, err error) {
	var p50s, tails []float64
	start := 0
	for _, end := range ends {
		round := samples[start:end]
		start = end
		if !supports(len(round), pct, beyond) {
			return 0, 0, fmt.Errorf("a round of %d samples does not carry a p%d: run longer rounds", len(round), pct)
		}
		d := summarize(round, float64(pct)/100)
		p50s, tails = append(p50s, d.P50), append(tails, d.Tail)
	}
	if len(ends) == 0 {
		return 0, 0, errors.New("no round completed")
	}
	return medianFloat(p50s), medianFloat(tails), nil
}

// medianFloat returns the median of vs (0 when empty); vs is not modified.
func medianFloat(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// span is one traced interval at a layer boundary. Start and End are
// nanoseconds on the run's monotonic clock; Parent indexes the causing span
// in the same slice (-1 for a root). Sender and Seq identify the op the
// span belongs to, so all spans of one op share an identifier.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Sender string `json:"sender"`
	Seq    int64  `json:"seq"`
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by its direct children (children are clipped to the
// parent and overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - covered(s, spans, kids[i])
	}
	return out
}

// covered is the length of the union of the child intervals inside parent.
func covered(parent span, spans []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = math.MinInt64
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// lateness accumulates how late an open-loop generator ran: each sample is
// actual send time minus scheduled send time, floored at zero (a sender
// that spins up to its slot is on time, never early).
type lateness struct{ samples []int64 }

func (l *lateness) add(scheduled, actual int64) {
	d := actual - scheduled
	if d < 0 {
		d = 0
	}
	l.samples = append(l.samples, d)
}
