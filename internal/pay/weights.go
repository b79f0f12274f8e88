package pay

import (
	"sort"

	"crowdfill/internal/sync"
)

// Weights holds the per-column and per-vote-type difficulty weights used by
// the column-weighted and dual-weighted allocation schemes (§5.2.2). The
// weight of a column is the median time workers took to generate final-table-
// contributing replace messages for it; likewise for votes.
type Weights struct {
	Column   []float64 // per schema column, seconds
	Upvote   float64
	Downvote float64
	// Z holds the dual-weighted spread parameter z_i per column (key
	// columns only; zero elsewhere and for column-weighted allocation).
	Z []float64
}

// gaps computes the "time taken" for each trace message: the timestamp
// difference to the same worker's previous message, or to the worker's join
// time for their first message (§5.2.2, flaws acknowledged by the paper
// included). Returned in seconds, parallel to trace.
func gaps(trace []sync.Message, joinTime map[string]int64, start int64) []float64 {
	last := make(map[string]int64)
	out := make([]float64, len(trace))
	for i, m := range trace {
		prev, ok := last[m.Worker]
		if !ok {
			if jt, okj := joinTime[m.Worker]; okj {
				prev = jt
			} else {
				prev = start
			}
		}
		d := float64(m.TS-prev) / 1e9
		if d < 0 {
			d = 0
		}
		out[i] = d
		last[m.Worker] = m.TS
	}
	return out
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	return medianInPlace(append([]float64(nil), xs...))
}

// medianInPlace is median for a slice the caller lets it sort.
func medianInPlace(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// computeWeights derives the column-weighted scheme's weights from the trace:
// the median gap over contributing messages per column / vote type. Columns
// with no contributing fills fall back to the median of the available column
// weights, then to 1 (so a never-crowdsourced column cannot zero out Y).
func computeWeights(numCols int, contrib *Contributions, trace []sync.Message, joinTime map[string]int64, start int64) Weights {
	g := gaps(trace, joinTime, start)
	byCol := make([][]float64, numCols)
	for _, c := range contrib.Cells {
		byCol[c.Cell.Col] = append(byCol[c.Cell.Col], g[c.Direct])
	}
	var up, down []float64
	for _, i := range contrib.Upvotes {
		up = append(up, g[i])
	}
	for _, i := range contrib.Downvotes {
		down = append(down, g[i])
	}

	w := Weights{Column: make([]float64, numCols), Z: make([]float64, numCols)}
	var have []float64
	for i := range byCol {
		w.Column[i] = median(byCol[i])
		if w.Column[i] > 0 {
			have = append(have, w.Column[i])
		}
	}
	fallback := median(have)
	if fallback == 0 {
		fallback = 1
	}
	for i := range w.Column {
		if w.Column[i] == 0 {
			w.Column[i] = fallback
		}
	}
	w.Upvote = median(up)
	if w.Upvote == 0 {
		w.Upvote = fallback
	}
	w.Downvote = median(down)
	if w.Downvote == 0 {
		w.Downvote = fallback
	}
	return w
}

// fitZ fits the dual-weighted spread parameter z to the observed times taken
// to complete the k-th distinct value (§5.2.2): least squares of
// t_k ≈ α + β(k − (n+1)/2), then z = β(n−1)/(2α), clamped to [0, 1].
// Returns 0 when fewer than two observations exist or the fit is degenerate.
func fitZ(times []float64) float64 {
	n := len(times)
	if n < 2 {
		return 0
	}
	mid := float64(n+1) / 2
	var sumT, sumX, sumXX, sumXT float64
	for k, t := range times {
		x := float64(k+1) - mid
		sumT += t
		sumX += x
		sumXX += x * x
		sumXT += x * t
	}
	// With centered x, sumX == 0: α = mean(t), β = Σxt / Σxx.
	alpha := sumT / float64(n)
	if sumXX == 0 || alpha <= 0 {
		return 0
	}
	beta := sumXT / sumXX
	z := beta * float64(n-1) / (2 * alpha)
	if z < 0 {
		return 0
	}
	if z > 1 {
		return 1
	}
	return z
}
