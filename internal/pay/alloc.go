package pay

import (
	"errors"
	"fmt"
	"sort"

	"crowdfill/internal/model"
	"crowdfill/internal/sync"
)

// Scheme selects one of §5.2.2's budget-allocation schemes.
type Scheme int

const (
	// Uniform divides B evenly over all cells in C and all contributing
	// votes.
	Uniform Scheme = iota
	// ColumnWeighted weights cells by per-column difficulty (median time to
	// produce a contributing fill) and votes by vote difficulty.
	ColumnWeighted
	// DualWeighted additionally spreads each primary-key column's weight
	// linearly from (1−z)y to (1+z)y over its values in order of first
	// appearance, compensating late (harder) key discoveries more.
	DualWeighted
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case Uniform:
		return "uniform"
	case ColumnWeighted:
		return "column-weighted"
	case DualWeighted:
		return "dual-weighted"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// ParseScheme converts a scheme name to a Scheme.
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "uniform":
		return Uniform, nil
	case "column-weighted", "column":
		return ColumnWeighted, nil
	case "dual-weighted", "dual":
		return DualWeighted, nil
	}
	return Uniform, fmt.Errorf("pay: unknown allocation scheme %q", s)
}

// Input gathers everything needed to compute final compensation (§5.2).
type Input struct {
	Schema *model.Schema
	// Budget is the user's total monetary budget B.
	Budget float64
	// Scheme selects the allocation scheme.
	Scheme Scheme
	// Final is the final table S.
	Final []*model.Row
	// Trace holds all worker messages in timestamp order (the set M).
	Trace []sync.Message
	// CCLog holds the Central Client's messages (excluded from M but needed
	// to recognize template-provided values).
	CCLog []sync.Message
	// JoinTime maps each worker to when they joined (for the first
	// message's time-taken).
	JoinTime map[string]int64
	// Start is the collection start timestamp.
	Start int64
	// SplitKey and SplitNonKey are the h_c splitting factors for key and
	// non-key columns (§5.2.3); zero values default to 0.25 and 0.5.
	SplitKey, SplitNonKey float64
}

// Allocation is the result of Compute: the paper's final per-worker
// compensation plus full per-message detail for reports and experiments.
type Allocation struct {
	Scheme  Scheme
	Weights Weights
	// PerWorker is the final compensation per worker id.
	PerWorker map[string]float64
	// PerMessage, parallel to the trace, is the compensation attributed to
	// each message (zero for non-contributing messages).
	PerMessage []float64
	// Contrib is the §5.2.1 contribution analysis.
	Contrib *Contributions
	// CellPay, parallel to Contrib.Cells, is b_c for each cell in C.
	CellPay []float64
	// VotePay is the compensation per contributing upvote and downvote.
	UpvotePay, DownvotePay float64
	// Allocated is the total amount distributed (≤ Budget: cells lacking an
	// indirect contributor leave (1−h_c)·b_c unassigned, per §5.2.3).
	Allocated float64
}

// Compute determines overall compensation for each worker given the final
// table, the message trace, and a budget (§5.2 steps 1–6).
func Compute(in Input) (*Allocation, error) {
	if in.Schema == nil {
		return nil, errors.New("pay: input needs a schema")
	}
	if in.Budget < 0 {
		return nil, errors.New("pay: negative budget")
	}
	for i := 1; i < len(in.Trace); i++ {
		if in.Trace[i].TS < in.Trace[i-1].TS {
			return nil, fmt.Errorf("pay: trace not in timestamp order at index %d", i)
		}
	}
	hKey, hNon := in.SplitKey, in.SplitNonKey
	if hKey == 0 {
		hKey = 0.25
	}
	if hNon == 0 {
		hNon = 0.5
	}

	contrib := Analyze(in.Final, in.Trace, in.CCLog)
	alloc := &Allocation{
		Scheme:     in.Scheme,
		PerWorker:  make(map[string]float64),
		PerMessage: make([]float64, len(in.Trace)),
		Contrib:    contrib,
		CellPay:    make([]float64, len(contrib.Cells)),
	}

	numCols := in.Schema.NumColumns()
	// Per-column cell counts |C_i|.
	colCount := make([]int, numCols)
	for _, c := range contrib.Cells {
		colCount[c.Cell.Col]++
	}

	// Step 4: distribute B over cells and votes according to the scheme.
	switch in.Scheme {
	case Uniform:
		total := len(contrib.Cells) + len(contrib.Upvotes) + len(contrib.Downvotes)
		if total == 0 {
			break
		}
		b := in.Budget / float64(total)
		for i := range alloc.CellPay {
			alloc.CellPay[i] = b
		}
		alloc.UpvotePay, alloc.DownvotePay = b, b
		w := Weights{Column: make([]float64, numCols), Z: make([]float64, numCols), Upvote: 1, Downvote: 1}
		for i := range w.Column {
			w.Column[i] = 1
		}
		alloc.Weights = w

	case ColumnWeighted, DualWeighted:
		w := computeWeights(numCols, contrib, in.Trace, in.JoinTime, in.Start)
		var y float64
		for i, c := range colCount {
			y += w.Column[i] * float64(c)
		}
		y += w.Upvote * float64(len(contrib.Upvotes))
		y += w.Downvote * float64(len(contrib.Downvotes))
		if y == 0 {
			alloc.Weights = w
			break
		}
		for i, c := range contrib.Cells {
			alloc.CellPay[i] = w.Column[c.Cell.Col] * in.Budget / y
		}
		alloc.UpvotePay = w.Upvote * in.Budget / y
		alloc.DownvotePay = w.Downvote * in.Budget / y

		if in.Scheme == DualWeighted {
			applyDualSpread(in, contrib, alloc, &w, y)
		}
		alloc.Weights = w
	default:
		return nil, fmt.Errorf("pay: unknown scheme %v", in.Scheme)
	}

	// Step 5: split each cell's pay between its direct and indirect
	// contributors.
	hFor := func(col int) float64 {
		if in.Schema.IsKeyColumn(col) {
			return hKey
		}
		return hNon
	}
	for i, c := range contrib.Cells {
		b := alloc.CellPay[i]
		h := hFor(c.Cell.Col)
		alloc.PerMessage[c.Direct] += h * b
		if c.Indirect >= 0 {
			alloc.PerMessage[c.Indirect] += (1 - h) * b
		}
	}
	for _, i := range contrib.Upvotes {
		alloc.PerMessage[i] += alloc.UpvotePay
	}
	for _, i := range contrib.Downvotes {
		alloc.PerMessage[i] += alloc.DownvotePay
	}

	// Step 6: sum per worker.
	for i, m := range in.Trace {
		if alloc.PerMessage[i] > 0 {
			alloc.PerWorker[m.Worker] += alloc.PerMessage[i]
			alloc.Allocated += alloc.PerMessage[i]
		}
	}
	return alloc, nil
}

// applyDualSpread replaces each key column's flat cell pay with linearly
// increasing pay over the column's values in first-appearance order
// (§5.2.2): the cell holding the k-th value earns
// (1 + 2z/(|C_i|−1)·(k − (|C_i|+1)/2)) · y_i·B/Y.
func applyDualSpread(in Input, contrib *Contributions, alloc *Allocation, w *Weights, y float64) {
	for _, col := range in.Schema.KeyColumns() {
		// Indexes of C's cells in this column.
		var idxs []int
		for i, c := range contrib.Cells {
			if c.Cell.Col == col {
				idxs = append(idxs, i)
			}
		}
		n := len(idxs)
		if n < 2 {
			continue
		}
		first := FirstAppearance(contrib.Cells, col, in.Trace, in.CCLog)
		sort.Slice(idxs, func(a, b int) bool {
			va, vb := contrib.Cells[idxs[a]].Value, contrib.Cells[idxs[b]].Value
			if first[va] != first[vb] {
				return first[va] < first[vb]
			}
			return va < vb
		})
		// Times taken to complete the k-th value: consecutive gaps between
		// first appearances (the first measured from collection start).
		times := make([]float64, n)
		prev := in.Start
		for k, i := range idxs {
			t := first[contrib.Cells[i].Value]
			times[k] = float64(t-prev) / 1e9
			if times[k] < 0 {
				times[k] = 0
			}
			prev = t
		}
		z := fitZ(times)
		w.Z[col] = z
		if z == 0 {
			continue
		}
		base := w.Column[col] * in.Budget / y
		mid := float64(n+1) / 2
		for k, i := range idxs {
			factor := 1 + 2*z/float64(n-1)*(float64(k+1)-mid)
			alloc.CellPay[i] = base * factor
		}
	}
}

// MAPE returns the mean absolute percentage error between estimated and
// actual per-worker amounts, over workers with nonzero actuals (Figure 5's
// metric).
func MAPE(actual, estimated map[string]float64) float64 {
	var sum float64
	n := 0
	for w, a := range actual {
		if a == 0 {
			continue
		}
		e := estimated[w]
		d := (e - a) / a
		if d < 0 {
			d = -d
		}
		sum += d
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) * 100
}
