package pay

import (
	"sort"

	"crowdfill/internal/constraint"
	"crowdfill/internal/model"
	"crowdfill/internal/sync"
)

// Record is one per-action estimate shown to a worker during collection,
// kept so experiments can compare estimated against actual compensation
// (Figure 5).
type Record struct {
	TraceIdx int
	Worker   string
	Estimate float64
}

// Estimator implements §5.3's online compensation estimation: every worker
// action gets an estimated pay, computed under the assumptions that (1) the
// action will contribute to the final table and (2) a fill contributes both
// directly and indirectly. Estimates for the weighted schemes start from
// uniform weights and converge as latency observations accumulate.
//
// Estimates are displayed per handled message, so their cost is the server's
// per-message hot path. The estimator follows a model.TableIndex and
// maintains its denominator incrementally from the index's probable-set
// deltas — upvote-surplus and consistent-downvote tallies, exact-vector
// lookups — so computing an estimate never rescans the probable rows.
type Estimator struct {
	schema *model.Schema
	scheme Scheme
	budget float64
	tmpl   constraint.Template
	umin   int
	start  int64

	lastTS map[string]int64
	joinTS map[string]int64

	colGaps  []medianCache
	upGaps   medianCache
	downGaps medianCache

	// firstSeen[col][val] is the earliest fill of val into col, for the
	// dual scheme's key-value ordering. seenTimes keeps the same timestamps
	// sorted ascending so the z fit never re-sorts; zCache memoizes the fit
	// until a first-appearance time changes.
	firstSeen []map[string]int64
	seenTimes [][]int64
	zCache    []float64
	zValid    []bool

	// estC caches the per-column empty-cell counts |C_i| (template-static).
	estC []int

	// wCol and wHave are weights' scratch: the per-column weights it returns
	// (valid until the next call) and the positive ones its fallback median
	// sorts in place.
	wCol  []float64
	wHave []float64

	// inc maintains the denominator tallies and the usefulness lookups from
	// the deltas of idx.
	inc *denomTracker
	idx *model.TableIndex

	// Records holds one entry per paid observed worker action, in trace
	// order. TraceIdx indexes the server's trace (Observe must be called
	// exactly once per trace message, in order).
	Records []Record
	// PerWorker accumulates raw estimate sums per worker.
	PerWorker map[string]float64

	observed int // trace messages seen so far

	// trackPerformance enables the §5.3 future-work refinement the paper
	// explicitly sets aside ("if we kept track of worker's past
	// performance we could adjust our estimates accordingly"): each
	// worker's estimates are scaled by their observed rate of useful
	// actions, so consistently-unhelpful workers watch their projected
	// earnings collapse.
	trackPerformance bool
	workerActions    map[string]int
	workerUseful     map[string]int
}

// medianCache keeps samples sorted as they arrive so the median is O(1) per
// query instead of copy-and-sort per weight computation.
type medianCache struct {
	xs []float64
}

func (m *medianCache) add(x float64) {
	i := sort.SearchFloat64s(m.xs, x)
	m.xs = append(m.xs, 0)
	copy(m.xs[i+1:], m.xs[i:])
	m.xs[i] = x
}

func (m *medianCache) value() float64 {
	n := len(m.xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return m.xs[n/2]
	}
	return (m.xs[n/2-1] + m.xs[n/2]) / 2
}

// NewEstimator returns an estimator for one data-collection run. start is
// the collection start timestamp. idx must be attached to the replica whose
// messages are observed (e.g. via rep.SetObserver); the estimator seeds its
// tallies from idx's current probable set and follows its deltas from then on.
func NewEstimator(schema *model.Schema, score model.ScoreFunc, scheme Scheme, budget float64, tmpl constraint.Template, start int64, idx *model.TableIndex) *Estimator {
	umin := model.MinUpvotes(score, 64)
	e := &Estimator{
		schema:    schema,
		scheme:    scheme,
		budget:    budget,
		tmpl:      tmpl,
		umin:      umin,
		start:     start,
		lastTS:    make(map[string]int64),
		joinTS:    make(map[string]int64),
		colGaps:   make([]medianCache, schema.NumColumns()),
		firstSeen: make([]map[string]int64, schema.NumColumns()),
		seenTimes: make([][]int64, schema.NumColumns()),
		zCache:    make([]float64, schema.NumColumns()),
		zValid:    make([]bool, schema.NumColumns()),
		estC:      make([]int, schema.NumColumns()),
		wCol:      make([]float64, schema.NumColumns()),
		wHave:     make([]float64, 0, schema.NumColumns()),
		inc:       newDenomTracker(umin),
		idx:       idx,
		PerWorker: make(map[string]float64),
	}
	for i := range e.firstSeen {
		e.firstSeen[i] = make(map[string]int64)
		e.estC[i] = tmpl.EmptyCellsInColumn(i)
	}
	e.workerActions = make(map[string]int)
	e.workerUseful = make(map[string]int)
	idx.AddDeltaListener(e.inc)
	for _, r := range idx.Probable() {
		e.inc.ProbableAdded(r)
	}
	return e
}

// TrackPerformance enables per-worker performance scaling of estimates
// (§5.3's noted refinement). Call before observing any messages.
func (e *Estimator) TrackPerformance(on bool) { e.trackPerformance = on }

// performanceFactor returns the worker's useful-action rate with a Laplace
// prior, so new workers start near 1 and spam drags the factor down.
func (e *Estimator) performanceFactor(worker string) float64 {
	if !e.trackPerformance {
		return 1
	}
	a := e.workerActions[worker]
	u := e.workerUseful[worker]
	return (float64(u) + 2) / (float64(a) + 2)
}

// Join records a worker's join time (the baseline for their first action's
// time-taken).
func (e *Estimator) Join(worker string, ts int64) {
	if _, ok := e.joinTS[worker]; !ok {
		e.joinTS[worker] = ts
	}
}

// Observe computes the estimate displayed for message m, records it, and
// folds m's latency into the weight estimates. Denominator tallies and
// usefulness checks come from the index-driven tracker, so nothing sorts or
// rescans the probable rows per message; unpaid CC traffic returns before
// touching them.
func (e *Estimator) Observe(m sync.Message) float64 {
	traceIdx := e.observed
	e.observed++
	if m.Worker == "" || (m.Type == sync.MsgUpvote && m.Auto) {
		// CC traffic and auto-upvotes are unpaid and show no estimate,
		// but fills that carry an auto-upvote are handled as replaces.
		if m.Type != sync.MsgReplace {
			return 0
		}
	}
	e.idx.Version() // flush pending deltas into the tracker

	var est float64
	switch m.Type {
	case sync.MsgReplace:
		est = e.estimateFill(m.Col)
	case sync.MsgUpvote:
		est = e.estimateVote(true)
	case sync.MsgDownvote:
		est = e.estimateVote(false)
	default:
		return 0
	}
	est *= e.performanceFactor(m.Worker)
	e.Records = append(e.Records, Record{TraceIdx: traceIdx, Worker: m.Worker, Estimate: est})
	e.PerWorker[m.Worker] += est

	e.absorb(m)
	return est
}

// absorb folds one observed message into the latency statistics and the
// per-worker performance counters.
func (e *Estimator) absorb(m sync.Message) {
	// An action is "useful" when it contributes under the same probable-row
	// heuristics the weight statistics use (§5.3): a fill whose replaced or
	// constructed row is probable (the replica may be observed before or
	// after the message applied), an upvote on a probable value, a downvote
	// consistent with every probable row (registering it with the tracker).
	var useful bool
	switch m.Type {
	case sync.MsgReplace:
		useful = e.inc.isProbable(m.Row) || e.inc.isProbable(m.NewRow)
	case sync.MsgUpvote:
		useful = e.inc.hasVec(m.Vec)
	case sync.MsgDownvote:
		useful = e.inc.addDownvote(m.Vec)
	default:
		// Other kinds never count as useful work.
	}
	if m.Worker != "" && !(m.Type == sync.MsgUpvote && m.Auto) {
		e.workerActions[m.Worker]++
		if useful {
			e.workerUseful[m.Worker]++
		}
	}
	prev, ok := e.lastTS[m.Worker]
	if !ok {
		if jt, okj := e.joinTS[m.Worker]; okj {
			prev = jt
		} else {
			prev = e.start
		}
	}
	gap := float64(m.TS-prev) / 1e9
	if gap < 0 {
		gap = 0
	}
	e.lastTS[m.Worker] = m.TS

	switch m.Type {
	case sync.MsgReplace:
		e.noteFirstSeen(m.Col, m.Val, m.TS)
		if useful {
			e.colGaps[m.Col].add(gap)
		}
	case sync.MsgUpvote:
		if m.Auto {
			return
		}
		if useful {
			e.upGaps.add(gap)
		}
	case sync.MsgDownvote:
		if useful {
			e.downGaps.add(gap)
		}
	default:
		// Latency gaps track fills and votes only (§5.3).
	}
}

// noteFirstSeen records the earliest fill of val into col, keeping the
// per-column first-appearance times sorted and invalidating the cached z fit
// when they change.
func (e *Estimator) noteFirstSeen(col int, val string, ts int64) {
	old, seen := e.firstSeen[col][val]
	if seen && ts >= old {
		return
	}
	e.firstSeen[col][val] = ts
	st := e.seenTimes[col]
	if seen {
		// Reposition: drop one instance of the old time, insert the new one.
		i := sort.Search(len(st), func(i int) bool { return st[i] >= old })
		st = append(st[:i], st[i+1:]...)
	}
	i := sort.Search(len(st), func(i int) bool { return st[i] >= ts })
	st = append(st, 0)
	copy(st[i+1:], st[i:])
	st[i] = ts
	e.seenTimes[col] = st
	e.zValid[col] = false
}

// weights returns the current weight estimates (uniform until latency data
// accumulates). col is estimator-owned scratch, overwritten by the next call.
func (e *Estimator) weights() (col []float64, up, down float64) {
	col = e.wCol
	if e.scheme == Uniform {
		for i := range col {
			col[i] = 1
		}
		return col, 1, 1
	}
	have := e.wHave[:0]
	for i := range col {
		col[i] = e.colGaps[i].value()
		if col[i] > 0 {
			have = append(have, col[i])
		}
	}
	fallback := medianInPlace(have)
	if fallback == 0 {
		fallback = 1
	}
	for i := range col {
		if col[i] == 0 {
			col[i] = fallback
		}
	}
	up = e.upGaps.value()
	if up == 0 {
		up = fallback
	}
	down = e.downGaps.value()
	if down == 0 {
		down = fallback
	}
	return col, up, down
}

// counts returns the denominators |C|, |U|, |D| (§5.3): the template's
// per-column empty cells; (umin−1)·|T| upvotes grown by the probable rows'
// upvote surplus; and the downvotes consistent with every probable row. The
// tallies come from the tracker.
func (e *Estimator) counts() (estC []int, estU, estD int) {
	return e.estC, (e.umin-1)*len(e.tmpl.Rows) + e.inc.sumU, e.inc.nCons
}

func (e *Estimator) denominator() (col []float64, up, down, y float64) {
	col, up, down = e.weights()
	estC, estU, estD := e.counts()
	for i, c := range estC {
		y += col[i] * float64(c)
	}
	y += up*float64(estU) + down*float64(estD)
	return col, up, down, y
}

// estimateFill returns the estimated pay for filling a cell of column ci,
// assuming both direct and indirect contribution (§5.3).
func (e *Estimator) estimateFill(ci int) float64 {
	col, _, _, y := e.denominator()
	return e.fillShare(ci, col[ci], y)
}

// fillShare is estimateFill given column ci's weight w and the denominator y.
func (e *Estimator) fillShare(ci int, w, y float64) float64 {
	if y == 0 {
		return 0
	}
	base := w * e.budget / y
	if e.scheme != DualWeighted || !e.schema.IsKeyColumn(ci) {
		return base
	}
	// Dual-weighted: position the next value at k = seen+1 within the
	// column's expected |C_i| values, with z fitted to first-appearance gaps.
	n := e.estC[ci]
	if n < 2 {
		return base
	}
	k := len(e.firstSeen[ci]) + 1
	if k > n {
		k = n
	}
	z := e.fitColumnZ(ci)
	if z == 0 {
		return base
	}
	mid := float64(n+1) / 2
	return base * (1 + 2*z/float64(n-1)*(float64(k)-mid))
}

// fitColumnZ fits z from the gaps between first appearances of distinct
// values in column ci so far. The first-appearance times are maintained in
// sorted order and the fit is memoized, so displaying an estimate does no
// per-call sorting.
func (e *Estimator) fitColumnZ(ci int) float64 {
	if e.zValid[ci] {
		return e.zCache[ci]
	}
	st := e.seenTimes[ci]
	var z float64
	if len(st) >= 2 {
		gaps := make([]float64, len(st))
		prev := e.start
		for i, t := range st {
			gaps[i] = float64(t-prev) / 1e9
			if gaps[i] < 0 {
				gaps[i] = 0
			}
			prev = t
		}
		z = fitZ(gaps)
	}
	e.zCache[ci], e.zValid[ci] = z, true
	return z
}

// estimateVote returns the estimated pay for an upvote or downvote.
func (e *Estimator) estimateVote(up bool) float64 {
	_, wu, wd, y := e.denominator()
	if up {
		return e.voteShare(wu, y)
	}
	return e.voteShare(wd, y)
}

// voteShare is estimateVote given the vote type's weight w and the
// denominator y.
func (e *Estimator) voteShare(w, y float64) float64 {
	if y == 0 {
		return 0
	}
	return w * e.budget / y
}

// Current fills out with the per-action estimates to display in clients'
// column headers (Figure 1). The denominator comes from the incrementally
// maintained tallies, so producing the payload is O(columns), and every
// figure derives from that one denominator: each is the arithmetic
// estimateFill/estimateVote would do on it. out's column slice is reused
// when it is wide enough, so a caller that keeps one scratch payload to
// compare against allocates nothing.
func (e *Estimator) Current(out *sync.Estimates) {
	e.idx.Version()
	col, up, down, y := e.denominator()
	if out.PerColumn == nil || cap(out.PerColumn) < len(col) {
		out.PerColumn = make([]float64, len(col))
	}
	out.PerColumn = out.PerColumn[:len(col)]
	for i, w := range col {
		out.PerColumn[i] = e.fillShare(i, w, y)
	}
	out.Upvote = e.voteShare(up, y)
	out.Downvote = e.voteShare(down, y)
}
