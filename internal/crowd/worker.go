package crowd

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"crowdfill/internal/client"
	"crowdfill/internal/model"
)

// Spec parameterizes one simulated worker.
type Spec struct {
	// Name is the worker identity.
	Name string
	// Knowledge is the fraction of the ground truth this worker knows.
	Knowledge float64
	// FillAccuracy is the probability a fill uses the correct value.
	FillAccuracy float64
	// VoteAccuracy is the probability a vote matches the worker's own
	// knowledge-based judgement.
	VoteAccuracy float64
	// VotePreference is the probability of voting when both voting and
	// filling are possible.
	VotePreference float64
	// FillTime holds per-column mean think times (defaults applied when
	// short); VoteTime is the mean think time for votes.
	FillTime []time.Duration
	VoteTime time.Duration
	// ReconsiderProb is the probability that the worker re-researches a
	// contested row they already voted on (upvotes and downvotes both
	// present) and, if their vote now looks wrong, undoes it and votes the
	// other way — the paper's §8 vote-undo extension put to work. Without
	// reconsideration, a tied row can exhaust all eligible voters and
	// deadlock at score zero.
	ReconsiderProb float64
	// ResearchProb is the probability that, facing a complete row whose
	// entity the worker doesn't know, they "research" it (the human
	// analogue: a web search) and vote against the full ground truth.
	// Without research, rows only the entering worker knows could never
	// attract the votes completion requires.
	ResearchProb float64
	// DecidedNet is the net-vote margin at which workers consider a row
	// settled and stop piling votes on (default 2, matching majority-of-3
	// scoring; a majority-of-5 run needs 4). Mirrors how the data-entry
	// interface communicates how much verification a row still needs.
	DecidedNet int
	// FocusFill makes the worker prefer filling the most-complete row
	// first (the §8 recommendation strategy) instead of picking among
	// possible fills at random.
	FocusFill bool
	// LatencySigma is the lognormal spread of think times around their
	// means (0 means the default 0.6). Human latencies are heavy-tailed;
	// the spread is what makes the weighted schemes' medians hard to
	// estimate online (§6's scheme-dependent estimation accuracy).
	LatencySigma float64
	// Spammer makes the worker enter fast garbage and vote randomly
	// (the §8 threat model; used by the spammer-impact experiments).
	Spammer bool
	// Seed randomizes this worker independently.
	Seed int64
}

// ActionKind classifies a worker decision.
type ActionKind int

const (
	// ActIdle means nothing to do right now; try again later.
	ActIdle ActionKind = iota
	// ActFill fills Row's column Col with Value.
	ActFill
	// ActUpvote / ActDownvote vote on Row.
	ActUpvote
	ActDownvote
	// ActReconsider undoes the worker's earlier vote on Row and casts the
	// opposite one (Up gives the new direction).
	ActReconsider
)

// Decision is one step of worker behavior: what to do and how long the
// worker "thinks" before the action's message is generated. Think times are
// what the compensation scheme's latency statistics measure (§5.2.2).
type Decision struct {
	Kind  ActionKind
	Row   model.RowID
	Col   int
	Value string
	Up    bool // ActReconsider: the new vote direction
	Think time.Duration
}

// Worker is the behavior model bound to one worker identity. It is driven by
// the simulation harness: Decide inspects the worker's client view and
// produces the next Decision; the harness executes it against the client and
// schedules the resulting messages.
//
// What the worker knows is a shuffled sample of the truth plus an index over
// it, built once; a decision looks rows up instead of scanning the sample, so
// it costs the table it reads rather than table × knowledge. A Worker is not
// safe for concurrent use.
type Worker struct {
	Spec  Spec
	truth *Dataset
	rng   *rand.Rand
	known []model.Vector
	ix    *rowIndex // over known
	kc0   int       // the leading key column

	// Decide's scratch, cleared per call.
	taken       map[string]bool
	votes       []voteOption
	fills       []Decision
	reconsiders []Decision
}

// voteOption is a vote Decide could cast: the row and the worker's judgement.
type voteOption struct {
	row *model.Row
	up  bool
}

// NewWorker binds a spec to the ground truth, sampling the worker's
// knowledge subset.
func NewWorker(spec Spec, truth *Dataset) *Worker {
	rng := rand.New(rand.NewSource(spec.Seed))
	w := &Worker{
		Spec:  spec,
		truth: truth,
		rng:   rng,
		kc0:   truth.Schema.KeyColumns()[0],
		taken: make(map[string]bool),
	}
	for _, row := range truth.Rows {
		if rng.Float64() < spec.Knowledge {
			w.known = append(w.known, row)
		}
	}
	// Shuffle so different workers walk their knowledge in different orders;
	// otherwise everyone starts the same "next" entity and collides.
	rng.Shuffle(len(w.known), func(i, j int) { w.known[i], w.known[j] = w.known[j], w.known[i] })
	// Indexed after the shuffle: positions are the order lookups prefer.
	w.ix = newRowIndex(truth.Schema, w.known)
	return w
}

// KnownRows returns how many ground-truth rows the worker knows.
func (w *Worker) KnownRows() int { return len(w.known) }

func (w *Worker) fillMean(col int) time.Duration {
	if col < len(w.Spec.FillTime) && w.Spec.FillTime[col] > 0 {
		return w.Spec.FillTime[col]
	}
	return 8 * time.Second
}

func (w *Worker) voteMean() time.Duration {
	if w.Spec.VoteTime > 0 {
		return w.Spec.VoteTime
	}
	return 4 * time.Second
}

// jitter draws a lognormal think time with the given mean: heavy-tailed,
// like human response latencies.
func (w *Worker) jitter(mean time.Duration) time.Duration {
	sigma := w.Spec.LatencySigma
	if sigma == 0 {
		sigma = 0.6
	}
	// E[exp(sigma*Z - sigma^2/2)] = 1, so the mean is preserved.
	f := math.Exp(sigma*w.rng.NormFloat64() - sigma*sigma/2)
	return time.Duration(float64(mean) * f)
}

// Jitter draws a think time around mean using the worker's latency model
// (exported for the microtask baseline, which shares the crowd model).
func (w *Worker) Jitter(mean time.Duration) time.Duration { return w.jitter(mean) }

// Decide picks the worker's next action given their current table view.
func (w *Worker) Decide(c *client.Client) Decision {
	if w.Spec.Spammer {
		return w.decideSpammer(c)
	}
	rows := c.Rows(w.rng) // randomized presentation, as in the UI (§3.4)

	votes, fills, reconsiders := w.votes[:0], w.fills[:0], w.reconsiders[:0]

	// Transparency: workers see every entity already started and avoid
	// entering duplicates (one of the table-filling approach's advantages
	// the paper's §1 calls out).
	taken := w.taken
	clear(taken)
	for _, r := range rows {
		if r.Vec[w.kc0].Set {
			taken[r.Vec[w.kc0].Val] = true
		}
	}
	// The entity this worker would start in an empty row: the same for every
	// empty row of one view, since taken is fixed for the walk below.
	fresh := w.pickFreshTruth(taken)

	decidedNet := w.Spec.DecidedNet
	if decidedNet == 0 {
		decidedNet = 2
	}
	for _, r := range rows {
		// Voting opportunities. Rows already clearly decided attract no
		// further piling-on: an extra vote on a settled row earns nothing
		// under contribution-based pay, and the displayed estimates steer
		// real workers the same way.
		decidedUp := r.Up-r.Down >= decidedNet
		decidedDown := r.Down-r.Up >= decidedNet
		if r.Vec.IsPartial() && !c.VotedOn(r.Vec) && !decidedDown {
			if r.Vec.IsComplete() {
				if truth := w.lookupKnown(r.Vec); truth != nil {
					up := truth.Equal(r.Vec)
					if !(up && decidedUp) {
						votes = append(votes, voteOption{row: r, up: up})
					}
				} else if !decidedUp && w.rng.Float64() < w.Spec.ResearchProb {
					// Research an unknown entity against the full truth:
					// a fabricated key earns a downvote.
					full := w.truth.LookupByKey(r.Vec)
					votes = append(votes, voteOption{row: r, up: full != nil && full.Equal(r.Vec)})
				}
			} else if w.conflictsWithKnowledge(r.Vec) {
				votes = append(votes, voteOption{row: r, up: false})
			} else if w.rng.Float64() < w.Spec.ResearchProb && !w.truthSupports(r.Vec) {
				// Research a suspicious partial row (e.g. a typo'd name no
				// search would confirm): downvote data no truth supports.
				votes = append(votes, voteOption{row: r, up: false})
			}
		}
		// Filling opportunities.
		if d, ok := w.fillFor(r, fresh, taken); ok {
			fills = append(fills, d)
		}
		// Reconsideration opportunities: a contested complete row this
		// worker voted on.
		if r.Vec.IsComplete() && r.Up > 0 && r.Down > 0 && c.VoteDirection(r.Vec) != 0 &&
			w.rng.Float64() < w.Spec.ReconsiderProb {
			full := w.truth.LookupByKey(r.Vec)
			judge := full != nil && full.Equal(r.Vec)
			if w.rng.Float64() >= w.Spec.VoteAccuracy {
				judge = !judge
			}
			votedUp := c.VoteDirection(r.Vec) > 0
			if judge != votedUp {
				reconsiders = append(reconsiders, Decision{
					Kind: ActReconsider, Row: r.ID, Up: judge,
					Think: w.jitter(2 * w.voteMean()),
				})
			}
		}
	}

	w.votes, w.fills, w.reconsiders = votes, fills, reconsiders

	// VotePreference zero means the worker never votes (the paper's §6 run
	// had such a worker); otherwise voting wins by preference, or by
	// default when no fill is possible.
	wantsVote := w.Spec.VotePreference > 0 &&
		(len(fills) == 0 || w.rng.Float64() < w.Spec.VotePreference)
	switch {
	case len(votes) > 0 && wantsVote:
		v := votes[w.rng.Intn(len(votes))]
		up := v.up
		if w.rng.Float64() >= w.Spec.VoteAccuracy {
			up = !up
		}
		kind := ActDownvote
		if up {
			kind = ActUpvote
		}
		// Upvotes only apply to complete rows; an "accidental" upvote of a
		// partial row becomes a skipped turn.
		if up && !v.row.Vec.IsComplete() {
			return Decision{Kind: ActIdle, Think: w.jitter(w.voteMean())}
		}
		return Decision{Kind: kind, Row: v.row.ID, Think: w.jitter(w.voteMean())}
	case len(fills) > 0:
		if w.Spec.FocusFill {
			// Recommendation strategy (§8): complete the nearest-finished
			// row first, accelerating verification.
			best := fills[0]
			bestSet := -1
			for _, d := range fills {
				if row := c.Replica().Table().Get(d.Row); row != nil {
					if n := row.Vec.CountSet(); n > bestSet {
						bestSet = n
						best = d
					}
				}
			}
			return best
		}
		return fills[w.rng.Intn(len(fills))]
	case len(reconsiders) > 0:
		return reconsiders[w.rng.Intn(len(reconsiders))]
	default:
		return Decision{Kind: ActIdle, Think: w.jitter(5 * time.Second)}
	}
}

// fillFor proposes a fill on row r, if this worker can contribute to it.
// taken holds first-key-column values already present in the table; fresh is
// pickFreshTruth(taken).
func (w *Worker) fillFor(r *model.Row, fresh model.Vector, taken map[string]bool) (Decision, bool) {
	if r.Vec.IsComplete() {
		return Decision{}, false
	}
	if r.Vec.IsEmpty() {
		// Start a new entity the worker knows and nobody has started. The
		// transparency of table-filling makes the "nobody has started" check
		// possible: the taken set holds every visible leading key value.
		if fresh == nil {
			return Decision{}, false
		}
		col := w.kc0
		return Decision{
			Kind:  ActFill,
			Row:   r.ID,
			Col:   col,
			Value: w.valueFor(fresh, col),
			Think: w.jitter(w.fillMean(col)),
		}, true
	}
	truth := w.matchKnownFresh(r.Vec, taken)
	if truth == nil {
		return Decision{}, false
	}
	// Fill the first empty column (schema order: keys tend first).
	for col := range r.Vec {
		if !r.Vec[col].Set {
			return Decision{
				Kind:  ActFill,
				Row:   r.ID,
				Col:   col,
				Value: w.valueFor(truth, col),
				Think: w.jitter(w.fillMean(col)),
			}, true
		}
	}
	return Decision{}, false
}

// valueFor returns the truth value with probability FillAccuracy, otherwise
// a plausible wrong value of the right type.
func (w *Worker) valueFor(truth model.Vector, col int) string {
	correct := truth[col].Val
	if w.rng.Float64() < w.Spec.FillAccuracy {
		return correct
	}
	return w.wrongValue(col, correct)
}

func (w *Worker) wrongValue(col int, correct string) string {
	c := w.truth.Schema.Columns[col]
	if len(c.Domain) > 0 {
		for i := 0; i < 8; i++ {
			v := c.Domain[w.rng.Intn(len(c.Domain))]
			if v != correct {
				return v
			}
		}
		return correct
	}
	switch c.Type {
	case model.TypeInt:
		return fmt.Sprint(1 + w.rng.Intn(150))
	case model.TypeFloat:
		return fmt.Sprintf("%.2f", w.rng.Float64()*100)
	case model.TypeDate:
		return fmt.Sprintf("%04d-%02d-%02d", 1950+w.rng.Intn(50), 1+w.rng.Intn(12), 1+w.rng.Intn(28))
	default:
		return correct + "e" // a typo
	}
}

// lookupKnown returns the known truth row with v's key, or nil if this worker
// cannot judge v: the entity is not in their knowledge, or v's key is
// incomplete and names no entity yet.
func (w *Worker) lookupKnown(v model.Vector) model.Vector { return w.ix.lookup(v) }

// matchKnownFresh finds the first known truth row consistent with v, avoiding
// entities already visible in the table when v's leading key cell is still
// open (otherwise the worker would keep re-entering the same entity into
// every template-seeded row and thrash forever).
func (w *Worker) matchKnownFresh(v model.Vector, taken map[string]bool) model.Vector {
	if v.IsEmpty() {
		return w.pickFreshTruth(taken)
	}
	keyPinned := v[w.kc0].Set
	for _, p := range w.ix.candidates(v) {
		row := w.known[p]
		if v.Subset(row) && (keyPinned || !taken[row[w.kc0].Val]) {
			return row
		}
	}
	return nil
}

// truthSupports reports whether any ground-truth row is consistent with all
// of v's set cells (the research check for suspicious partial rows).
func (w *Worker) truthSupports(v model.Vector) bool { return w.truth.index().supports(v) }

// conflictsWithKnowledge reports whether v's key is known but some set value
// contradicts the truth — a downvoting opportunity on a partial row.
func (w *Worker) conflictsWithKnowledge(v model.Vector) bool {
	truth := w.lookupKnown(v)
	return truth != nil && !v.Subset(truth)
}

// pickFreshTruth returns the first known truth row whose leading key value
// is not already visible in the table. It is the one walk over the worker's
// knowledge a decision makes.
func (w *Worker) pickFreshTruth(taken map[string]bool) model.Vector {
	for _, row := range w.known {
		if !taken[row[w.kc0].Val] {
			return row
		}
	}
	return nil
}

// decideSpammer fabricates fast garbage fills and random votes.
func (w *Worker) decideSpammer(c *client.Client) Decision {
	rows := c.Rows(w.rng)
	for _, r := range rows {
		if r.Vec.IsPartial() && !c.VotedOn(r.Vec) && w.rng.Float64() < 0.3 {
			kind := ActDownvote
			if r.Vec.IsComplete() && w.rng.Float64() < 0.5 {
				kind = ActUpvote
			}
			return Decision{Kind: kind, Row: r.ID, Think: w.jitter(time.Second)}
		}
		for col := range r.Vec {
			if !r.Vec[col].Set {
				return Decision{
					Kind:  ActFill,
					Row:   r.ID,
					Col:   col,
					Value: w.wrongValue(col, ""),
					Think: w.jitter(time.Second),
				}
			}
		}
	}
	return Decision{Kind: ActIdle, Think: w.jitter(2 * time.Second)}
}
