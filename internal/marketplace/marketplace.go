// Package marketplace simulates the crowdsourcing marketplace CrowdFill's
// front-end server talks to (paper §3.2, Amazon Mechanical Turk in the
// original). It models externally-hosted HITs, a worker pool with seeded
// arrivals, task acceptance, and bonus payments — in sandbox mode (the
// paper's experiments also ran against the MTurk developer sandbox, where
// compensation is computed but not actually paid).
package marketplace

import (
	"errors"
	"fmt"
	"math/rand"
	gosync "sync"
	"time"

	"crowdfill/internal/metrics"
	"crowdfill/internal/simclock"
)

// Errors surfaced by marketplace operations.
var (
	ErrNoSuchHIT   = errors.New("marketplace: no such HIT")
	ErrHITExpired  = errors.New("marketplace: HIT expired")
	ErrHITFull     = errors.New("marketplace: all assignments taken")
	ErrBadAmount   = errors.New("marketplace: non-positive payment")
	ErrUnknownWork = errors.New("marketplace: unknown worker")
)

// HIT is one externally-hosted task batch ("Human Intelligence Task").
type HIT struct {
	ID string
	// Title and ExternalURL describe the task; workers accepting it are
	// redirected to the back-end server (§3.1 step 3).
	Title       string
	ExternalURL string
	// MaxAssignments caps concurrent workers.
	MaxAssignments int
	// Accepted lists workers who took the task.
	Accepted []string
	Expired  bool
	Created  time.Time
}

// Payment is one bonus-payment ledger entry.
type Payment struct {
	Worker string
	Amount float64
	Reason string
}

// Marketplace is the simulated marketplace.
type Marketplace struct {
	mu      gosync.Mutex
	rng     *rand.Rand
	clock   simclock.Clock
	sandbox bool
	seq     int64
	hits    map[string]*HIT
	// pool holds worker identities who may accept tasks.
	pool    []string
	nextW   int
	ledger  []Payment
	balance map[string]float64
	stats   mktStats
}

// mktStats is the marketplace's slice of the process metrics: HIT lifecycle
// and payment activity, visible on the same /debug endpoints as the serving
// plane. Counters and gauges only — the marketplace runs inside seeded
// simulations, so it takes no clock or randomness from the instruments.
type mktStats struct {
	hits      *metrics.Counter
	accepts   *metrics.Counter
	expiries  *metrics.Counter
	payments  *metrics.Counter
	totalPaid *metrics.FloatGauge
}

func newMktStats(r *metrics.Registry) mktStats {
	return mktStats{
		hits:      r.Counter("crowdfill_mkt_hits_total", "HITs created"),
		accepts:   r.Counter("crowdfill_mkt_accepts_total", "task acceptances"),
		expiries:  r.Counter("crowdfill_mkt_expiries_total", "HITs expired"),
		payments:  r.Counter("crowdfill_mkt_payments_total", "bonus payments recorded"),
		totalPaid: r.FloatGauge("crowdfill_mkt_paid_total", "sum of recorded bonus payments"),
	}
}

// New returns a marketplace with a pool of n simulated workers. sandbox
// marks payments as not-real (they are recorded either way).
func New(seed int64, poolSize int, sandbox bool) *Marketplace {
	m := &Marketplace{
		rng:     rand.New(rand.NewSource(seed)),
		clock:   simclock.Real{},
		sandbox: sandbox,
		hits:    make(map[string]*HIT),
		balance: make(map[string]float64),
		stats:   newMktStats(metrics.Default()),
	}
	for i := 0; i < poolSize; i++ {
		m.pool = append(m.pool, fmt.Sprintf("turker-%04d", i+1))
	}
	// Shuffle so arrival order isn't the numeric order.
	m.rng.Shuffle(len(m.pool), func(i, j int) { m.pool[i], m.pool[j] = m.pool[j], m.pool[i] })
	return m
}

// CreateHIT publishes a task with an external question URL (§3.2: the
// marketplace must allow externally-hosted questions and bonus payments).
func (m *Marketplace) CreateHIT(title, externalURL string, maxAssignments int) (*HIT, error) {
	if maxAssignments <= 0 {
		return nil, errors.New("marketplace: need at least one assignment")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	h := &HIT{
		ID:             fmt.Sprintf("HIT-%06d", m.seq),
		Title:          title,
		ExternalURL:    externalURL,
		MaxAssignments: maxAssignments,
		Created:        time.Unix(0, m.clock.Now()),
	}
	m.hits[h.ID] = h
	m.stats.hits.Inc()
	return h, nil
}

// Accept simulates the next pool worker accepting the HIT, returning the
// worker identity to redirect to the back-end server.
func (m *Marketplace) Accept(hitID string) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.hits[hitID]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNoSuchHIT, hitID)
	}
	if h.Expired {
		return "", fmt.Errorf("%w: %s", ErrHITExpired, hitID)
	}
	if len(h.Accepted) >= h.MaxAssignments {
		return "", fmt.Errorf("%w: %s", ErrHITFull, hitID)
	}
	if m.nextW >= len(m.pool) {
		return "", errors.New("marketplace: worker pool exhausted")
	}
	w := m.pool[m.nextW]
	m.nextW++
	h.Accepted = append(h.Accepted, w)
	m.balance[w] += 0 // materialize the worker in the ledger index
	m.stats.accepts.Inc()
	return w, nil
}

// Expire closes a HIT to further acceptances.
func (m *Marketplace) Expire(hitID string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.hits[hitID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchHIT, hitID)
	}
	h.Expired = true
	m.stats.expiries.Inc()
	return nil
}

// Register adds an out-of-band worker to the ledger — the paper's own
// experiments recruited workers locally rather than through the live
// marketplace, and such workers still need bonus payments.
func (m *Marketplace) Register(worker string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.balance[worker]; !ok {
		m.balance[worker] = 0
	}
}

// PayBonus records a bonus payment to a worker (§3.1 step 5).
func (m *Marketplace) PayBonus(worker string, amount float64, reason string) error {
	if amount <= 0 {
		return fmt.Errorf("%w: %f to %s", ErrBadAmount, amount, worker)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.balance[worker]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownWork, worker)
	}
	m.ledger = append(m.ledger, Payment{Worker: worker, Amount: amount, Reason: reason})
	m.balance[worker] += amount
	m.stats.payments.Inc()
	m.stats.totalPaid.Add(amount)
	return nil
}
