// Package client implements the worker-client runtime (paper §3.4): a local
// replica of the candidate table, the fill/upvote/downvote worker actions
// with their client-side restrictions (one vote per worker per row, one
// upvote per primary key, automatic upvote on row completion, a cap on votes
// per row), plus the §8 extensions: modify, vote undo, and cell
// recommendation. The runtime is transport-agnostic: actions return the
// messages to send to the server, and server traffic is fed to HandleServer.
package client

import (
	"errors"
	"fmt"
	"math/rand"

	"crowdfill/internal/model"
	"crowdfill/internal/sync"
)

// Config configures one worker client.
type Config struct {
	// ID is the client id (the message Origin); must be unique per
	// connection.
	ID string
	// Worker identifies the human (or simulated) worker for compensation.
	Worker string
	// Schema is the collected table's schema.
	Schema *model.Schema
	// MaxVotesPerRow caps up+down votes per row; 0 means unlimited
	// (the paper's optional excessive-voting guard, §3.4).
	MaxVotesPerRow int
	// AllowModify enables the §8 "modify" extension, which needs the
	// client to issue insert operations.
	AllowModify bool
}

// Client is one worker client.
type Client struct {
	cfg Config
	rep *sync.Replica
	gen *sync.IDGen
	seq int64

	// voted tracks value-vectors this worker has voted on (directly or
	// indirectly, including auto-upvotes).
	voted *model.VecMap[voteKind]
	// upvotedKeys tracks primary keys this worker has upvoted.
	upvotedKeys map[string]bool

	done bool
	// est holds the latest figures the server broadcast, copied out of the
	// received message: a link reuses the storage it decodes an estimate
	// into. hasEst is false until the first arrives.
	est    sync.Estimates
	hasEst bool
}

type voteKind int

const (
	votedNone voteKind = iota
	votedUp
	votedDown
)

// Errors returned when an action violates a client-side restriction.
var (
	ErrAlreadyVoted   = errors.New("client: worker already voted on this row")
	ErrKeyUpvoted     = errors.New("client: worker already upvoted a row with this primary key")
	ErrVoteCapReached = errors.New("client: row reached the maximum number of votes")
	ErrNotVoted       = errors.New("client: no vote by this worker to undo")
	ErrDone           = errors.New("client: data collection has finished")
	ErrModifyDisabled = errors.New("client: modify extension not enabled")
	ErrCellEmpty      = errors.New("client: modify requires a non-empty cell")
)

// New returns a worker client with an empty local table (the server sends a
// snapshot on join).
func New(cfg Config) (*Client, error) {
	if cfg.ID == "" || cfg.Worker == "" {
		return nil, errors.New("client: needs ID and Worker")
	}
	if err := cfg.Schema.Validate(); err != nil {
		return nil, err
	}
	return &Client{
		cfg:         cfg,
		rep:         sync.NewReplica(cfg.Schema),
		gen:         sync.NewIDGen(cfg.ID),
		voted:       model.NewVecMap[voteKind](),
		upvotedKeys: make(map[string]bool),
	}, nil
}

// Replica exposes the client's local table copy (read-only for callers).
func (c *Client) Replica() *sync.Replica { return c.rep }

// Done reports whether the server has declared collection complete.
func (c *Client) Done() bool { return c.done }

// Estimates returns the latest per-action compensation estimates broadcast
// by the server (nil before the first broadcast). They are the client's own
// copy, overwritten in place by the next estimate: read them under whatever
// serializes HandleServer (a Runner's lock), and copy what must outlive it.
func (c *Client) Estimates() *sync.Estimates {
	if !c.hasEst {
		return nil
	}
	return &c.est
}

// HandleServer processes a message received from the server. It keeps
// nothing of an estimate message but a copy of its figures, so the message
// may be a transport's lease; one without a payload changes nothing.
func (c *Client) HandleServer(m sync.Message) error {
	switch m.Type {
	case sync.MsgDone:
		c.done = true
		return nil
	case sync.MsgEstimate:
		if e := m.Estimates; e != nil {
			c.est.PerColumn = append(c.est.PerColumn[:0], e.PerColumn...)
			c.est.Upvote, c.est.Downvote = e.Upvote, e.Downvote
			c.hasEst = true
		}
		return nil
	default:
		return c.rep.Apply(m)
	}
}

// HandleServerBatch processes a burst of server messages in order, stopping
// at the first error. Replica mutations route through Replica.ApplyAll's
// contract: the prefix before an error is applied.
func (c *Client) HandleServerBatch(msgs []sync.Message) error {
	for i := range msgs {
		if err := c.HandleServer(msgs[i]); err != nil {
			return err
		}
	}
	return nil
}

// stamp fills the bookkeeping fields on an outgoing message.
func (c *Client) stamp(m *sync.Message) {
	c.seq++
	m.Origin = c.cfg.ID
	m.Worker = c.cfg.Worker
	m.Seq = c.seq
}

// Fill fills the empty column col of row id with raw value v. The value is
// validated and canonicalized against the schema. If the fill completes the
// row, the client automatically upvotes it (paper §3.4), with the upvote
// flagged Auto so it earns no separate compensation. Returns the messages to
// send to the server, in order.
func (c *Client) Fill(id model.RowID, col int, raw string) ([]sync.Message, error) {
	if c.done {
		return nil, ErrDone
	}
	val, err := c.cfg.Schema.CheckValue(col, raw)
	if err != nil {
		return nil, err
	}
	m, err := c.rep.Fill(id, col, val, c.gen.Next())
	if err != nil {
		return nil, err
	}
	c.stamp(&m)
	out := []sync.Message{m}

	newRow := c.rep.Table().Get(m.NewRow)
	if newRow != nil && newRow.Vec.IsComplete() {
		// Auto-upvote the completed row; this counts as the worker's one
		// vote on the row and their one upvote for its key.
		if c.vote(newRow.Vec) == votedNone && !c.keyUpvoted(newRow.Vec) {
			up, uerr := c.rep.Upvote(newRow.ID)
			if uerr == nil {
				up.Auto = true
				c.stamp(&up)
				c.recordVote(newRow.Vec, votedUp)
				out = append(out, up)
			}
		}
	}
	return out, nil
}

// FillByName is Fill with a column name.
func (c *Client) FillByName(id model.RowID, column, raw string) ([]sync.Message, error) {
	col := c.cfg.Schema.ColumnIndex(column)
	if col < 0 {
		return nil, fmt.Errorf("client: unknown column %q", column)
	}
	return c.Fill(id, col, raw)
}

func (c *Client) recordVote(v model.Vector, kind voteKind) {
	c.voted.Set(v.Hashed(), kind)
	if kind == votedUp {
		c.upvotedKeys[v.KeyOf(c.cfg.Schema)] = true
	}
}

// vote returns this worker's outstanding vote on exactly vector v. The
// checks every action and every rendered row make allocate nothing.
func (c *Client) vote(v model.Vector) voteKind {
	kind, _ := c.voted.Get(v.Hashed())
	return kind
}

// keyUpvoted reports whether this worker has upvoted a row with v's primary
// key. It builds the key in a stack buffer, so the check allocates nothing.
func (c *Client) keyUpvoted(v model.Vector) bool {
	var buf [model.KeyScratch]byte
	return c.upvotedKeys[string(v.AppendKeyOf(buf[:0], c.cfg.Schema))]
}

// voteCapOK checks the optional per-row vote cap.
func (c *Client) voteCapOK(r *model.Row) bool {
	return c.cfg.MaxVotesPerRow <= 0 || r.Up+r.Down < c.cfg.MaxVotesPerRow
}

// Upvote casts this worker's upvote on a complete row.
func (c *Client) Upvote(id model.RowID) (sync.Message, error) {
	if c.done {
		return sync.Message{}, ErrDone
	}
	row := c.rep.Table().Get(id)
	if row == nil {
		return sync.Message{}, fmt.Errorf("%w: %s", sync.ErrNoSuchRow, id)
	}
	if c.vote(row.Vec) != votedNone {
		return sync.Message{}, ErrAlreadyVoted
	}
	if row.Vec.IsComplete() && c.keyUpvoted(row.Vec) {
		return sync.Message{}, ErrKeyUpvoted
	}
	if !c.voteCapOK(row) {
		return sync.Message{}, ErrVoteCapReached
	}
	m, err := c.rep.Upvote(id)
	if err != nil {
		return sync.Message{}, err
	}
	c.stamp(&m)
	c.recordVote(m.Vec, votedUp)
	return m, nil
}

// Downvote casts this worker's downvote on a partial row.
func (c *Client) Downvote(id model.RowID) (sync.Message, error) {
	if c.done {
		return sync.Message{}, ErrDone
	}
	row := c.rep.Table().Get(id)
	if row == nil {
		return sync.Message{}, fmt.Errorf("%w: %s", sync.ErrNoSuchRow, id)
	}
	if c.vote(row.Vec) != votedNone {
		return sync.Message{}, ErrAlreadyVoted
	}
	if !c.voteCapOK(row) {
		return sync.Message{}, ErrVoteCapReached
	}
	m, err := c.rep.Downvote(id)
	if err != nil {
		return sync.Message{}, err
	}
	c.stamp(&m)
	c.recordVote(m.Vec, votedDown)
	return m, nil
}

// UndoVote retracts this worker's earlier vote on the given value-vector
// (§8 extension). The vector form is used because the row may since have
// been replaced.
func (c *Client) UndoVote(v model.Vector) (sync.Message, error) {
	if c.done {
		return sync.Message{}, ErrDone
	}
	k := v.Hashed()
	kind, _ := c.voted.Get(k)
	var m sync.Message
	var err error
	switch kind {
	case votedUp:
		m, err = c.rep.UndoUpvote(v)
		if err == nil {
			delete(c.upvotedKeys, v.KeyOf(c.cfg.Schema))
		}
	case votedDown:
		m, err = c.rep.UndoDownvote(v)
	default:
		return sync.Message{}, ErrNotVoted
	}
	if err != nil {
		return sync.Message{}, err
	}
	c.stamp(&m)
	c.voted.Delete(k)
	return m, nil
}

// Modify implements the §8 "modify" worker action: overwrite the non-empty
// cell col of row id with a new value. It translates to a downvote of the
// row's current value, an insert of a fresh row, and fills copying every
// other cell plus the new value — exactly the primitive-operation series the
// paper sketches. Returns the messages to send, in order.
func (c *Client) Modify(id model.RowID, col int, raw string) ([]sync.Message, error) {
	if c.done {
		return nil, ErrDone
	}
	if !c.cfg.AllowModify {
		return nil, ErrModifyDisabled
	}
	row := c.rep.Table().Get(id)
	if row == nil {
		return nil, fmt.Errorf("%w: %s", sync.ErrNoSuchRow, id)
	}
	if col < 0 || col >= c.cfg.Schema.NumColumns() {
		return nil, sync.ErrBadColumn
	}
	if !row.Vec[col].Set {
		return nil, ErrCellEmpty
	}
	val, err := c.cfg.Schema.CheckValue(col, raw)
	if err != nil {
		return nil, err
	}
	oldVec := row.Vec

	var out []sync.Message
	// If the worker previously upvoted this value (e.g. the automatic
	// upvote when they completed the row), retract it first so the
	// corrective downvote is permitted.
	if c.vote(oldVec) == votedUp {
		undo, uerr := c.UndoVote(oldVec)
		if uerr != nil {
			return nil, uerr
		}
		out = append(out, undo)
	}
	// Downvote the value being corrected, unless this worker already
	// downvoted it.
	if c.vote(oldVec) == votedNone {
		dv, derr := c.rep.Downvote(id)
		if derr != nil {
			return nil, derr
		}
		c.stamp(&dv)
		c.recordVote(dv.Vec, votedDown)
		out = append(out, dv)
	}
	// Insert a fresh row and fill it with the corrected values.
	ins, err := c.rep.Insert(c.gen.Next())
	if err != nil {
		return nil, err
	}
	c.stamp(&ins)
	out = append(out, ins)
	cur := ins.Row
	for i := range oldVec {
		var v string
		switch {
		case i == col:
			v = val
		case oldVec[i].Set:
			v = oldVec[i].Val
		default:
			continue
		}
		fills, ferr := c.Fill(cur, i, v)
		if ferr != nil {
			return nil, ferr
		}
		out = append(out, fills...)
		cur = fills[0].NewRow
	}
	return out, nil
}

// VotedOn reports whether this worker has an outstanding vote on the value.
//
//lint:hotpath
func (c *Client) VotedOn(v model.Vector) bool { return c.vote(v) != votedNone }

// VoteDirection returns +1 (upvoted), -1 (downvoted), or 0 (no outstanding
// vote) for this worker's vote on the value.
func (c *Client) VoteDirection(v model.Vector) int {
	switch c.vote(v) {
	case votedUp:
		return 1
	case votedDown:
		return -1
	}
	return 0
}

// Rows returns the client's current view of the candidate table. When rng is
// non-nil the order is randomized, mirroring the data-entry interface's
// per-worker row shuffling (§3.4); otherwise rows come sorted by id.
func (c *Client) Rows(rng *rand.Rand) []*model.Row {
	rows := c.rep.Table().Rows()
	if rng != nil {
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	}
	return rows
}

// Recommend suggests an empty cell for this worker to fill (§8's
// recommendation extension). The strategy prefers the most-complete
// non-complete row (fewest empty cells), breaking ties by row id, and
// returns its first empty column. Returns ok=false when the table has no
// empty cells.
func (c *Client) Recommend() (id model.RowID, col int, ok bool) {
	best := -1
	for _, r := range c.rep.Table().Rows() {
		n := r.Vec.CountSet()
		if n == len(r.Vec) {
			continue
		}
		if n > best {
			best = n
			id = r.ID
			for i, cell := range r.Vec {
				if !cell.Set {
					col = i
					break
				}
			}
			ok = true
		}
	}
	return id, col, ok
}
