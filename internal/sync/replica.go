package sync

import (
	"errors"
	"fmt"

	"crowdfill/internal/model"
)

// Replica is one copy of the candidate table plus its vote histories — the
// server's master copy and every client copy are Replicas. Local primitive
// operations (paper §2.2) are performed through the Insert/Fill/Upvote/
// Downvote methods, which mutate the replica and return the message to send;
// messages received from elsewhere are applied with Apply. Both paths run
// the identical state transition, which the convergence proof relies on.
type Replica struct {
	schema *model.Schema
	table  *model.Candidate
	uh     *VoteHist
	dh     *VoteHist
	obs    TableObserver
	epoch  uint64
}

// TableObserver receives fine-grained change notifications as messages are
// applied to a replica, so derived structures (e.g. model.TableIndex) can be
// maintained incrementally instead of rescanning the table per message.
// Callbacks fire after the table mutation they describe.
type TableObserver interface {
	// RowAdded fires after a row enters the table.
	RowAdded(*model.Row)
	// RowRemoved fires after a row leaves the table.
	RowRemoved(*model.Row)
	// RowVotesChanged fires after a row's Up/Down counts change.
	RowVotesChanged(*model.Row)
	// TableReset fires when the replica's entire table is replaced (snapshot
	// load); the argument is the new candidate table.
	TableReset(*model.Candidate)
}

// NewReplica returns an empty replica over schema s.
func NewReplica(s *model.Schema) *Replica {
	return &Replica{
		schema: s,
		table:  model.NewCandidate(s),
		uh:     NewVoteHist(),
		dh:     NewVoteHist(),
	}
}

// Schema returns the replica's schema.
func (r *Replica) Schema() *model.Schema { return r.schema }

// Table returns the replica's candidate table. Callers must treat it as
// read-only; all mutation goes through operations and Apply.
func (r *Replica) Table() *model.Candidate { return r.table }

// UH returns the upvote history (read-only for callers).
func (r *Replica) UH() *VoteHist { return r.uh }

// DH returns the downvote history (read-only for callers).
func (r *Replica) DH() *VoteHist { return r.dh }

// SetObserver attaches a change observer (nil detaches). The observer is
// immediately synchronized with the current table via TableReset.
func (r *Replica) SetObserver(o TableObserver) {
	r.obs = o
	if o != nil {
		o.TableReset(r.table)
	}
}

// Errors returned by local operations whose preconditions fail.
var (
	ErrNoSuchRow     = errors.New("sync: no such row")
	ErrRowExists     = errors.New("sync: row id already exists")
	ErrCellFilled    = errors.New("sync: cell already filled")
	ErrNotComplete   = errors.New("sync: row is not complete")
	ErrNotPartial    = errors.New("sync: row has no values")
	ErrBadColumn     = errors.New("sync: column index out of range")
	ErrWidthMismatch = errors.New("sync: vector width does not match schema")
)

// Insert performs the insert(r) primitive: a new empty row with the given id
// enters the table with zero vote counts. Returns the message to propagate.
func (r *Replica) Insert(id model.RowID) (Message, error) {
	if r.table.Has(id) {
		return Message{}, fmt.Errorf("%w: %s", ErrRowExists, id)
	}
	m := Message{Type: MsgInsert, Row: id}
	r.mustApply(m)
	return m, nil
}

// Fill performs fill(r, col, val): the row is deleted and a newly-constructed
// row with id newID and the column filled in takes its place (paper §2.4 —
// minting a new row id per fill is the key to seamless concurrency). val must
// already be canonical for the schema (clients validate first). Returns the
// replace message to propagate.
func (r *Replica) Fill(id model.RowID, col int, val string, newID model.RowID) (Message, error) {
	row := r.table.Get(id)
	if row == nil {
		return Message{}, fmt.Errorf("%w: %s", ErrNoSuchRow, id)
	}
	if col < 0 || col >= r.schema.NumColumns() {
		return Message{}, fmt.Errorf("%w: %d", ErrBadColumn, col)
	}
	if row.Vec[col].Set {
		return Message{}, fmt.Errorf("%w: row %s column %d", ErrCellFilled, id, col)
	}
	if r.table.Has(newID) {
		return Message{}, fmt.Errorf("%w: %s", ErrRowExists, newID)
	}
	m := Message{
		Type:   MsgReplace,
		Row:    id,
		NewRow: newID,
		Vec:    row.Vec.With(col, val),
		Col:    col,
		Val:    val,
	}
	r.mustApply(m)
	return m, nil
}

// Upvote performs upvote(r) on a complete row present in this replica.
// Returns the value-carrying upvote message to propagate.
func (r *Replica) Upvote(id model.RowID) (Message, error) {
	row := r.table.Get(id)
	if row == nil {
		return Message{}, fmt.Errorf("%w: %s", ErrNoSuchRow, id)
	}
	if !row.Vec.IsComplete() {
		return Message{}, fmt.Errorf("%w: %s", ErrNotComplete, id)
	}
	m := Message{Type: MsgUpvote, Vec: row.Vec}
	r.mustApply(m)
	return m, nil
}

// Downvote performs downvote(r) on a partial row present in this replica.
// Returns the value-carrying downvote message to propagate.
func (r *Replica) Downvote(id model.RowID) (Message, error) {
	row := r.table.Get(id)
	if row == nil {
		return Message{}, fmt.Errorf("%w: %s", ErrNoSuchRow, id)
	}
	if !row.Vec.IsPartial() {
		return Message{}, fmt.Errorf("%w: %s", ErrNotPartial, id)
	}
	m := Message{Type: MsgDownvote, Vec: row.Vec}
	r.mustApply(m)
	return m, nil
}

// UndoUpvote retracts one previously-cast upvote for value v (§8 extension).
// The caller (the worker client) is responsible for ensuring the worker
// actually cast a matching vote.
func (r *Replica) UndoUpvote(v model.Vector) (Message, error) {
	if len(v) != r.schema.NumColumns() {
		return Message{}, ErrWidthMismatch
	}
	m := Message{Type: MsgUnupvote, Vec: v}
	r.mustApply(m)
	return m, nil
}

// UndoDownvote retracts one previously-cast downvote for value v (§8
// extension).
func (r *Replica) UndoDownvote(v model.Vector) (Message, error) {
	if len(v) != r.schema.NumColumns() {
		return Message{}, ErrWidthMismatch
	}
	m := Message{Type: MsgUndownvote, Vec: v}
	r.mustApply(m)
	return m, nil
}

// Epoch returns a counter that increases whenever the replica's state
// changes (any applied mutating message or snapshot load). Cheap change
// detection for snapshot caching: equal epochs imply identical state.
func (r *Replica) Epoch() uint64 { return r.epoch }

// Apply processes a message received from the server or a client (paper
// §2.4 "Processing received messages"). Snapshot, done and estimate messages
// mutate nothing here.
//
// Apply shares m.Vec: the row a replace builds, and the history entry a
// vector's first vote creates, store the slice as received instead of a
// copy. A model.Vector is immutable once built — Fill builds its own with
// With, a link's decode cache hands one vector to every message that
// repeats it, and a published message is shared read-only by every
// recipient — so nobody writes m.Vec, before Apply or after
// (TestLoadSnapshotSharesVectors and TestConcurrentFillSameRow fail when
// Fill writes a cell of the row's own vector).
func (r *Replica) Apply(m Message) error {
	if m.Type.IsOp() {
		// Votes on vectors no row carries still mutate the histories, so any
		// table operation dirties the state.
		r.epoch++
	}
	switch m.Type {
	case MsgInsert:
		if m.Row == "" {
			return errors.New("sync: insert without row id")
		}
		if r.table.Has(m.Row) {
			return fmt.Errorf("%w: %s", ErrRowExists, m.Row)
		}
		row := &model.Row{ID: m.Row, Vec: model.NewVector(r.schema.NumColumns())}
		r.table.Put(row)
		if r.obs != nil {
			r.obs.RowAdded(row)
		}
		return nil

	case MsgReplace:
		if len(m.Vec) != r.schema.NumColumns() {
			return ErrWidthMismatch
		}
		if m.NewRow == "" {
			return errors.New("sync: replace without new row id")
		}
		// If the old row is still present, delete it; concurrent fills may
		// already have replaced it elsewhere, which is fine.
		if old := r.table.Get(m.Row); old != nil {
			r.table.Delete(m.Row)
			if r.obs != nil {
				r.obs.RowRemoved(old)
			}
		}
		q := &model.Row{ID: m.NewRow, Vec: m.Vec} // shared; see Apply's contract
		if q.Vec.IsComplete() {
			q.Up = r.uh.Get(q.Vec)
		}
		q.Down = r.dh.SubsetSum(q.Vec)
		r.table.Put(q)
		if r.obs != nil {
			r.obs.RowAdded(q)
		}
		return nil

	case MsgUpvote:
		if len(m.Vec) != r.schema.NumColumns() {
			return ErrWidthMismatch
		}
		r.table.EachWithValue(m.Vec, func(row *model.Row) {
			row.Up++
			if r.obs != nil {
				r.obs.RowVotesChanged(row)
			}
		})
		r.uh.Inc(m.Vec)
		return nil

	case MsgDownvote:
		if len(m.Vec) != r.schema.NumColumns() {
			return ErrWidthMismatch
		}
		r.table.Each(func(row *model.Row) {
			if row.Vec.Superset(m.Vec) {
				row.Down++
				if r.obs != nil {
					r.obs.RowVotesChanged(row)
				}
			}
		})
		r.dh.Inc(m.Vec)
		return nil

	case MsgUnupvote:
		if len(m.Vec) != r.schema.NumColumns() {
			return ErrWidthMismatch
		}
		r.table.EachWithValue(m.Vec, func(row *model.Row) {
			row.Up--
			if r.obs != nil {
				r.obs.RowVotesChanged(row)
			}
		})
		r.uh.Dec(m.Vec)
		return nil

	case MsgUndownvote:
		if len(m.Vec) != r.schema.NumColumns() {
			return ErrWidthMismatch
		}
		r.table.Each(func(row *model.Row) {
			if row.Vec.Superset(m.Vec) {
				row.Down--
				if r.obs != nil {
					r.obs.RowVotesChanged(row)
				}
			}
		})
		r.dh.Dec(m.Vec)
		return nil

	case MsgSnapshot:
		if m.Snapshot == nil {
			return errors.New("sync: snapshot message without payload")
		}
		return r.LoadSnapshot(m.Snapshot)

	case MsgDone, MsgEstimate:
		return nil
	}
	return fmt.Errorf("sync: unknown message type %v", m.Type)
}

// mustApply applies a locally-generated message whose preconditions were just
// checked; failure indicates a bug, not bad input.
func (r *Replica) mustApply(m Message) {
	if err := r.Apply(m); err != nil {
		panic(fmt.Sprintf("sync: applying locally-generated %s message: %v", m.Type, err))
	}
}

// TakeSnapshot serializes the replica for a late-joining client. The
// snapshot copies each row, whose vote counts keep changing, and shares its
// vector, which never does.
func (r *Replica) TakeSnapshot() *Snapshot {
	s := &Snapshot{}
	for _, row := range r.table.Rows() {
		s.Rows = append(s.Rows, *row)
	}
	s.UH, s.UHVecs = r.uh.export()
	s.DH, s.DHVecs = r.dh.export()
	return s
}

// LoadSnapshot replaces the replica's entire state with the snapshot. It
// copies the rows and shares their vectors, so s stays as it was: one
// snapshot may serve every joiner. A vote history whose key lacks a vector,
// or carries one that does not encode to it, is an error, and the replica
// is left as it was.
func (r *Replica) LoadSnapshot(s *Snapshot) error {
	uh, err := importHist(s.UH, s.UHVecs)
	if err != nil {
		return fmt.Errorf("sync: snapshot uh: %w", err)
	}
	dh, err := importHist(s.DH, s.DHVecs)
	if err != nil {
		return fmt.Errorf("sync: snapshot dh: %w", err)
	}
	r.epoch++
	r.table = model.NewCandidate(r.schema)
	for i := range s.Rows {
		r.table.Put(s.Rows[i].Clone())
	}
	r.uh.m, r.dh.m = uh, dh
	if r.obs != nil {
		r.obs.TableReset(r.table)
	}
	return nil
}

// SnapshotText renders the full replica state canonically (rows + both
// histories), used to compare replicas in convergence tests.
func (r *Replica) SnapshotText() string {
	return "rows:\n" + r.table.Snapshot() + "uh:\n" + r.uh.Snapshot() + "dh:\n" + r.dh.Snapshot()
}

// CheckLemma3 verifies the paper's Lemma 3 invariants on every row:
// u_r = UH[r̄] for complete rows (0 otherwise in effect, since UH counts
// whole-row values and only complete rows can be upvoted), and
// d_r = Σ_{w⊆r̄} DH[w]. Returns the first violation found.
func (r *Replica) CheckLemma3() error {
	var err error
	r.table.Each(func(row *model.Row) {
		if err != nil {
			return
		}
		wantUp := 0
		if row.Vec.IsComplete() {
			wantUp = r.uh.Get(row.Vec)
		} else {
			wantUp = r.uh.Get(row.Vec) // partial rows are never upvoted; stays 0
		}
		if row.Up != wantUp {
			err = fmt.Errorf("sync: lemma3 upvote invariant violated on %s: u=%d UH=%d", row.ID, row.Up, wantUp)
			return
		}
		if want := r.dh.SubsetSum(row.Vec); row.Down != want {
			err = fmt.Errorf("sync: lemma3 downvote invariant violated on %s: d=%d Σ=%d", row.ID, row.Down, want)
		}
	})
	return err
}
