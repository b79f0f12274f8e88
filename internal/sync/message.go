// Package sync implements CrowdFill's concurrency model (paper §2.4): the
// wire messages generated by primitive operations, the upvote/downvote
// histories UH and DH, and the replica that both the server's master copy and
// every client copy of the candidate table run. Applying a locally-generated
// operation is, by construction, identical to processing its corresponding
// message, which is what makes the convergence theorem hold.
package sync

import (
	"fmt"
	gosync "sync"

	"crowdfill/internal/model"
)

// MsgType enumerates the message kinds exchanged between clients and server.
type MsgType int

const (
	// MsgInsert inserts a new empty row (issued only by the system's
	// central client, never by workers).
	MsgInsert MsgType = iota + 1
	// MsgReplace is generated by a fill operation: delete row Row (if
	// present), insert row NewRow with value Vec.
	MsgReplace
	// MsgUpvote increments the upvote count of every row whose value
	// equals Vec, and UH[Vec].
	MsgUpvote
	// MsgDownvote increments the downvote count of every row whose value
	// is a superset of Vec, and DH[Vec].
	MsgDownvote
	// MsgSnapshot carries the full replica state to a newly-joined client.
	MsgSnapshot
	// MsgDone tells clients the server has determined enough data has been
	// collected.
	MsgDone
	// MsgEstimate carries current per-action compensation estimates
	// (shown in the data-entry interface's column headers, Figure 1).
	MsgEstimate
	// MsgUnupvote and MsgUndownvote implement the paper's §8 "undo votes"
	// extension: they decrement the counts an upvote/downvote incremented.
	// Decrements commute with increments on both row counts and the vote
	// histories, so the convergence theorem is preserved.
	MsgUnupvote
	MsgUndownvote
)

// String returns the message-kind name.
func (t MsgType) String() string {
	switch t {
	case MsgInsert:
		return "insert"
	case MsgReplace:
		return "replace"
	case MsgUpvote:
		return "upvote"
	case MsgDownvote:
		return "downvote"
	case MsgSnapshot:
		return "snapshot"
	case MsgDone:
		return "done"
	case MsgEstimate:
		return "estimate"
	case MsgUnupvote:
		return "unupvote"
	case MsgUndownvote:
		return "undownvote"
	}
	return fmt.Sprintf("msgtype(%d)", int(t))
}

// IsOp reports whether t is a table operation: a message that changes a
// replica (insert, replace and the four vote kinds). These are exactly the
// types the server core accepts from clients, records in the bookkeeping
// trace (§3.3) and replay re-applies; snapshot, done and estimate messages
// travel only from server to client and change no replica.
func (t MsgType) IsOp() bool {
	switch t {
	case MsgInsert, MsgReplace, MsgUpvote, MsgDownvote, MsgUnupvote, MsgUndownvote:
		return true
	}
	return false
}

// Message is the unit of propagation between clients and server. Exactly the
// fields relevant to Type are populated. The bookkeeping fields (Origin,
// Worker, Seq, TS, Auto, Col, Val) exist for the trace the back-end server
// stores for compensation (paper §5.2): they do not affect replica state.
type Message struct {
	Type MsgType `json:"type"`

	// Row is the subject row id: the new row for insert, the replaced row
	// for replace.
	Row model.RowID `json:"row,omitempty"`
	// NewRow is the id of the row a replace constructs.
	NewRow model.RowID `json:"newRow,omitempty"`
	// Vec is the new row value for replace, or the voted value-vector for
	// upvote/downvote.
	Vec model.Vector `json:"vec,omitempty"`

	// Origin is the client id that generated the message.
	Origin string `json:"origin,omitempty"`
	// Worker is the worker identity behind the client (for compensation).
	Worker string `json:"worker,omitempty"`
	// Seq is the per-origin sequence number.
	Seq int64 `json:"seq,omitempty"`
	// TS is the server-assigned unique timestamp (virtual or real
	// nanoseconds); zero until the server stamps the message.
	TS int64 `json:"ts,omitempty"`
	// Auto marks an upvote automatically issued by the fill that completed
	// a row (paper §3.4); auto upvotes earn no separate compensation.
	Auto bool `json:"auto,omitempty"`
	// Col and Val record, for replace messages, which column the
	// generating fill operation filled and with what value.
	Col int    `json:"col,omitempty"`
	Val string `json:"val,omitempty"`

	// Snapshot carries the replica state for MsgSnapshot.
	Snapshot *Snapshot `json:"snapshot,omitempty"`
	// Estimates carries MsgEstimate payloads.
	Estimates *Estimates `json:"estimates,omitempty"`
}

// Snapshot serializes a replica for late-joining clients.
type Snapshot struct {
	Rows []model.Row    `json:"rows"`
	UH   map[string]int `json:"uh"` // encoded vector -> count
	DH   map[string]int `json:"dh"`
	// UHVecs/DHVecs carry the decoded vectors for each history key, so the
	// receiver can rebuild subset indexes.
	UHVecs map[string]model.Vector `json:"uhVecs"`
	DHVecs map[string]model.Vector `json:"dhVecs"`
}

// Estimates is the per-action estimated-compensation payload broadcast to
// clients during collection (paper §5.3).
type Estimates struct {
	// PerColumn[i] is the estimated pay for filling a cell of column i.
	PerColumn []float64 `json:"perColumn"`
	// Upvote and Downvote are the estimated pay per vote.
	Upvote   float64 `json:"upvote"`
	Downvote float64 `json:"downvote"`
}

// EncodeMessage renders m as a single JSON line (without trailing newline).
// It routes through the hand-rolled append codec (codec.go), which produces
// bytes identical to json.Marshal; the only Marshal failure mode for Message
// is a non-finite float in Estimates, checked up front.
//
// The result is the one allocation: the message is appended into a pooled
// scratch buffer and copied out at its exact length.
func EncodeMessage(m Message) ([]byte, error) {
	if err := ValidateEncodable(m); err != nil {
		return nil, err
	}
	sp := encodeScratch.Get().(*[]byte)
	buf := AppendMessage((*sp)[:0], m)
	out := make([]byte, len(buf))
	copy(out, buf)
	if cap(buf) > maxPooledEncode {
		buf = nil // a join snapshot must not stay pinned in the pool
	}
	*sp = buf
	encodeScratch.Put(sp)
	return out, nil
}

// maxPooledEncode caps the scratch buffers EncodeMessage returns to its pool.
const maxPooledEncode = 64 << 10

var encodeScratch = gosync.Pool{New: func() any { return new([]byte) }}
