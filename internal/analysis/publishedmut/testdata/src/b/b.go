// Package b exercises the publishedmut analyzer: writes to broadcast-plane
// values before and after they escape to the publish side, and writes into
// the cells of the vectors rows and messages share.
package b

import (
	"crowdfill/internal/model"
	"crowdfill/internal/server"
	"crowdfill/internal/sync"
)

// stampThenPublish is the sanctioned pattern: all writes happen before the
// message escapes.
func stampThenPublish(core *server.Core, m sync.Message, ts int64) {
	m.Origin = "client-1"
	m.TS = ts
	_, _ = core.HandleBroadcast("client-1", m)
}

// mutateAfterHandle writes a field after the message escaped into the
// broadcast plane.
func mutateAfterHandle(core *server.Core, m sync.Message, ts int64) {
	_, _ = core.HandleBroadcast("client-1", m)
	m.TS = ts // want `write to field of m after it escaped`
}

// mutateVecAfterPrepare mutates the message's shared slice after wrapping it
// in a Prepared: every recipient aliases Vec, and every row and message that
// holds the vector sees the write.
func mutateVecAfterPrepare(m sync.Message) *sync.Prepared {
	p := sync.NewPrepared(m)
	m.Vec[0].Val = "tampered" // want `write to field of m after it escaped` `write into a cell of m\.Vec`
	return p
}

// mutateVecBeforePrepare precedes the escape, but the vector was shared
// before the message was: a decoded vector is the link cache's, and a vote's
// is its row's.
func mutateVecBeforePrepare(m sync.Message) *sync.Prepared {
	m.Vec[0].Val = "stamped" // want `write into a cell of m\.Vec`
	return sync.NewPrepared(m)
}

// mutateVecAfterApply writes into a vector the replica shares: the row the
// replace built now carries the tampered value.
func mutateVecAfterApply(r *sync.Replica, m sync.Message) error {
	err := r.Apply(m)
	m.Vec[0].Val = "tampered" // want `write into a cell of m\.Vec`
	return err
}

// stampAfterApply is fine: Apply keeps nothing of the message but its
// vector.
func stampAfterApply(r *sync.Replica, m sync.Message) error {
	err := r.Apply(m)
	m.TS = 7
	return err
}

// buildThenApply is fine: the vector is its own until the message holds it.
func buildThenApply(r *sync.Replica, m sync.Message) error {
	v := model.NewVector(2)
	v[0] = model.Cell{Set: true, Val: "a"}
	v[1].Set = true
	m.Vec = v
	return r.Apply(m)
}

// mutateRowVec writes into a row's vector: the value index, the vote
// histories and every message that voted on the value share it.
func mutateRowVec(row *model.Row, v model.Vector) {
	row.Vec[0] = model.Cell{}  // want `write into a cell of row\.Vec`
	(row.Vec)[1].Val = "x"     // want `write into a cell of row\.Vec`
	copy(row.Vec[1:], v)       // want `write into a cell of row\.Vec`
	row.Vec = v.With(0, "new") // rebinding the field writes the row, not the vector
}

// mutateSnapshotRow reaches a row's vector through a snapshot message.
func mutateSnapshotRow(m sync.Message) {
	m.Snapshot.Rows[0].Vec[1].Set = false // want `write into a cell of m\.Snapshot\.Rows\[0\]\.Vec`
}

// Publish stands in for the broadcast log's publish side.
func Publish(bs ...server.Broadcast) {}

// buildThenPublish is fine: Broadcast fields are set before publishing.
func buildThenPublish(p *sync.Prepared) {
	b := server.Broadcast{Prepared: p}
	b.Exclude = "client-2"
	Publish(b)
}

// mutateAfterPublish rebinds a Broadcast's fields after it was published.
func mutateAfterPublish(b server.Broadcast) {
	Publish(b)
	b.Exclude = "client-2" // want `write to field of b after it escaped`
}

// outboundEscape covers the Outbound literal sink.
func outboundEscape(m sync.Message) []server.Outbound {
	out := []server.Outbound{{To: "c", Msg: m}}
	m.Seq++ // want `write to field of m after it escaped`
	return out
}

// allowedMutation uses the escape hatch with justification.
func allowedMutation(core *server.Core, m sync.Message, ts int64) {
	_, _ = core.HandleBroadcast("client-1", m)
	m.TS = ts //lint:allow publishedmut test fixture rewinds its own unshared copy
}

// freshCopyIsFine: a different variable is not the escaped one.
func freshCopyIsFine(core *server.Core, m sync.Message, ts int64) {
	_, _ = core.HandleBroadcast("client-1", m)
	other := sync.Message{Type: sync.MsgUpvote}
	other.TS = ts
	_ = other
}
