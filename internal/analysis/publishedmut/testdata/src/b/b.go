// Package b exercises the publishedmut analyzer: writes to broadcast-plane
// values before and after they escape to the publish side.
package b

import (
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
// in a Prepared: every recipient aliases Vec.
func mutateVecAfterPrepare(m sync.Message) *sync.Prepared {
	p := sync.NewPrepared(m)
	m.Vec[0].Val = "tampered" // want `write to field of m after it escaped`
	return p
}

// mutateBeforePrepare is fine: the write precedes the escape.
func mutateBeforePrepare(m sync.Message) *sync.Prepared {
	m.Vec[0].Val = "stamped"
	return sync.NewPrepared(m)
}

// mutateVecAfterApply writes into a vector the replica adopted: the row the
// replace built now carries the tampered value.
func mutateVecAfterApply(r *sync.Replica, m sync.Message) error {
	err := r.Apply(m)
	m.Vec[0].Val = "tampered" // want `write to field of m after it escaped`
	return err
}

// buildThenApply is fine: the vector is complete before Apply adopts it.
func buildThenApply(r *sync.Replica, m sync.Message) error {
	m.Vec[1].Set = true
	return r.Apply(m)
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
