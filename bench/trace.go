package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	gosync "sync"
	"sync/atomic"

	"crowdfill/internal/client"
	"crowdfill/internal/model"
	"crowdfill/internal/netpoll"
	"crowdfill/internal/sync"
	"crowdfill/internal/transport"
	"crowdfill/internal/wsock"
)

// Stage names: the layer boundaries an op crosses on its way to the probe
// peer, in path order. Their p50s are the ledger's rows.
const (
	stageBuild     = "client.build"     // worker action → message (inside Runner.Do)
	stageSend      = "transport.send"   // encode + masked frame write
	stageResidence = "server.residence" // Send returned → probe's readiness callback entered
	stageRecv      = "transport.recv"   // socket read + frame reassembly + decode at the probe
	stageApply     = "client.apply"     // Client.HandleServerBatch at the probe
	stageOp        = "op"               // root: scheduled → last peer applied
)

var stageOrder = []string{stageBuild, stageSend, stageResidence, stageRecv, stageApply}

// maxFileSpans bounds the trace file; stage samples are always complete.
const maxFileSpans = 60000

// opTrace holds the stamps of one op. Each field is written by exactly one
// goroutine (the sender, the probe's poll worker, or the pacing loop).
type opTrace struct {
	sender               string
	seq                  int64
	sched                int64 // root start: scheduled send time
	buildStart, buildEnd int64
	sendStart, sendEnd   int64
	recvStart, recvEnd   int64 // probe dispatch entered / batch decoded
	applyEnd             int64
	done                 int64 // root end: last peer applied
}

// traceSeg is the stamp table of one segment of ops (a collection, an
// open-loop segment, ...). lookup maps a message's (worker, seq) to its
// slot, or -1; seen counts the ops whose probe stamps are complete.
type traceSeg struct {
	ops    []opTrace
	lookup func(worker string, seq int64) int
	seen   atomic.Int64
}

// tracer collects spans from the benchmark's own files: around the calls
// into each layer on the sending side, and on one harness-owned probe peer
// on the receiving side. A nil *tracer disables every hook.
type tracer struct {
	seg atomic.Pointer[traceSeg]

	mu      gosync.Mutex
	samples map[string][]int64
	spans   []span
	dropped int // spans not kept for the file

	// sent records every op message in send order (the core-replay input
	// of the fan-out workloads) while recordSent is set.
	recordSent atomic.Bool
	sent       []sentMsg
}

type sentMsg struct {
	worker string
	msg    sync.Message
}

func newTracer() *tracer { return &tracer{samples: make(map[string][]int64)} }

// begin installs a fresh stamp table for a segment of n ops.
func (t *tracer) begin(n int, lookup func(worker string, seq int64) int) *traceSeg {
	seg := &traceSeg{ops: make([]opTrace, n), lookup: lookup}
	t.seg.Store(seg)
	return seg
}

// end waits until the probe has stamped want ops of the segment (it may
// trail the peers the pacing loop waits for), then turns every complete
// stamp set into spans and stage samples.
func (t *tracer) end(seg *traceSeg, want int) error {
	err := await(fmt.Sprintf("the probe to see %d ops", want), func() bool { return seg.seen.Load() >= int64(want) })
	t.seg.Store(nil)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	add := func(name string, parent int, o *opTrace, start, end int64) int {
		t.samples[name] = append(t.samples[name], end-start)
		if len(t.spans) >= maxFileSpans {
			t.dropped++
			return -1
		}
		t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Sender: o.sender, Seq: o.seq})
		return len(t.spans) - 1
	}
	for i := range seg.ops {
		o := &seg.ops[i]
		if o.done == 0 || o.recvStart == 0 || o.sendEnd == 0 {
			continue // never sent, or the probe joined after it
		}
		root := add(stageOp, -1, o, o.sched, o.done)
		add(stageBuild, root, o, o.buildStart, o.buildEnd)
		add(stageSend, root, o, o.sendStart, o.sendEnd)
		add(stageResidence, root, o, o.sendEnd, o.recvStart)
		add(stageRecv, root, o, o.recvStart, o.recvEnd)
		add(stageApply, root, o, o.recvEnd, o.applyEnd)
	}
	return nil
}

// stageP50 returns the median of a stage's samples in nanoseconds.
func (t *tracer) stageP50(name string) float64 {
	return summarize(t.samples[name], 0.5).P50
}

// write dumps the kept spans with their self times to
// <dir>/<workload>.trace.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	self := selfTimes(t.spans)
	type fileSpan struct {
		span
		Self int64 `json:"self_ns"`
	}
	out := struct {
		Workload string     `json:"workload"`
		Dropped  int        `json:"spans_dropped"`
		Spans    []fileSpan `json:"spans"`
	}{Workload: workload, Dropped: t.dropped, Spans: make([]fileSpan, len(t.spans))}
	for i, s := range t.spans {
		out.Spans[i] = fileSpan{span: s, Self: self[i]}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	return path, os.WriteFile(path, data, 0o644)
}

// tracedConn times Send on a sender's link: the runner calls it right
// after the build closure returns, so the stamps bracket exactly encode +
// masked frame write.
type tracedConn struct {
	transport.Conn
	t *tracer
}

func (c *tracedConn) Send(m sync.Message) error {
	start := nowNs()
	err := c.Conn.Send(m)
	end := nowNs()
	if seg := c.t.seg.Load(); seg != nil {
		if i := seg.lookup(m.Worker, m.Seq); i >= 0 {
			seg.ops[i].sendStart, seg.ops[i].sendEnd = start, end
		}
	}
	if c.t.recordSent.Load() {
		c.t.mu.Lock()
		c.t.sent = append(c.t.sent, sentMsg{worker: m.Worker, msg: m})
		c.t.mu.Unlock()
	}
	return err
}

// record switches the recording of sent op messages (nil-safe).
func (t *tracer) record(on bool) {
	if t != nil {
		t.recordSent.Store(on)
	}
}

// wrapSender is the stack.join hook for traced senders (nil when off).
func (t *tracer) wrapSender() func(transport.Conn) transport.Conn {
	if t == nil {
		return nil
	}
	return func(c transport.Conn) transport.Conn { return &tracedConn{Conn: c, t: t} }
}

// probe is the harness-owned receiving peer of the traced pass: a full
// client whose link is drained by its own single-worker poller, so the
// moment the readiness callback is entered, the moment the batch is
// decoded and the moment it is applied are all observable from outside.
type probe struct {
	t      *tracer
	cl     *client.Client
	conn   transport.PollConn
	poller *netpoll.Poller
	desc   *netpoll.Desc
	batch  []sync.Message

	joined           atomic.Bool // join snapshot applied
	dispatches, msgs int
	// stream keeps everything received while keep is set: the broadcast
	// stream the replay measurements run the receive-side layers on.
	keep   bool
	stream []sync.Message
	closed chan struct{}
}

// attachProbe joins the probe peer to the current collection.
func (st *stack) attachProbe(t *tracer, schema *model.Schema, keep bool) (*probe, error) {
	ws, err := wsock.Dial(st.url("probe"))
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	cl, err := client.New(client.Config{ID: "probe", Worker: "probe", Schema: schema})
	if err != nil {
		ws.Close()
		return nil, err
	}
	pc, ok := transport.WrapWS(ws).(transport.PollConn)
	if !ok {
		ws.Close()
		return nil, fmt.Errorf("probe: transport has no poll mode")
	}
	p := &probe{t: t, cl: cl, conn: pc, keep: keep, closed: make(chan struct{})}
	rc, err := pc.StartPoll(p.onMsg)
	if err != nil {
		ws.Close()
		return nil, fmt.Errorf("probe: client-role poll mode unsupported: %w", err)
	}
	if p.poller, err = netpoll.New(1, nil); err != nil {
		ws.Close()
		return nil, fmt.Errorf("probe: %w", err)
	}
	if p.desc, err = p.poller.Register(rc, p.readable); err != nil {
		p.poller.Close()
		ws.Close()
		return nil, fmt.Errorf("probe: %w", err)
	}
	pc.OnClose(func() { close(p.closed) })
	p.poller.Kick(p.desc)
	// The server registers a client after the handshake returns: ops sent
	// before the join snapshot arrives would bypass the probe.
	if err := await("the probe's join snapshot", p.joined.Load); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

func (p *probe) onMsg(m sync.Message) error {
	p.batch = append(p.batch, m)
	return nil
}

// readable is the probe's readiness handler (one poll worker, so no lock).
// A broken link just closes: the segment's end then misses the probe's
// stamps and fails.
func (p *probe) readable(scratch []byte) {
	entered := nowNs()
	p.batch = p.batch[:0]
	more, err := p.conn.PollRecv(scratch)
	decoded := nowNs()
	if len(p.batch) > 0 {
		if aerr := p.cl.HandleServerBatch(p.batch); aerr != nil && err == nil {
			err = aerr
		}
		applied := nowNs()
		if p.cl.Replica().Epoch() > 0 {
			p.joined.Store(true)
		}
		p.dispatches++
		p.msgs += len(p.batch)
		if seg := p.t.seg.Load(); seg != nil {
			for i := range p.batch {
				m := &p.batch[i]
				if m.Worker == "" { // Central Client, estimate, done
					continue
				}
				if k := seg.lookup(m.Worker, m.Seq); k >= 0 && seg.ops[k].recvStart == 0 {
					o := &seg.ops[k]
					o.recvStart, o.recvEnd, o.applyEnd = entered, decoded, applied
					seg.seen.Add(1)
				}
			}
		}
		if p.keep {
			p.stream = append(p.stream, p.batch...)
		}
	}
	switch {
	case err != nil:
		p.conn.Close()
	case more:
		p.desc.Requeue()
	default:
		if p.desc.Rearm() != nil {
			p.conn.Close()
		}
	}
}

// close detaches the probe and stops its poller; the probe's fields are
// safe to read afterwards.
func (p *probe) close() {
	p.conn.Close()
	<-p.closed
	p.poller.Deregister(p.desc)
	p.poller.Close()
}
