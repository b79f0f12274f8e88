package metrics

import (
	gosync "sync"
	"time"
)

// Event kinds recorded by the serving stack. Kinds are plain strings so
// components may add their own; these are the ones the server emits.
const (
	EvEvictLag        = "evict-lag"        // client dropped: cursor lagged behind the broadcast log
	EvSendError       = "send-error"       // client dropped: transport send failed
	EvWriteDeadline   = "write-deadline"   // client dropped: send hit the flusher write deadline
	EvReject          = "reject"           // inbound message rejected (connection stays up)
	EvRepairOverrun   = "repair-overrun"   // central-client repair hit its iteration cap
	EvEstimateSkipped = "estimate-skipped" // estimate payload could not be encoded, so not broadcast
)

// Event is one operational event: what happened, to whom, and when (At is
// monotonic nanoseconds since the recorder started, immune to wall-clock
// steps; WallNano is the wall-clock stamp for humans).
type Event struct {
	Seq      uint64 `json:"seq"`
	At       int64  `json:"at_ns"`
	WallNano int64  `json:"wall_ns"`
	Kind     string `json:"kind"`
	Actor    string `json:"actor,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// Recorder is a fixed-size flight recorder: a ring of the last N operational
// events. It is the durable, structured replacement for fire-and-forget logf
// strings — the ring is the source of truth (dumpable over the debug
// endpoint), and an optional logf sink still receives one line per event.
// Record is a short critical section plus an out-of-lock sink call; it is
// intended for cold paths (drops, evictions, overruns), never for per-message
// work, and must not be called while holding a serving-plane lock (the sink
// may block).
type Recorder struct {
	mu    gosync.Mutex
	start time.Time
	seq   uint64
	ring  []Event
	logf  func(format string, args ...any)
}

// NewRecorder returns a recorder keeping the last n events (minimum 1).
func NewRecorder(n int) *Recorder {
	if n < 1 {
		n = 1
	}
	return &Recorder{start: time.Now(), ring: make([]Event, 0, n)}
}

// defaultRecorderSize bounds the process-wide recorder. 1024 events cover
// hours of normal operation; under an event storm the ring holds the most
// recent window, which is the window an operator debugging the storm wants.
const defaultRecorderSize = 1024

var (
	defaultRecorder     *Recorder
	defaultRecorderOnce gosync.Once
)

// DefaultRecorder returns the process-wide flight recorder.
func DefaultRecorder() *Recorder {
	defaultRecorderOnce.Do(func() { defaultRecorder = NewRecorder(defaultRecorderSize) })
	return defaultRecorder
}

// SetLogf installs (or replaces) the log sink invoked once per recorded
// event, outside the recorder's lock. nil removes the sink.
func (r *Recorder) SetLogf(fn func(format string, args ...any)) {
	r.mu.Lock()
	r.logf = fn
	r.mu.Unlock()
}

// Record appends one event to the ring, evicting the oldest when full, and
// forwards it to the log sink.
func (r *Recorder) Record(kind, actor, detail string) {
	now := time.Now()
	r.mu.Lock()
	r.seq++
	ev := Event{
		Seq:      r.seq,
		At:       int64(now.Sub(r.start)),
		WallNano: now.UnixNano(),
		Kind:     kind,
		Actor:    actor,
		Detail:   detail,
	}
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, ev)
	} else {
		r.ring[(r.seq-1)%uint64(cap(r.ring))] = ev
	}
	logf := r.logf
	r.mu.Unlock()
	if logf != nil {
		logf("crowdfill: event %s actor=%s %s", kind, actor, detail)
	}
}

// Events returns the recorded events, oldest first. The slice is the
// caller's.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.ring))
	if len(r.ring) < cap(r.ring) {
		return append(out, r.ring...)
	}
	// Full ring: the oldest event sits just past the newest write position.
	head := int(r.seq % uint64(cap(r.ring)))
	out = append(out, r.ring[head:]...)
	out = append(out, r.ring[:head]...)
	return out
}

// Total returns how many events have ever been recorded (≥ len(Events())).
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}
