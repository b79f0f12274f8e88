package wsock

import (
	"runtime"
	"sync/atomic"

	"crowdfill/internal/metrics"
)

// Stats is the wire-level instrumentation for a set of connections: frame
// and byte counts each way, lease reads, read-buffer growth (the pooled
// buffers' miss counter — hit rate is frames minus grows over frames), and
// mask-pool refills. Frame and byte counters are sharded so hundreds of
// concurrent reader/flusher goroutines never contend on one cache line; each
// connection gets a stable shard index at SetStats time.
//
// All count paths are nil-receiver no-ops and transitively allocation-free,
// so the prepared-frame hot paths may call them unconditionally.
type Stats struct {
	FramesIn    *metrics.ShardedCounter
	FramesOut   *metrics.ShardedCounter
	BytesIn     *metrics.ShardedCounter
	BytesOut    *metrics.ShardedCounter
	LeaseReads  *metrics.ShardedCounter
	BufGrows    *metrics.Counter
	MaskRefills *metrics.Counter
}

// NewStats registers the wire metrics in r (get-or-create, so multiple
// servers in one process share the series) and returns the stats handle.
func NewStats(r *metrics.Registry) *Stats {
	shards := runtime.GOMAXPROCS(0)
	return &Stats{
		FramesIn:    r.ShardedCounter("crowdfill_ws_frames_in_total", "WebSocket frames read", shards),
		FramesOut:   r.ShardedCounter("crowdfill_ws_frames_out_total", "WebSocket frames written", shards),
		BytesIn:     r.ShardedCounter("crowdfill_ws_bytes_in_total", "WebSocket bytes read (frames incl. headers)", shards),
		BytesOut:    r.ShardedCounter("crowdfill_ws_bytes_out_total", "WebSocket bytes written (frames incl. headers)", shards),
		LeaseReads:  r.ShardedCounter("crowdfill_ws_lease_reads_total", "zero-copy text-message lease reads", shards),
		BufGrows:    r.Counter("crowdfill_ws_buf_grows_total", "read-buffer growth events (pooled-buffer misses)"),
		MaskRefills: r.Counter("crowdfill_ws_mask_refills_total", "client mask-pool refills (one syscall per refill)"),
	}
}

// statsShardSeq hands out one shard index per instrumented connection.
var statsShardSeq atomic.Uint32

// SetStats attaches wire instrumentation to the connection and assigns it a
// stable shard index. Call once, before the connection carries traffic; nil
// detaches.
func (c *Conn) SetStats(s *Stats) {
	c.stats = s
	c.statShard = statsShardSeq.Add(1)
}

// countRead records one inbound frame of the given total wire size.
func (c *Conn) countRead(wireBytes int) {
	s := c.stats
	if s == nil {
		return
	}
	s.FramesIn.Inc(c.statShard)
	s.BytesIn.Add(c.statShard, uint64(wireBytes))
}

// countWrite records frames outbound frames totalling wireBytes on the wire.
func (c *Conn) countWrite(frames, wireBytes int) {
	s := c.stats
	if s == nil {
		return
	}
	s.FramesOut.Add(c.statShard, uint64(frames))
	s.BytesOut.Add(c.statShard, uint64(wireBytes))
}

// countLease records one lease read.
func (c *Conn) countLease() {
	if s := c.stats; s != nil {
		s.LeaseReads.Inc(c.statShard)
	}
}

// countBufGrow records a read-buffer growth (pooled-buffer miss).
func (c *Conn) countBufGrow() {
	if s := c.stats; s != nil {
		s.BufGrows.Inc()
	}
}

// countMaskRefill records a mask-pool refill.
func (c *Conn) countMaskRefill() {
	if s := c.stats; s != nil {
		s.MaskRefills.Inc()
	}
}
