package wsock

import (
	"testing"

	"crowdfill/internal/metrics"
)

// TestStatsCountAllocs pins the wire instrumentation every read and write
// path calls: with stats attached, counting a read, a write and a lease
// allocates nothing.
func TestStatsCountAllocs(t *testing.T) {
	c := &Conn{nc: &fakeConn{}}
	st := NewStats(metrics.NewRegistry())
	c.SetStats(st)
	if n := testing.AllocsPerRun(100, func() {
		c.countRead(12)
		c.countWrite(2, 40)
		c.countLease()
	}); n != 0 {
		t.Fatalf("count round: %v allocs/op, want 0", n)
	}
	if st.FramesIn.Value() != 101 || st.BytesOut.Value() != 40*101 || st.LeaseReads.Value() != 101 {
		t.Fatalf("after 101 rounds: frames in %d, bytes out %d, leases %d",
			st.FramesIn.Value(), st.BytesOut.Value(), st.LeaseReads.Value())
	}
}
