package sync_test

import (
	"sort"
	gosync "sync"
	"testing"

	"crowdfill/internal/exp"
	"crowdfill/internal/sync"
)

// replayTrace is one simulated collection of the paper's representative
// configuration — worker trace and Central Client log interleaved in server
// order — simulated once per process.
var replayTrace = gosync.OnceValues(func() ([]sync.Message, error) {
	res, err := exp.Run(exp.RepresentativeConfig(1))
	if err != nil {
		return nil, err
	}
	msgs := append(append([]sync.Message(nil), res.Core.Trace()...), res.Core.CCLog()...)
	sort.SliceStable(msgs, func(i, j int) bool { return msgs[i].TS < msgs[j].TS })
	return msgs, nil
})

// BenchmarkReplicaApply replays that collection into fresh replicas: ns/op
// and allocs/op are per applied message, averaged over the collection's own
// mix of inserts, fills and votes (b.N messages, wrapping onto a fresh
// replica at the end of the trace — use a -benchtime several traces long).
// This is what every recipient of a broadcast pays after decoding it.
func BenchmarkReplicaApply(b *testing.B) {
	msgs, err := replayTrace()
	if err != nil {
		b.Fatal(err)
	}
	schema := exp.RepresentativeConfig(1).Truth.Schema
	rep := sync.NewReplica(schema)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(msgs)
		if k == 0 && i > 0 {
			rep = sync.NewReplica(schema)
		}
		if err := rep.Apply(msgs[k]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(msgs)), "msgs/trace")
}
