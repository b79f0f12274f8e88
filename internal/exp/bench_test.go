package exp

import (
	"fmt"
	"testing"
)

// BenchmarkSimRun times one whole simulated collection per iteration: the
// paper's run at card=20, the table200 shape scaled with the cardinality above
// it (truth 2.5 ×, predicate rows a fifth, seed 1). The simulated crowd is
// most of a run, so this is where a super-linear term in crowd.Worker.Decide
// shows; msgs/op is the worker trace length and must not move. card=1000 took
// 95–150 s before the crowd's lookups were indexed — CI names the rungs it
// runs.
func BenchmarkSimRun(b *testing.B) {
	for _, card := range []int{20, 200, 500, 1000} {
		b.Run(fmt.Sprintf("card=%d", card), func(b *testing.B) {
			msgs := 0
			for i := 0; i < b.N; i++ {
				cfg := RepresentativeConfig(1)
				if card > 20 {
					cfg = tableShapeConfig(b, 1, card*5/2, card/5, card)
				}
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Done {
					b.Fatal("collection did not finish")
				}
				msgs = len(res.Core.Trace())
			}
			b.ReportMetric(float64(msgs), "msgs/op")
		})
	}
}
