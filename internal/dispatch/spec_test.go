package dispatch

import (
	"testing"

	"repro/internal/expcache"
	"repro/internal/harness"
)

var specSink Spec

// BenchmarkBuildSpec times a fleet's planning: one iteration builds a
// runner over an in-memory result cache and the dispatch Spec of fig7,
// fig8, fig9, fig10 and fig12 at quick scale with parallelism 2 (168
// fingerprints, 80 distinct jobs). It is the interval figperf's
// matrix-quick setup_s times.
func BenchmarkBuildSpec(b *testing.B) {
	scale := harness.Scale{Insts: 60_000, SingleApps: 4, MixesPerCategory: 1, MCIterations: 500, Parallelism: 2}
	names := []string{"fig7", "fig8", "fig9", "fig10", "fig12"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := harness.NewRunnerWithCache(scale, expcache.New(""), false)
		spec, jobs, _, err := BuildSpec(r, names)
		if err != nil {
			b.Fatal(err)
		}
		if len(jobs) != 80 {
			b.Fatalf("%d jobs, want 80", len(jobs))
		}
		specSink = spec
	}
}
