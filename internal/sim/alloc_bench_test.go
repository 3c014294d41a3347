package sim

import (
	"testing"

	"repro/internal/workload"
)

// BenchmarkAccessPathAllocs drives the steady-state memory access path —
// core issue, L1/L2/LLC lookups and fills, pooled MSHRs, the adapter's
// pooled memctrl.Request objects, controller scheduling, DRAM timing,
// the bounded latency reservoir, and the event heap — and asserts that
// it allocates nothing once warm. The warm-up run grows every pool,
// queue and heap to its steady-state capacity; from then on the access
// path must be allocation-free, so full-Scale runs no longer spend time
// in the allocator or grow with run length.
func BenchmarkAccessPathAllocs(b *testing.B) {
	spec, err := workload.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(Base, workload.Mix{Name: "mcf", Apps: workload.Sources(spec)})
	// The target is unreachable within the driven spans: the benchmark
	// measures the steady state, not a completed run.
	cfg.TargetInsts = 1 << 40
	cfg.MaxCycles = 1 << 62
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.run(400_000, 0) // warm pools, queues, and the event heap

	allocs := testing.AllocsPerRun(5, func() {
		s.run(s.clock+50_000, 0)
	})
	b.ReportMetric(allocs, "allocs/op")
	if allocs > 0 {
		b.Fatalf("steady-state access path allocated %.1f times per 50k-cycle span, want 0", allocs)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.run(s.clock+50_000, 0)
	}
	b.ReportMetric(float64(50_000*b.N)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkAccessPathAllocsReloc drives the access path with an active
// relocation preset, so the steady state additionally covers the cache
// hook's insertion decisions, the controller's pooled RelocPlan copies
// (the hook returns a pointer to reused scratch; the controller copies
// it into a pooled object and recycles the object after Commit), and
// the per-bank pending-plan slices whose backing arrays survive each
// flush. Relocation traffic is continuous for mcf under FIGCache-Fast,
// so a single allocation per insertion would show up immediately.
func BenchmarkAccessPathAllocsReloc(b *testing.B) {
	spec, err := workload.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(FIGCacheFast, workload.Mix{Name: "mcf", Apps: workload.Sources(spec)})
	// The target is unreachable within the driven spans: the benchmark
	// measures the steady state, not a completed run.
	cfg.TargetInsts = 1 << 40
	cfg.MaxCycles = 1 << 62
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Relocation state (hook maps, plan pool, pending-plan slices) takes
	// longer to reach steady capacity than the pools alone.
	s.run(1_200_000, 0)

	allocs := testing.AllocsPerRun(5, func() {
		s.run(s.clock+50_000, 0)
	})
	b.ReportMetric(allocs, "allocs/op")
	if allocs > 0 {
		b.Fatalf("steady-state relocation path allocated %.1f times per 50k-cycle span, want 0", allocs)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.run(s.clock+50_000, 0)
	}
	b.ReportMetric(float64(50_000*b.N)/b.Elapsed().Seconds(), "sim-cycles/s")
}
