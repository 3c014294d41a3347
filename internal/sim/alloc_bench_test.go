package sim

import (
	"testing"

	"repro/internal/workload"
)

// allocGate warms a System built for preset and mix over warmup cycles,
// fails the benchmark if a further 50k-cycle span allocates at all, and
// then reports the steady state's speed. The instruction target is
// unreachable within the driven spans: a gate measures the steady state,
// not a completed run.
func allocGate(b *testing.B, preset Preset, mix workload.Mix, warmup int64, what string) {
	cfg := DefaultConfig(preset, mix)
	cfg.TargetInsts = 1 << 40
	cfg.MaxCycles = 1 << 62
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.run(warmup, 0)

	allocs := testing.AllocsPerRun(5, func() {
		s.run(s.clock+50_000, 0)
	})
	b.ReportMetric(allocs, "allocs/op")
	if allocs > 0 {
		b.Fatalf("steady-state %s allocated %.1f times per 50k-cycle span, want 0", what, allocs)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.run(s.clock+50_000, 0)
	}
	b.ReportMetric(float64(50_000*b.N)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkAccessPathAllocs drives the steady-state memory access path —
// core issue, L1/L2/LLC lookups and fills, pooled MSHRs, the adapter's
// pooled memctrl.Request objects, controller scheduling, DRAM timing,
// the bounded latency reservoir, and the event heap — and asserts that
// it allocates nothing once warm. The warm-up run grows every pool,
// queue and heap to its steady-state capacity; from then on the access
// path must be allocation-free, so full-Scale runs no longer spend time
// in the allocator or grow with run length.
func BenchmarkAccessPathAllocs(b *testing.B) {
	allocGate(b, Base, smallMix(b, "mcf"), 400_000, "access path")
}

// BenchmarkAccessPathAllocsReloc drives the access path with an active
// relocation preset, so the steady state additionally covers the cache
// hook's insertion decisions, the controller's pooled RelocPlan copies
// (the hook returns a pointer to reused scratch; the controller copies
// it into a pooled object and recycles the object after Commit), and
// the per-bank pending-plan slices whose backing arrays survive each
// flush. Relocation traffic is continuous for mcf under FIGCache-Fast,
// so a single allocation per insertion would show up immediately.
// Relocation state (hook maps, plan pool, pending-plan slices) takes
// longer to reach steady capacity than the pools alone.
func BenchmarkAccessPathAllocsReloc(b *testing.B) {
	allocGate(b, FIGCacheFast, smallMix(b, "mcf"), 1_200_000, "relocation path")
}

// BenchmarkAccessPathAllocs8Core drives eight memory-intensive cores
// (mix-100-0) under FIGCache-Fast over four channels: the shared LLC,
// four controllers ticked by busTick and the memory-only loop, and
// cores sleeping blocked until a fill or through their own bubble
// batches, each waking on its own cycle, on top of everything the
// single-core gates cover. Like the relocation gate it warms up for
// 1.2M cycles: until then the event lanes, the MSHR free lists and the
// plan pool still reach new high-water marks.
func BenchmarkAccessPathAllocs8Core(b *testing.B) {
	allocGate(b, FIGCacheFast, eightCoreMix(b, 100), 1_200_000, "8-core path")
}
