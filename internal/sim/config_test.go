package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/workload"
)

func TestGeometryPerPreset(t *testing.T) {
	mix := workload.Mix{Name: "x", Apps: workload.Sources(workload.Benchmarks()[:1]...)}
	cases := []struct {
		preset Preset
		fast   int
	}{
		{Base, 0},
		{FIGCacheSlow, 0},
		{FIGCacheFast, 2},
		{FIGCacheIdeal, 2},
		{LISAVilla, 16},
		{LLDRAM, 0},
	}
	for _, c := range cases {
		cfg := DefaultConfig(c.preset, mix)
		if err := cfg.normalize(); err != nil {
			t.Fatal(err)
		}
		if got := cfg.geometry().FastSubarrays; got != c.fast {
			t.Errorf("%v: fast subarrays = %d, want %d", c.preset, got, c.fast)
		}
	}
}

func TestBuildHookKinds(t *testing.T) {
	mix := workload.Mix{Name: "x", Apps: workload.Sources(workload.Benchmarks()[:1]...)}
	for _, p := range []Preset{Base, LLDRAM} {
		cfg := DefaultConfig(p, mix)
		if err := cfg.normalize(); err != nil {
			t.Fatal(err)
		}
		hook, err := cfg.buildHook(cfg.geometry())
		if err != nil {
			t.Fatal(err)
		}
		if hook != nil {
			t.Errorf("%v: expected no cache hook", p)
		}
	}
	for _, p := range []Preset{FIGCacheSlow, FIGCacheFast, FIGCacheIdeal} {
		cfg := DefaultConfig(p, mix)
		if err := cfg.normalize(); err != nil {
			t.Fatal(err)
		}
		hook, err := cfg.buildHook(cfg.geometry())
		if err != nil {
			t.Fatal(err)
		}
		if FIGCacheOf(hook) == nil {
			t.Errorf("%v: hook is not FIGCache-based", p)
		}
	}
}

// TestFIGCacheSlowReservesSubarrayZero checks that FIGCache-Slow, with
// or without a FIG override, never caches a segment of slow subarray 0,
// which hosts its cache rows, and that FIGCache-Fast, whose cache rows
// are fast subarrays, caches it.
func TestFIGCacheSlowReservesSubarrayZero(t *testing.T) {
	mix := workload.Mix{Name: "x", Apps: workload.Sources(workload.Benchmarks()[:1]...)}
	fig := core.DefaultFIGCacheConfig()
	for _, tc := range []struct {
		preset Preset
		fig    *core.FIGCacheConfig
		want   bool
	}{
		{FIGCacheSlow, nil, false},
		{FIGCacheSlow, &fig, false},
		{FIGCacheFast, nil, true},
	} {
		cfg := DefaultConfig(tc.preset, mix)
		cfg.FIG = tc.fig
		if err := cfg.normalize(); err != nil {
			t.Fatal(err)
		}
		hook, err := cfg.buildHook(cfg.geometry())
		if err != nil {
			t.Fatal(err)
		}
		if got := FIGCacheOf(hook).ShouldInsert(dram.Location{Row: 100}); got != tc.want {
			t.Errorf("%v (override %v): subarray-0 segment accepted = %v, want %v", tc.preset, tc.fig != nil, got, tc.want)
		}
	}
}

func TestIdealHookZeroesCost(t *testing.T) {
	mix := workload.Mix{Name: "x", Apps: workload.Sources(workload.Benchmarks()[:1]...)}
	cfg := DefaultConfig(FIGCacheIdeal, mix)
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	geo := cfg.geometry()
	hook, err := cfg.buildHook(geo)
	if err != nil {
		t.Fatal(err)
	}
	slow := dram.DDR4()
	ch, err := dram.NewChannel(geo, slow, slow.Fast(dram.PaperFastScale()), false)
	if err != nil {
		t.Fatal(err)
	}
	if !hook.Insert(dram.Location{Row: 7}) {
		t.Fatal("ideal hook refused an insertion")
	}
	burst := hook.Flush(ch, 0)
	if burst.Cost != 0 || burst.Count != 1 || burst.Blocks != 16 {
		t.Errorf("ideal burst = %+v, want cost 0, one insertion of 16 blocks", burst)
	}
	// Flushing through the ideal wrapper must reach the inner FIGCache:
	// the inserted segment becomes visible to Lookup.
	if _, hit := hook.Lookup(dram.Location{Row: 7}, false); !hit {
		t.Error("ideal hook did not install the insertion in the inner cache")
	}
}

func TestFloorPow2(t *testing.T) {
	cases := map[uint64]uint64{1: 1, 2: 2, 3: 2, 4: 4, 1023: 512, 1024: 1024, 1025: 1024}
	for in, want := range cases {
		if got := floorPow2(in); got != want {
			t.Errorf("floorPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestImmediateRelocConfigPropagates(t *testing.T) {
	spec, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	spec.Bubbles = 4
	spec.HotSegments = 2560
	spec.HotFraction = 0.95
	mix := workload.Mix{Name: "warm", Apps: workload.Sources(spec)}

	run := func(immediate bool) Result {
		cfg := DefaultConfig(FIGCacheFast, mix)
		cfg.TargetInsts = 60_000
		cfg.ImmediateReloc = immediate
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	deferred := run(false)
	immediate := run(true)
	if deferred.Inserted == 0 || immediate.Inserted == 0 {
		t.Fatal("no insertions in one of the runs")
	}
	// The runs must actually differ (the flag reached the controller).
	if deferred.Cycles == immediate.Cycles && deferred.DRAM == immediate.DRAM {
		t.Error("immediate-relocation flag had no effect")
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	r := Result{
		Cores:      []CoreResult{{IPC: 1.0}, {IPC: 0.5}},
		TotalInsts: 2000,
		LLCMisses:  50,
	}
	if got := r.IPCSum(); got != 1.5 {
		t.Errorf("IPCSum = %g", got)
	}
	if got := r.LLCMPKI(); got != 25 {
		t.Errorf("LLCMPKI = %g, want 25", got)
	}
	empty := Result{}
	if empty.LLCMPKI() != 0 || empty.InDRAMCacheHitRate() != 0 {
		t.Error("empty result metrics not zero")
	}
	// Mismatched core counts yield 0 rather than a bogus ratio.
	if got := r.WeightedSpeedupOver(Result{}); got != 0 {
		t.Errorf("mismatched WS = %g, want 0", got)
	}
}

func TestPresetListOrder(t *testing.T) {
	ps := Presets()
	if len(ps) != 6 || ps[0] != Base || ps[len(ps)-1] != LLDRAM {
		t.Errorf("preset order = %v", ps)
	}
}
