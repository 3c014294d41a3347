package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ev"
	"repro/internal/workload"
)

// smallMix returns a quick single-core workload for unit tests.
func smallMix(tb testing.TB, name string) workload.Mix {
	tb.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	return workload.Mix{Name: name, Apps: workload.Sources(spec), IntensivePercent: 100}
}

func quickRun(t *testing.T, p Preset, mix workload.Mix, insts int64) Result {
	t.Helper()
	cfg := DefaultConfig(p, mix)
	cfg.TargetInsts = insts
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

// recDisp records dispatched token Args in fire order.
type recDisp struct{ got []int }

func (d *recDisp) Dispatch(tok ev.Token, now int64) { d.got = append(d.got, int(tok.Arg)) }

func TestEventQueueOrdering(t *testing.T) {
	var q eventQueue
	d := &recDisp{}
	tok := func(id int) ev.Token { return ev.Token{Kind: ev.CoreSlot, Arg: uint64(id)} }
	q.schedule(10, tok(2))
	q.schedule(5, tok(1))
	q.schedule(10, tok(3)) // same time: FIFO by seq
	q.schedule(20, tok(4))
	q.fireDue(10, d)
	if got := d.got; len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("fire order = %v, want [1 2 3]", got)
	}
	q.fireDue(100, d)
	if got := d.got; len(got) != 4 || got[3] != 4 {
		t.Errorf("final order = %v", got)
	}
}

func TestPresetStrings(t *testing.T) {
	for _, p := range Presets() {
		if p.String() == "" || p.String()[0] == 'P' {
			t.Errorf("preset %d has bad name %q", int(p), p.String())
		}
	}
}

func TestConfigNormalizeDefaults(t *testing.T) {
	mix := workload.Mix{Name: "x", Apps: workload.Sources(workload.Benchmarks()[:8]...)}
	cfg := DefaultConfig(Base, mix)
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.Channels != 4 {
		t.Errorf("8-core channels = %d, want 4 (Table 1)", cfg.Channels)
	}
	single := DefaultConfig(Base, workload.Mix{Name: "y", Apps: workload.Sources(workload.Benchmarks()[:1]...)})
	if err := single.normalize(); err != nil {
		t.Fatal(err)
	}
	if single.Channels != 1 {
		t.Errorf("1-core channels = %d, want 1 (Table 1)", single.Channels)
	}
}

func TestConfigRejectsBad(t *testing.T) {
	if _, err := New(Config{Preset: Base}); err == nil {
		t.Error("accepted empty mix")
	}
	cfg := DefaultConfig(Preset(99), smallMix(t, "mcf"))
	if _, err := New(cfg); err == nil {
		t.Error("accepted unknown preset")
	}
	cfg = DefaultConfig(Base, smallMix(t, "mcf"))
	cfg.TargetInsts = -5
	if _, err := New(cfg); err == nil {
		t.Error("accepted negative target")
	}
}

func TestBaseRunCompletes(t *testing.T) {
	res := quickRun(t, Base, smallMix(t, "mcf"), 20_000)
	if res.Cores[0].IPC <= 0 {
		t.Fatalf("IPC = %g, want positive", res.Cores[0].IPC)
	}
	if res.MemReads == 0 {
		t.Error("no memory reads reached DRAM")
	}
	if res.DRAM.ACT == 0 || res.DRAM.RD == 0 {
		t.Errorf("DRAM stats empty: %+v", res.DRAM)
	}
	if res.CacheHits != 0 || res.CacheMisses != 0 {
		t.Error("Base run reported in-DRAM cache activity")
	}
}

func TestFIGCacheFastRunUsesCache(t *testing.T) {
	// A fast-warming workload: the hot set exceeds the 2 MB LLC but is
	// swept quickly, so the second sweep hits the in-DRAM cache within a
	// small instruction budget.
	spec, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	spec.Bubbles = 4
	spec.HotSegments = 2560
	spec.HotFraction = 0.95
	mix := workload.Mix{Name: "warm", Apps: workload.Sources(spec)}
	res := quickRun(t, FIGCacheFast, mix, 80_000)
	if res.CacheHits+res.CacheMisses == 0 {
		t.Fatal("FIGCache saw no lookups")
	}
	if res.Inserted == 0 {
		t.Error("FIGCache made no insertions")
	}
	if res.DRAM.RELOC == 0 {
		t.Error("no RELOC operations recorded")
	}
	if res.InDRAMCacheHitRate() <= 0 {
		t.Error("zero in-DRAM cache hit rate on a hot-set workload")
	}
}

func TestLISARunUsesRBM(t *testing.T) {
	// LISA-VILLA's hot-row detector needs rows re-activated before it
	// inserts, so use the fast-warming workload with enough instructions
	// for two sweeps.
	spec, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	spec.Bubbles = 4
	spec.HotSegments = 2560
	spec.HotFraction = 0.95
	mix := workload.Mix{Name: "warm", Apps: workload.Sources(spec)}
	res := quickRun(t, LISAVilla, mix, 80_000)
	if res.Inserted == 0 {
		t.Error("LISA-VILLA made no insertions")
	}
	if res.DRAM.RBMHops == 0 {
		t.Error("no RBM hops recorded")
	}
	if res.DRAM.RELOC != 0 {
		t.Error("LISA-VILLA recorded FIGARO RELOCs")
	}
}

func TestLLDRAMFasterThanBase(t *testing.T) {
	base := quickRun(t, Base, smallMix(t, "mcf"), 30_000)
	ll := quickRun(t, LLDRAM, smallMix(t, "mcf"), 30_000)
	if ll.Cores[0].IPC <= base.Cores[0].IPC {
		t.Errorf("LL-DRAM IPC %.4f not above Base %.4f", ll.Cores[0].IPC, base.Cores[0].IPC)
	}
}

func TestFIGCacheIdealAtLeastAsFastAsReal(t *testing.T) {
	real := quickRun(t, FIGCacheFast, smallMix(t, "mcf"), 30_000)
	ideal := quickRun(t, FIGCacheIdeal, smallMix(t, "mcf"), 30_000)
	// Zero-cost relocation can only help (allowing a little noise).
	if ideal.Cores[0].IPC < real.Cores[0].IPC*0.97 {
		t.Errorf("Ideal IPC %.4f below real %.4f", ideal.Cores[0].IPC, real.Cores[0].IPC)
	}
}

func TestRunDeterministic(t *testing.T) {
	a := quickRun(t, FIGCacheFast, smallMix(t, "libquantum"), 15_000)
	b := quickRun(t, FIGCacheFast, smallMix(t, "libquantum"), 15_000)
	if a.Cycles != b.Cycles || a.DRAM != b.DRAM || a.Cores[0].IPC != b.Cores[0].IPC {
		t.Errorf("runs differ: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

func TestEightCoreRun(t *testing.T) {
	if testing.Short() {
		t.Skip("eight-core run in -short mode")
	}
	mix := workload.EightCoreMixes()[0]
	cfg := DefaultConfig(Base, mix)
	cfg.TargetInsts = 10_000
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 8 {
		t.Fatalf("core results = %d, want 8", len(res.Cores))
	}
	for i, c := range res.Cores {
		if c.IPC <= 0 {
			t.Errorf("core %d IPC = %g", i, c.IPC)
		}
	}
}

func TestWeightedSpeedupIdentity(t *testing.T) {
	res := quickRun(t, Base, smallMix(t, "gcc"), 15_000)
	if ws := res.WeightedSpeedupOver(res); ws != 1.0 {
		t.Errorf("self weighted speedup = %g, want 1.0", ws)
	}
}

func TestFIGCacheConfigOverride(t *testing.T) {
	cfg := DefaultConfig(FIGCacheFast, smallMix(t, "mcf"))
	cfg.TargetInsts = 10_000
	override := core.DefaultFIGCacheConfig()
	override.SegmentBlocks = 32
	cfg.FIG = &override
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fc := FIGCacheOf(s.Hooks()[0])
	if fc == nil {
		t.Fatal("no FIGCache hook")
	}
	if fc.Config().SegmentBlocks != 32 {
		t.Errorf("segment override ignored: %d", fc.Config().SegmentBlocks)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFastSubarraySweepChangesCapacity(t *testing.T) {
	cfg := DefaultConfig(FIGCacheFast, smallMix(t, "mcf"))
	cfg.FastSubarrays = 8
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fc := FIGCacheOf(s.Hooks()[0])
	if fc.Config().CacheRowsPerBank != 8*32 {
		t.Errorf("cache rows = %d, want 256 for 8 fast subarrays", fc.Config().CacheRowsPerBank)
	}
}

func TestSharedFootprintMultithreaded(t *testing.T) {
	if testing.Short() {
		t.Skip("multithreaded run in -short mode")
	}
	mix := workload.MultithreadedWorkloads()[0]
	cfg := DefaultConfig(Base, mix)
	cfg.TargetInsts = 5_000
	cfg.SharedFootprint = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
