package sim

import (
	"reflect"
	"slices"
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

// TestEventQueueOrdering checks the queue's firing order: due events
// fire lane by lane in registration order, and within a lane in the
// order they were scheduled, also once the lane's ring has wrapped and
// doubled while events were pending. nextDue stays exact throughout.
func TestEventQueueOrdering(t *testing.T) {
	q := eventQueue{nextDue: maxInt64}
	mem, l1 := q.newLane(60), q.newLane(4)
	d := &recDisp{}
	tok := func(id int) ev.Token { return ev.Token{Kind: ev.CoreSlot, Arg: uint64(id)} }
	q.schedule(l1, 5, tok(1))
	q.schedule(mem, 10, tok(2))
	q.schedule(l1, 10, tok(3))
	q.schedule(l1, 10, tok(4))
	q.schedule(mem, 20, tok(5))
	if q.nextDue != 5 {
		t.Errorf("nextDue = %d, want 5", q.nextDue)
	}
	q.fireDue(10, d)
	if !slices.Equal(d.got, []int{2, 1, 3, 4}) {
		t.Errorf("fire order = %v, want [2 1 3 4]", d.got)
	}
	if q.nextDue != 20 {
		t.Errorf("nextDue = %d after firing cycle 10, want 20", q.nextDue)
	}
	q.fireDue(100, d)
	if !slices.Equal(d.got, []int{2, 1, 3, 4, 5}) || q.nextDue != maxInt64 {
		t.Errorf("fire order = %v, nextDue = %d; want [2 1 3 4 5] and an empty queue", d.got, q.nextDue)
	}

	// Half fill the ring, fire a quarter so the head moves, then schedule
	// a ring's worth: the events wrap past the ring's end, fill it, and
	// the ring doubles with a quarter of them still pending.
	d.got = nil
	size := len(q.lanes[l1].ring)
	var want []int
	push := func(k int) {
		for ; k > 0; k-- {
			id := len(want)
			q.schedule(l1, 1000+int64(id), tok(id))
			want = append(want, id)
		}
	}
	push(size / 2)
	q.fireDue(1000+int64(size/4)-1, d)
	push(size)
	if got := len(q.lanes[l1].ring); got != 2*size {
		t.Errorf("ring holds %d entries after %d events were pending in %d, want %d", got, size/4+size, size, 2*size)
	}
	q.fireDue(1<<40, d)
	if !slices.Equal(d.got, want) {
		t.Errorf("fire order after the ring wrapped and doubled = %v, want %v", d.got, want)
	}
}

// TestEventQueueRejectsDecreasingDueTime checks that schedule panics on
// a due time below its lane's last pending one, which would break the
// lane's firing order, and accepts an equal one.
func TestEventQueueRejectsDecreasingDueTime(t *testing.T) {
	q := eventQueue{nextDue: maxInt64}
	lane := q.newLane(4)
	q.schedule(lane, 10, ev.Token{Kind: ev.CoreSlot, Arg: 1})
	q.schedule(lane, 10, ev.Token{Kind: ev.CoreSlot, Arg: 2})
	defer func() {
		if recover() == nil {
			t.Error("schedule accepted a due time below the lane's last")
		}
	}()
	q.schedule(lane, 9, ev.Token{Kind: ev.CoreSlot, Arg: 3})
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

// TestDefaultFIGOverrideIsTheDefaultRun checks that a FIGCache-Fast
// override equal to core.DefaultFIGCacheConfig computes the Result of
// the preset's own run, on one core and on eight. The harness relies on
// it: a sweep's default column is the run Figures 7-11 make.
func TestDefaultFIGOverrideIsTheDefaultRun(t *testing.T) {
	for _, mix := range []workload.Mix{smallMix(t, "mcf"), eightCoreMix(t, 100)} {
		cfg := DefaultConfig(FIGCacheFast, mix)
		cfg.TargetInsts = 4_000
		run := func(cfg Config) Result {
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
		plain := run(cfg)
		fig := core.DefaultFIGCacheConfig()
		cfg.FIG = &fig
		if got := run(cfg); !reflect.DeepEqual(got, plain) {
			t.Errorf("%s: default override gives\n%+v\nthe preset's run gives\n%+v", mix.Name, got, plain)
		}
		if plain.Inserted == 0 {
			t.Errorf("%s: no insertion, so the override's parameters were never used", mix.Name)
		}
	}
}

// TestFastSubarraySweepChangesCapacity checks Figure 12's capacity
// sweep: an override of 256 cache rows gives each bank eight 32-row
// fast subarrays.
func TestFastSubarraySweepChangesCapacity(t *testing.T) {
	cfg := DefaultConfig(FIGCacheFast, smallMix(t, "mcf"))
	fig := core.DefaultFIGCacheConfig()
	fig.CacheRowsPerBank = 256
	cfg.FIG = &fig
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.channels[0].Geo.FastSubarrays; got != 8 {
		t.Errorf("fast subarrays = %d, want 8 for 256 cache rows", got)
	}
	if got := FIGCacheOf(s.Hooks()[0]).Config().CacheRowsPerBank; got != 256 {
		t.Errorf("cache rows = %d, want 256", got)
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
