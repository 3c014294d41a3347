package sim

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/fgss"
	"repro/internal/workload"
)

// runWith executes one config with the given engine selection.
func runWith(t *testing.T, cfg Config, dense bool) Result {
	t.Helper()
	cfg.DenseLoop = dense
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

// warmMix returns a workload that exercises the in-DRAM cache (insertions,
// relocations, idle flushes) within a small instruction budget.
func warmMix(t *testing.T) workload.Mix {
	t.Helper()
	spec, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	spec.Bubbles = 4
	spec.HotSegments = 2560
	spec.HotFraction = 0.95
	return workload.Mix{Name: "warm", Apps: workload.Sources(spec)}
}

// eightCoreMix returns the first eight-core mix with pct percent
// memory-intensive cores. In mix-100-0 eight L1s contend for four
// channels, so cores spend long spans fully blocked; mix-25-0 runs six
// compute-bound cores, which spend theirs in long bubble batches, next
// to two memory-intensive ones.
func eightCoreMix(tb testing.TB, pct int) workload.Mix {
	tb.Helper()
	mixes := workload.MixesByCategory(workload.EightCoreMixes(), pct)
	if len(mixes) == 0 {
		tb.Fatalf("no %d%%-intensive eight-core mix", pct)
	}
	return mixes[0]
}

// TestEngineEquivalence is the golden determinism test for the
// cycle-skipping engine: every configuration must produce a sim.Result
// bit-identical to the dense cycle-by-cycle reference loop.
func TestEngineEquivalence(t *testing.T) {
	type tc struct {
		name  string
		cfg   Config
		insts int64
	}
	var cases []tc
	for _, p := range Presets() {
		cases = append(cases, tc{
			name:  p.String() + "/mcf",
			cfg:   DefaultConfig(p, smallMix(t, "mcf")),
			insts: 20_000,
		})
	}
	// Relocation-heavy runs stress deferred-flush and refresh timing.
	cases = append(cases,
		tc{name: "FIGCache-Fast/warm", cfg: DefaultConfig(FIGCacheFast, warmMix(t)), insts: 60_000},
		tc{name: "LISA-VILLA/warm", cfg: DefaultConfig(LISAVilla, warmMix(t)), insts: 60_000},
	)
	immediate := DefaultConfig(FIGCacheFast, warmMix(t))
	immediate.ImmediateReloc = true
	cases = append(cases, tc{name: "FIGCache-Fast/immediate-reloc", cfg: immediate, insts: 40_000})
	// A non-intensive app spends most cycles unstalled: its long bubble
	// runs exercise the closed-form batch path rather than the skip path.
	cases = append(cases, tc{name: "Base/gcc", cfg: DefaultConfig(Base, smallMix(t, "gcc")), insts: 20_000})
	// An extreme compute-bound app (sjeng has the largest bubble count)
	// batches almost every cycle; the FIGCache preset keeps the memory
	// system non-trivial underneath the batching.
	cases = append(cases,
		tc{name: "Base/sjeng", cfg: DefaultConfig(Base, smallMix(t, "sjeng")), insts: 60_000},
		tc{name: "FIGCache-Fast/sjeng", cfg: DefaultConfig(FIGCacheFast, smallMix(t, "sjeng")), insts: 60_000},
	)

	// Recorded-trace replay must satisfy the same equivalence contract as
	// the synthetic generator: dense, skipping, checkpointed and sliced
	// runs all bit-identical. The trace is shorter than the run consumes,
	// so the looping replay path is exercised too.
	traceDir := t.TempDir()
	tracePath := recordTrace(t, traceDir, "equiv.trc", "mcf", 1_500, 3)
	for _, p := range []Preset{Base, FIGCacheFast} {
		cases = append(cases, tc{
			name:  p.String() + "/trace",
			cfg:   DefaultConfig(p, workload.Mix{Name: "trace-equiv", Apps: []workload.Source{workload.TraceSource(tracePath)}}),
			insts: 20_000,
		})
	}
	// A heterogeneous mix — one synthetic core, one replayed core — pins
	// that the two source kinds coexist in one system.
	mixed := workload.Mix{Name: "mixed-sources", Apps: []workload.Source{
		workload.SynthSource(smallMix(t, "gcc").Apps[0].Synth),
		workload.TraceSource(tracePath),
	}}
	cases = append(cases, tc{name: "Base/mixed-sources", cfg: DefaultConfig(Base, mixed), insts: 8_000})
	// A non-default CPU/bus clock ratio: controller completions convert
	// from bus to CPU cycles through CPUPerBus, and both engines must
	// place every bus boundary identically.
	halfBus := DefaultConfig(FIGCacheFast, smallMix(t, "mcf"))
	halfBus.CPUPerBus = 2
	cases = append(cases, tc{name: "FIGCache-Fast/cpu-per-bus-2", cfg: halfBus, insts: 20_000})

	// Eight relocating cores over four channels: cores sleep blocked and
	// wake on fills while relocations run underneath. Short enough for
	// -short.
	cases = append(cases, tc{name: "FIGCache-Fast/8core", cfg: DefaultConfig(FIGCacheFast, eightCoreMix(t, 100)), insts: 5_000})
	// Batching dominates on mix-25-0: its compute-bound cores sleep
	// through their bubble batches while its memory-bound ones keep the
	// loop busy. Batches end at their wake cycle or are cut short by a
	// load completion, every core crosses its target on a batch's last
	// cycle, and the run ends at a wake.
	cases = append(cases, tc{name: "FIGCache-Fast/8core-batching", cfg: DefaultConfig(FIGCacheFast, eightCoreMix(t, 25)), insts: 5_000})
	if !testing.Short() {
		cases = append(cases,
			tc{name: "Base/8core", cfg: DefaultConfig(Base, eightCoreMix(t, 100)), insts: 5_000},
			tc{name: "Base/8core-batching", cfg: DefaultConfig(Base, eightCoreMix(t, 25)), insts: 5_000},
		)
	}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			c.cfg.TargetInsts = c.insts
			dense := runWith(t, c.cfg, true)
			skip := runWith(t, c.cfg, false)
			if !reflect.DeepEqual(dense, skip) {
				t.Errorf("engines diverge:\n dense: %+v\n  skip: %+v", dense, skip)
			}

			// Checkpoint-at-K: pausing a run mid-flight at RunUntilRetired,
			// snapshotting, and finishing — on the same System, or on a
			// freshly built one restored from the snapshot bytes — must
			// reproduce the uninterrupted run bit for bit, for both engines.
			// Sliced: driving a fresh System to completion in RunSlice
			// steps must do the same.
			k := c.insts * int64(len(c.cfg.Mix.Apps)) / 3
			if k < 1 {
				k = 1
			}
			for _, dl := range []bool{true, false} {
				want := skip
				if dl {
					want = dense
				}
				cfg := c.cfg
				cfg.DenseLoop = dl
				sys, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sys.RunUntilRetired(k)
				var buf bytes.Buffer
				if err := sys.Snapshot(&buf); err != nil {
					t.Fatal(err)
				}
				cont, err := sys.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(cont, want) {
					t.Errorf("dense=%v: checkpoint-at-%d + in-process continue diverges:\n want: %+v\n  got: %+v", dl, k, want, cont)
				}

				fresh, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.Restore(bytes.NewReader(buf.Bytes())); err != nil {
					t.Fatal(err)
				}
				restored, err := fresh.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(restored, want) {
					t.Errorf("dense=%v: checkpoint-at-%d + fresh-System restore diverges:\n want: %+v\n  got: %+v", dl, k, want, restored)
				}

				sliced, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for !sliced.RunSlice(4096) {
				}
				if got, err := sliced.Run(); err != nil {
					t.Fatal(err)
				} else if !reflect.DeepEqual(got, want) {
					t.Errorf("dense=%v: RunSlice(4096) steps diverge from Run:\n want: %+v\n  got: %+v", dl, want, got)
				}
			}
		})
	}
}

// TestRunFinishedSystem checks that a finished System executes nothing
// more: a second Run, and a Run after RunSlice reported completion, both
// return exactly the one-shot Run's Result, on both engines.
func TestRunFinishedSystem(t *testing.T) {
	for _, dense := range []bool{true, false} {
		cfg := DefaultConfig(FIGCacheFast, smallMix(t, "mcf"))
		cfg.TargetInsts = 20_000
		want := runWith(t, cfg, dense)
		cfg.DenseLoop = dense

		twice, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 2; i++ {
			if got, err := twice.Run(); err != nil {
				t.Fatal(err)
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("dense=%v: Run #%d diverges from a one-shot Run:\n want: %+v\n  got: %+v", dense, i, want, got)
			}
		}

		sliced, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for !sliced.RunSlice(4096) {
		}
		clock := sliced.Clock()
		if !sliced.RunSlice(4096) || sliced.Clock() != clock {
			t.Errorf("dense=%v: RunSlice on a finished System moved the clock %d -> %d", dense, clock, sliced.Clock())
		}
		if got, err := sliced.Run(); err != nil {
			t.Fatal(err)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("dense=%v: Run after RunSlice completion diverges from a one-shot Run:\n want: %+v\n  got: %+v", dense, want, got)
		}
	}
}

// TestEngineStallCounters checks that the diagnostic stall statistics —
// which are not part of sim.Result — also match between engines: the
// cycle-skipping loop credits the ticks it skipped for a blocked sleeping
// core via cpu.Core.AccountSkipped / cache.Cache.AccountRefused when the
// core wakes or the run pauses, and a batching sleeping core's batch
// records no stall, so crediting it one shows here. The sliced cases
// pause every 4096 cycles, so sleeping cores are settled mid-run — a
// batch cut at the pause — and resume from settled state and counters.
func TestEngineStallCounters(t *testing.T) {
	// writeHeavy streams stores through an LLC-evicting footprint so the
	// controllers actually enter write-drain mode; without it the
	// WritingCycles comparison would be vacuously 0 == 0.
	writeHeavy := func() workload.Mix {
		spec, err := workload.ByName("lbm")
		if err != nil {
			t.Fatal(err)
		}
		spec.Bubbles = 0
		spec.WriteFrac = 0.9
		spec.HotFraction = 0
		return workload.Mix{Name: "writeheavy", Apps: workload.Sources(spec)}
	}
	// noBubbles is mix-100-0 with every core issuing only memory
	// accesses: the most stall-bound eight-core run, and one in which no
	// core ever batches.
	noBubbles := func() workload.Mix {
		mix := eightCoreMix(t, 100)
		mix.Apps = append([]workload.Source(nil), mix.Apps...)
		for i := range mix.Apps {
			mix.Apps[i].Synth.Bubbles = 0
		}
		return mix
	}
	cases := []struct {
		name   string
		preset Preset
		mix    workload.Mix
		insts  int64
		sliced bool // drive the skip engine in RunSlice(4096) steps
		// exactState marks a run in which no core ever batches, so the
		// window-ring slot positions — which the closed-form batch does
		// not pin, and which load completion tokens name — agree between
		// engines, and the whole cache hierarchy state must match too.
		exactState   bool
		wantDraining bool
	}{
		{name: "mcf", preset: Base, mix: smallMix(t, "mcf"), insts: 20_000},
		{name: "writeheavy", preset: Base, mix: writeHeavy(), insts: 60_000, exactState: true, wantDraining: true},
		{name: "FIGCache-Fast/8core", preset: FIGCacheFast, mix: eightCoreMix(t, 100), insts: 5_000},
		{name: "FIGCache-Fast/8core/sliced", preset: FIGCacheFast, mix: eightCoreMix(t, 100), insts: 5_000, sliced: true},
		{name: "FIGCache-Fast/8core/no-bubbles", preset: FIGCacheFast, mix: noBubbles(), insts: 5_000, exactState: true},
		{name: "FIGCache-Fast/8core-batching", preset: FIGCacheFast, mix: eightCoreMix(t, 25), insts: 5_000},
		{name: "FIGCache-Fast/8core-batching/sliced", preset: FIGCacheFast, mix: eightCoreMix(t, 25), insts: 5_000, sliced: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(dense bool) *System {
				cfg := DefaultConfig(tc.preset, tc.mix)
				cfg.TargetInsts = tc.insts
				cfg.Seed = 2
				cfg.DenseLoop = dense
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if tc.sliced && !dense {
					for !s.RunSlice(4096) {
					}
				}
				if _, err := s.Run(); err != nil {
					t.Fatal(err)
				}
				return s
			}
			d, k := run(true), run(false)
			stalls, writing := compareCounters(t, d, k)
			if stalls == 0 {
				t.Error("no core ever stalled; comparison is vacuous")
			}
			// LRU stamps included: a blocked core's skipped retries must
			// advance its L1's clock before the fill that wakes it
			// stamps the filled line, as they do in the dense loop.
			if tc.exactState && !bytes.Equal(hierarchyState(t, d), hierarchyState(t, k)) {
				t.Error("cache hierarchy state diverges between engines")
			}
			if tc.wantDraining && writing == 0 {
				t.Error("write-heavy workload never entered write-drain mode; comparison is vacuous")
			}
		})
	}
}

// compareCounters checks that the diagnostic counters outside
// sim.Result agree between a dense run d and a skip run k of one
// configuration: every core's stall counters, every L1's refusal and
// access counters, and every controller's write-drain cycles. It returns
// the dense run's total stalls and write-drain cycles, so callers can
// tell a vacuous comparison.
func compareCounters(t *testing.T, d, k *System) (stalls, writing int64) {
	t.Helper()
	for i := range d.Cores() {
		dc, kc := d.Cores()[i], k.Cores()[i]
		if dc.LoadStalls != kc.LoadStalls || dc.StoreStalls != kc.StoreStalls ||
			dc.WindowFull != kc.WindowFull {
			t.Errorf("core %d stalls diverge: dense load=%d store=%d window=%d, skip load=%d store=%d window=%d",
				i, dc.LoadStalls, dc.StoreStalls, dc.WindowFull,
				kc.LoadStalls, kc.StoreStalls, kc.WindowFull)
		}
		stalls += dc.LoadStalls + dc.StoreStalls + dc.WindowFull
	}
	for i := range d.Hierarchy().L1s {
		dl, kl := d.Hierarchy().L1s[i], k.Hierarchy().L1s[i]
		if dl.MSHRFullStalls != kl.MSHRFullStalls || dl.ReadAcc != kl.ReadAcc || dl.WriteAcc != kl.WriteAcc {
			t.Errorf("L1.%d counters diverge: dense (stalls=%d r=%d w=%d), skip (stalls=%d r=%d w=%d)",
				i, dl.MSHRFullStalls, dl.ReadAcc, dl.WriteAcc, kl.MSHRFullStalls, kl.ReadAcc, kl.WriteAcc)
		}
	}
	for i := range d.Controllers() {
		dc, kc := d.Controllers()[i], k.Controllers()[i]
		if dc.WritingCycles != kc.WritingCycles {
			t.Errorf("controller %d WritingCycles diverge: dense %d, skip %d",
				i, dc.WritingCycles, kc.WritingCycles)
		}
		writing += dc.WritingCycles
	}
	return stalls, writing
}

// hierarchyState returns the FGSS encoding of s's cache hierarchy.
func hierarchyState(t *testing.T, s *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := fgss.NewWriter(&buf, uint32(EngineVersion), [32]byte{})
	w.Begin(snapSecCaches)
	s.hier.Snapshot(w)
	w.End()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEngineDeterministicRerun checks that the same seed yields a
// bit-identical Result across two runs of the same engine.
func TestEngineDeterministicRerun(t *testing.T) {
	for _, dense := range []bool{false, true} {
		cfg := DefaultConfig(FIGCacheFast, warmMix(t))
		cfg.TargetInsts = 40_000
		cfg.Seed = 7
		a := runWith(t, cfg, dense)
		b := runWith(t, cfg, dense)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("dense=%v: reruns with the same seed diverge:\n a: %+v\n b: %+v", dense, a, b)
		}
	}
}

// TestEngineSeedSensitivity guards against the seed being ignored: two
// different seeds should (for a memory-intensive workload) produce
// different traces and therefore different cycle counts.
func TestEngineSeedSensitivity(t *testing.T) {
	cfg := DefaultConfig(Base, smallMix(t, "mcf"))
	cfg.TargetInsts = 15_000
	a := runWith(t, cfg, false)
	cfg.Seed = 99
	b := runWith(t, cfg, false)
	if a.Cycles == b.Cycles && reflect.DeepEqual(a.DRAM, b.DRAM) {
		t.Error("different seeds produced identical runs; seed is likely ignored")
	}
}
