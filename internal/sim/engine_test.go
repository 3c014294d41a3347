package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fgss"
	"repro/internal/workload"
)

// newSystem builds a System for cfg that runs the dense reference loop
// when dense is set, and the cycle-skipping engine otherwise.
func newSystem(tb testing.TB, cfg Config, dense bool) *System {
	tb.Helper()
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	s.dense = dense
	return s
}

// runWith executes one config with the given engine selection.
func runWith(t *testing.T, cfg Config, dense bool) Result {
	t.Helper()
	res, err := newSystem(t, cfg, dense).Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// BenchmarkEngineComparison pits the cycle-skipping engine against the
// dense reference loop on the same memory-intensive Base run, so the
// speedup is visible directly in the benchmark output.
func BenchmarkEngineComparison(b *testing.B) {
	cfg := DefaultConfig(Base, smallMix(b, "mcf"))
	cfg.TargetInsts = 50_000
	for _, eng := range []struct {
		name  string
		dense bool
	}{{"skipping", false}, {"dense", true}} {
		b.Run(eng.name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := newSystem(b, cfg, eng.dense).Run()
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
		})
	}
}

// warmMix returns a workload that exercises the in-DRAM cache (insertions,
// relocations, idle flushes) within a small instruction budget.
func warmMix(t testing.TB) workload.Mix {
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
	// One core over four channels: the one-core loop ticking several
	// controllers, in its memory-only loop too.
	fourChan := DefaultConfig(FIGCacheFast, smallMix(t, "mcf"))
	fourChan.Channels = 4
	cases = append(cases, tc{name: "FIGCache-Fast/mcf/4ch", cfg: fourChan, insts: 20_000})

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

			// Checkpoint-at-K: both engines pause RunUntilRetired(K) on the
			// same cycle in the same state. Snapshotting there and
			// finishing — on the same System, or on a freshly built one
			// restored from the snapshot bytes — must reproduce the
			// uninterrupted run bit for bit, for both engines. Sliced:
			// driving a fresh System to completion in RunSlice steps must
			// do the same.
			k := c.insts * int64(len(c.cfg.Mix.Apps)) / 3
			if k < 1 {
				k = 1
			}
			paused := map[bool]*System{}
			for _, dl := range []bool{true, false} {
				sys := newSystem(t, c.cfg, dl)
				sys.RunUntilRetired(k)
				paused[dl] = sys
			}
			compareEngineState(t, fmt.Sprintf("RunUntilRetired(%d)", k), paused[true], paused[false])
			for _, dl := range []bool{true, false} {
				want := skip
				if dl {
					want = dense
				}
				sys := paused[dl]
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

				fresh := newSystem(t, c.cfg, dl)
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

				sliced := newSystem(t, c.cfg, dl)
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

		twice := newSystem(t, cfg, dense)
		for i := 1; i <= 2; i++ {
			if got, err := twice.Run(); err != nil {
				t.Fatal(err)
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("dense=%v: Run #%d diverges from a one-shot Run:\n want: %+v\n  got: %+v", dense, i, want, got)
			}
		}

		sliced := newSystem(t, cfg, dense)
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

// TestRunUntilRetiredStopsAtFirstCrossing checks RunUntilRetired's stop
// point on both engines against a dense loop stepped one cycle at a
// time: the run pauses right after the first cycle at whose end the
// total retired count reaches the target, and a target already reached
// executes nothing.
func TestRunUntilRetiredStopsAtFirstCrossing(t *testing.T) {
	cfg := DefaultConfig(FIGCacheFast, eightCoreMix(t, 25))
	cfg.TargetInsts = 3_000
	for _, k := range []int64{1, 2_000, 9_001} {
		step := newSystem(t, cfg, true)
		for step.totalRetired() < k && !step.RunSlice(1) {
		}
		for _, dense := range []bool{true, false} {
			s := newSystem(t, cfg, dense)
			s.RunUntilRetired(k)
			if s.Clock() != step.Clock() || s.totalRetired() != step.totalRetired() {
				t.Errorf("dense=%v: RunUntilRetired(%d) paused at cycle %d with %d retired, want cycle %d with %d",
					dense, k, s.Clock(), s.totalRetired(), step.Clock(), step.totalRetired())
			}
			clock := s.Clock()
			s.RunUntilRetired(k)
			s.RunUntilRetired(k / 2)
			if s.Clock() != clock {
				t.Errorf("dense=%v: RunUntilRetired on a reached target moved the clock %d -> %d", dense, clock, s.Clock())
			}
		}
	}
}

// TestEngineHierarchyState checks that the engines agree on the whole
// machine state, not only on sim.Result: at every pause, and after the
// run, both report the same clock and snapshot the same bytes in every
// section (compareEngineState) — the clock, the event queue, the cores' windows and load rings, the trace cursors, the
// cache hierarchy with its LRU stamps, the DRAM channels, controllers,
// in-DRAM cache hooks and the request adapter. The sliced cases drive
// both engines in RunSlice(4096) steps and compare them at each pause,
// so sleeping cores wake mid-run, a batch is cut at the pause, and both
// resume.
func TestEngineHierarchyState(t *testing.T) {
	// writeHeavy streams stores through an LLC-evicting footprint, so
	// the controllers' write queues and write-drain mode are exercised.
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
		name     string
		preset   Preset
		mix      workload.Mix
		channels int // 0 keeps the default for the core count
		insts    int64
		sliced   bool // pause both engines every 4096 cycles
	}{
		{name: "mcf", preset: Base, mix: smallMix(t, "mcf"), insts: 20_000},
		// One-core runs take the skip engine's one-core loop. mcf is
		// blocked at most pauses. sjeng sleeps through long bubble
		// batches: at this seed and length 4 of its 15 pauses fall inside
		// one, and the run ends on the last cycle of a batch that carried
		// the core across its target. Over four channels the one-core
		// loop ticks several controllers.
		{name: "mcf/sliced", preset: Base, mix: smallMix(t, "mcf"), insts: 20_000, sliced: true},
		{name: "FIGCache-Fast/sjeng/sliced", preset: FIGCacheFast, mix: smallMix(t, "sjeng"), insts: 80_000, sliced: true},
		{name: "FIGCache-Fast/mcf/4ch/sliced", preset: FIGCacheFast, mix: smallMix(t, "mcf"), channels: 4, insts: 20_000, sliced: true},
		{name: "writeheavy", preset: Base, mix: writeHeavy(), insts: 60_000},
		{name: "FIGCache-Fast/8core", preset: FIGCacheFast, mix: eightCoreMix(t, 100), insts: 5_000},
		{name: "FIGCache-Fast/8core/sliced", preset: FIGCacheFast, mix: eightCoreMix(t, 100), insts: 5_000, sliced: true},
		{name: "FIGCache-Fast/8core/no-bubbles", preset: FIGCacheFast, mix: noBubbles(), insts: 5_000},
		{name: "FIGCache-Fast/8core/no-bubbles/sliced", preset: FIGCacheFast, mix: noBubbles(), insts: 5_000, sliced: true},
		{name: "FIGCache-Fast/8core-batching", preset: FIGCacheFast, mix: eightCoreMix(t, 25), insts: 5_000},
		{name: "FIGCache-Fast/8core-batching/sliced", preset: FIGCacheFast, mix: eightCoreMix(t, 25), insts: 5_000, sliced: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(dense bool) *System {
				cfg := DefaultConfig(tc.preset, tc.mix)
				cfg.Channels = tc.channels
				cfg.TargetInsts = tc.insts
				cfg.Seed = 2
				return newSystem(t, cfg, dense)
			}
			d, k := build(true), build(false)
			if tc.sliced {
				for pause := 1; ; pause++ {
					dDone, kDone := d.RunSlice(4096), k.RunSlice(4096)
					compareEngineState(t, fmt.Sprintf("pause %d", pause), d, k)
					if dDone != kDone {
						t.Fatalf("pause %d: dense reports done=%v, skip done=%v", pause, dDone, kDone)
					}
					if dDone || t.Failed() {
						break
					}
				}
			}
			for _, s := range []*System{d, k} {
				if _, err := s.Run(); err != nil {
					t.Fatal(err)
				}
			}
			compareEngineState(t, "end of run", d, k)
		})
	}
}

// snapshotSections returns the payload of each section of s's snapshot,
// by tag.
func snapshotSections(t testing.TB, s *System) map[uint32][]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	secs := make(map[uint32][]byte)
	for b := buf.Bytes()[fgss.HeaderSize:]; len(b) > 0; {
		tag, n := binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:])
		secs[tag] = b[8 : 8+n]
		b = b[8+n:]
	}
	return secs
}

// compareEngineState fails unless a dense-loop System and a skip-engine
// System paused at the same point of the same run hold the same state:
// the same clock, and byte-identical snapshot sections (see
// snapshotSections).
func compareEngineState(t testing.TB, at string, dense, skip *System) {
	t.Helper()
	if dense.Clock() != skip.Clock() {
		t.Errorf("%s: dense loop paused at cycle %d, skip engine at cycle %d", at, dense.Clock(), skip.Clock())
		return
	}
	d, k := snapshotSections(t, dense), snapshotSections(t, skip)
	for _, sec := range []struct {
		tag  uint32
		name string
	}{
		{snapSecSystem, "system"}, {snapSecEvents, "event queue"}, {snapSecCores, "core"},
		{snapSecCaches, "cache hierarchy"}, {snapSecChannels, "DRAM channel"}, {snapSecCtrls, "memory controller"},
		{snapSecHooks, "in-DRAM cache"}, {snapSecAdapter, "request adapter"},
	} {
		if _, ok := d[sec.tag]; !ok || !bytes.Equal(d[sec.tag], k[sec.tag]) {
			t.Errorf("%s (cycle %d): %s state diverges between engines", at, dense.Clock(), sec.name)
		}
	}
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
