package sim

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

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
	// the synthetic generator: dense, skipping, and Reset-reused runs all
	// bit-identical. The trace is shorter than the run consumes, so the
	// looping replay path is exercised too.
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

	if !testing.Short() {
		eight := DefaultConfig(Base, workload.EightCoreMixes()[0])
		cases = append(cases, tc{name: "Base/8core", cfg: eight, insts: 5_000})
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

			// Reset-reuse: a System that already ran a *different*
			// configuration of the same shape and was Reset to this one
			// must reproduce the fresh run bit for bit — the contract the
			// harness's per-worker System pools rely on. The warm-up run
			// deliberately differs in preset, seed, and target so every
			// piece of state Reset clears was actually dirty.
			warm := c.cfg
			if warm.Preset == FIGCacheFast {
				warm.Preset = LISAVilla
			} else {
				warm.Preset = FIGCacheFast
			}
			warm.Seed = c.cfg.Seed + 17
			warm.TargetInsts = c.insts / 4
			if warm.TargetInsts < 1_000 {
				warm.TargetInsts = 1_000
			}
			sys, err := New(warm)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if err := sys.Reset(c.cfg); err != nil {
				t.Fatal(err)
			}
			reused, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(reused, skip) {
				t.Errorf("Reset-reused System diverges from fresh run:\n fresh: %+v\nreused: %+v", skip, reused)
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
				if got := sliced.collect(); !reflect.DeepEqual(got, want) {
					t.Errorf("dense=%v: RunSlice(4096) steps diverge from Run:\n want: %+v\n  got: %+v", dl, want, got)
				}
			}
		})
	}
}

// TestResetShapeMismatch checks that Reset refuses to retarget a System
// across a shape change (core or channel count) instead of corrupting it.
func TestResetShapeMismatch(t *testing.T) {
	cfg := DefaultConfig(Base, smallMix(t, "mcf"))
	cfg.TargetInsts = 1_000
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eight := DefaultConfig(Base, workload.EightCoreMixes()[0])
	eight.TargetInsts = 1_000
	if err := sys.Reset(eight); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("Reset across 1-core -> 8-core returned %v, want ErrShapeMismatch", err)
	}
}

// TestResetAcrossClockRatio retargets a System to a different CPU/bus
// clock ratio: the bus-cycle conversion closure is rebound by Reset, so
// the reused run must still match a fresh construction exactly.
func TestResetAcrossClockRatio(t *testing.T) {
	cfg := DefaultConfig(Base, smallMix(t, "mcf"))
	cfg.TargetInsts = 10_000
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	half := cfg
	half.CPUPerBus = 2
	fresh := runWith(t, half, false)
	if err := sys.Reset(half); err != nil {
		t.Fatal(err)
	}
	got, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, fresh) {
		t.Errorf("reused run at CPUPerBus=2 diverges from fresh run:\n fresh: %+v\nreused: %+v", fresh, got)
	}
}

// TestResetRepeatedReuse drives one System through a chain of resets —
// the steady state of a harness worker — and checks every run against a
// fresh construction.
func TestResetRepeatedReuse(t *testing.T) {
	mix := smallMix(t, "mcf")
	var sys *System
	for i, p := range Presets() {
		cfg := DefaultConfig(p, mix)
		cfg.TargetInsts = 10_000
		cfg.Seed = uint64(i + 1)
		fresh := runWith(t, cfg, false)
		if sys == nil {
			var err error
			if sys, err = New(cfg); err != nil {
				t.Fatal(err)
			}
		} else if err := sys.Reset(cfg); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		got, err := sys.Run()
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if !reflect.DeepEqual(got, fresh) {
			t.Errorf("%v (reset #%d): reused result diverges:\n fresh: %+v\nreused: %+v", p, i, fresh, got)
		}
	}
}

// TestEngineStallCounters checks that the diagnostic stall statistics —
// which are not part of sim.Result — also match between engines: the
// cycle-skipping loop credits skipped stall cycles via
// cpu.Core.AccountSkipped / cache.Cache.AccountRefused.
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
	cases := []struct {
		name         string
		mix          workload.Mix
		insts        int64
		wantDraining bool
	}{
		{name: "mcf", mix: smallMix(t, "mcf"), insts: 20_000},
		{name: "writeheavy", mix: writeHeavy(), insts: 60_000, wantDraining: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(dense bool) *System {
				cfg := DefaultConfig(Base, tc.mix)
				cfg.TargetInsts = tc.insts
				cfg.Seed = 2
				cfg.DenseLoop = dense
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Run(); err != nil {
					t.Fatal(err)
				}
				return s
			}
			d, k := run(true), run(false)
			for i := range d.Cores() {
				dc, kc := d.Cores()[i], k.Cores()[i]
				if dc.LoadStalls != kc.LoadStalls || dc.StoreStalls != kc.StoreStalls ||
					dc.WindowFull != kc.WindowFull {
					t.Errorf("core %d stalls diverge: dense load=%d store=%d window=%d, skip load=%d store=%d window=%d",
						i, dc.LoadStalls, dc.StoreStalls, dc.WindowFull,
						kc.LoadStalls, kc.StoreStalls, kc.WindowFull)
				}
			}
			for i := range d.Hierarchy().L1s {
				dl, kl := d.Hierarchy().L1s[i], k.Hierarchy().L1s[i]
				if dl.MSHRFullStalls != kl.MSHRFullStalls || dl.ReadAcc != kl.ReadAcc || dl.WriteAcc != kl.WriteAcc {
					t.Errorf("L1.%d counters diverge: dense (stalls=%d r=%d w=%d), skip (stalls=%d r=%d w=%d)",
						i, dl.MSHRFullStalls, dl.ReadAcc, dl.WriteAcc, kl.MSHRFullStalls, kl.ReadAcc, kl.WriteAcc)
				}
			}
			var writing int64
			for i := range d.Controllers() {
				dc, kc := d.Controllers()[i], k.Controllers()[i]
				if dc.WritingCycles != kc.WritingCycles {
					t.Errorf("controller %d WritingCycles diverge: dense %d, skip %d",
						i, dc.WritingCycles, kc.WritingCycles)
				}
				writing += dc.WritingCycles
			}
			if tc.wantDraining && writing == 0 {
				t.Error("write-heavy workload never entered write-drain mode; comparison is vacuous")
			}
		})
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
