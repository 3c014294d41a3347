package sim

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/workload"
)

// fuzzConfig decodes fuzz inputs into a small valid run configuration:
// one of the six presets; 1, 2, 4 or 8 channels; 1-8 cores running
// either copies of one Table 2 benchmark or a prefix of one of the
// eight-core mixes; a CPU/bus clock ratio of 1-5; and 1k-4k
// instructions per core. A nonzero bubbles b sets every app's Bubbles
// to b-1, and zero keeps each spec's own. Against the issue width of 3,
// Bubbles of 0-2 give no batch, 3-5 one-cycle batches at the
// Bubbles/IssueWidth edge, and large values long all-done runs.
func fuzzConfig(preset, chanLog, apps, source, cpb uint8, seed uint64, immediate bool, insts uint16, bubbles uint8) Config {
	benches := workload.Benchmarks()
	mixes := workload.EightCoreMixes()
	n := 1 + int(apps)%8
	var mix workload.Mix
	if pick := int(source) % (len(benches) + len(mixes)); pick < len(benches) {
		mix = workload.Mix{Name: benches[pick].Name}
		for i := 0; i < n; i++ {
			mix.Apps = append(mix.Apps, workload.SynthSource(benches[pick]))
		}
	} else {
		mix = mixes[pick-len(benches)]
		mix.Apps = mix.Apps[:n]
	}
	if bubbles > 0 {
		for i := range mix.Apps {
			mix.Apps[i].Synth.Bubbles = int(bubbles) - 1
		}
	}
	cfg := DefaultConfig(Presets()[int(preset)%len(Presets())], mix)
	cfg.Channels = 1 << (chanLog % 4)
	cfg.CPUPerBus = 1 + int64(cpb)%5
	cfg.Seed = seed
	cfg.ImmediateReloc = immediate
	cfg.TargetInsts = 1_000 + int64(insts)%3_001
	return cfg
}

// FuzzEngineEquivalence extends the engine equivalence contract from
// TestEngineEquivalence's hand-picked cases to random small
// configurations (see fuzzConfig). For each one, the dense and skip
// engines must return identical Results and identical stall and
// write-drain counters; a skip run paused at a fuzz-chosen retired count
// K, snapshotted and restored into a fresh System must finish with the
// same Result; and the skip run's DRAM command traces must pass the
// JEDEC validator with no constraint exempt. A failure is an engine bug,
// not a target to loosen: commit the crasher under testdata/fuzz/ and
// fix the engine.
func FuzzEngineEquivalence(f *testing.F) {
	// Seeds, as (preset, channels, cores, workload, CPUPerBus, seed,
	// ImmediateReloc, insts, cut, Bubbles), Bubbles "spec" for b = 0:
	// FIGCache-Fast, 1, 1, mcf, 4, 1, no, 4000, 1/3, spec;
	// FIGCache-Fast, 4, 8, mix-100-4, 4, 2, no, 2000, 1/2, spec;
	// LISA-VILLA, 8, 8, mix-25-0, 4, 3, yes, 1000, 1/6, spec;
	// Base, 2, 2, bwaves, 2, 4, no, 3000, 4/5, spec;
	// FIGCache-Ideal, 1, 2, lbm, 2, 5, yes, 2500, 1/25, spec;
	// FIGCache-Slow, 4, 4, mix-75-1, 5, 6, no, 2000, 1/2, spec;
	// LL-DRAM, 8, 1, libquantum, 1, 7, no, 1000, 3/4, spec;
	// FIGCache-Fast, 4, 8, mix-25-0, 4, 8, no, 2000, 1/2, 4 (one-cycle batches);
	// Base, 1, 2, sjeng, 4, 9, no, 4000, 1/3, 200 (long all-done runs).
	f.Add(uint8(3), uint8(0), uint8(0), uint8(2), uint8(3), uint64(1), false, uint16(3000), uint8(85), uint8(0))
	f.Add(uint8(3), uint8(2), uint8(7), uint8(39), uint8(3), uint64(2), false, uint16(1000), uint8(128), uint8(0))
	f.Add(uint8(1), uint8(3), uint8(7), uint8(20), uint8(3), uint64(3), true, uint16(0), uint8(40), uint8(0))
	f.Add(uint8(0), uint8(1), uint8(1), uint8(5), uint8(1), uint64(4), false, uint16(2000), uint8(200), uint8(0))
	f.Add(uint8(4), uint8(0), uint8(1), uint8(6), uint8(1), uint64(5), true, uint16(1500), uint8(10), uint8(0))
	f.Add(uint8(2), uint8(2), uint8(3), uint8(31), uint8(4), uint64(6), false, uint16(1000), uint8(128), uint8(0))
	f.Add(uint8(5), uint8(3), uint8(0), uint8(4), uint8(0), uint64(7), false, uint16(0), uint8(192), uint8(0))
	f.Add(uint8(3), uint8(2), uint8(7), uint8(20), uint8(3), uint64(8), false, uint16(1000), uint8(128), uint8(5))
	f.Add(uint8(0), uint8(0), uint8(1), uint8(17), uint8(3), uint64(9), false, uint16(3000), uint8(85), uint8(201))
	f.Fuzz(func(t *testing.T, preset, chanLog, apps, source, cpb uint8, seed uint64, immediate bool, insts uint16, cut, bubbles uint8) {
		cfg := fuzzConfig(preset, chanLog, apps, source, cpb, seed, immediate, insts, bubbles)
		if _, err := New(cfg); err != nil {
			// A shape sim.New rejects: a footprint larger than its window,
			// or a core count that gives the LLC a non-power-of-two set
			// count.
			return
		}
		run := func(dense bool) (*System, Result) {
			c := cfg
			c.DenseLoop = dense
			s, err := New(c)
			if err != nil {
				t.Fatal(err)
			}
			for _, ch := range s.channels {
				ch.TraceOn = !dense
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			return s, res
		}
		d, dense := run(true)
		k, skip := run(false)
		if !reflect.DeepEqual(dense, skip) {
			t.Fatalf("%+v: engines diverge:\n dense: %+v\n  skip: %+v", cfg, dense, skip)
		}
		compareCounters(t, d, k)
		checkJEDEC(t, k)

		at := 1 + cfg.TargetInsts*int64(len(cfg.Mix.Apps))*int64(cut)/256
		paused, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		paused.RunUntilRetired(at)
		var buf bytes.Buffer
		if err := paused.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Restore(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := fresh.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(restored, skip) {
			t.Fatalf("%+v: checkpoint at %d retired + restore diverges:\n want: %+v\n  got: %+v", cfg, at, skip, restored)
		}
	})
}
