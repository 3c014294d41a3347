package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ev"
	"repro/internal/fgss"
	"repro/internal/workload"
)

// fuzzConfig decodes fuzz inputs into a small valid run configuration:
// one of the six presets; 1, 2, 4 or 8 channels; 1-8 cores running
// either copies of one Table 2 benchmark or a prefix of one of the
// eight-core mixes; and 1k-4k instructions per core. A nonzero bubbles
// b sets every app's Bubbles to b-1, and zero keeps each spec's own.
// Against the issue width of 3, Bubbles of 0-2 give no batch, 3-5
// one-cycle batches at the Bubbles/cpu.Width edge, and large values
// long all-done runs.
//
// Under the three FIGCache presets a nonzero fig draws a FIGCache
// override, the space of Section 9's sensitivity studies: segments of
// 8-128 blocks; 32-512 cache rows per bank in steps of 32, which gives
// FIGCache-Fast and -Ideal 1-16 fast subarrays (and FIGCache-Slow that
// many rows of its reserved slow subarray); any replacement policy; an
// insertion threshold of 1, 2, 4 or 8; and FIGARO or RowClone-PSM
// relocation. Zero keeps the paper's default.
func fuzzConfig(preset, chanLog, apps, source uint8, seed uint64, immediate bool, insts uint16, bubbles uint8, fig uint16) Config {
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
	cfg.Seed = seed
	cfg.ImmediateReloc = immediate
	cfg.TargetInsts = 1_000 + int64(insts)%3_001
	if fig > 0 && (cfg.Preset == FIGCacheSlow || cfg.Preset == FIGCacheFast || cfg.Preset == FIGCacheIdeal) {
		v := int(fig - 1)
		f := core.DefaultFIGCacheConfig()
		f.SegmentBlocks = 8 << (v % 5)
		v /= 5
		f.CacheRowsPerBank = (1 + v%16) * dram.Default().RowsPerFastSubarray
		v /= 16
		f.Replacement = []core.ReplacementKind{core.ReplRowBenefit, core.ReplSegmentBenefit, core.ReplLRU, core.ReplRandom}[v%4]
		v /= 4
		f.InsertThreshold = 1 << (v % 4)
		if v/4%2 == 1 {
			f.Substrate = core.SubstrateRowClonePSM
		}
		cfg.FIG = &f
	}
	return cfg
}

// FuzzEngineEquivalence extends the engine equivalence contract from
// TestEngineEquivalence's hand-picked cases to random small
// configurations (see fuzzConfig). For each one, the dense and skip
// engines must return identical Results and hold the same state at the
// end of the run; both engines paused by RunUntilRetired at a
// fuzz-chosen retired count K must stop on the same cycle in the same
// state (compareEngineState); the skip run paused there, snapshotted
// and restored into a fresh System must finish with the same Result;
// and the skip run's DRAM command traces must pass the JEDEC validator
// with no constraint exempt. A run must reach its target: the one stop
// on the MaxCycles safety net accepted is a relocation-bound one
// (relocationBound), on which every run must stop alike. A failure is
// an engine bug, not a target to loosen: commit the crasher under
// testdata/fuzz/ and fix the engine.
func FuzzEngineEquivalence(f *testing.F) {
	// Seeds, as (preset, channels, cores, workload, seed, ImmediateReloc,
	// insts, cut, Bubbles, FIGCache override), Bubbles "spec" for b = 0
	// and override "-" for fig = 0:
	// FIGCache-Fast, 1, 1, mcf, 1, no, 4000, 1/3, spec, -;
	// FIGCache-Fast, 4, 8, mix-100-4, 2, no, 2000, 1/2, spec, -;
	// LISA-VILLA, 8, 8, mix-25-0, 3, yes, 1000, 1/6, spec, -;
	// Base, 2, 2, bwaves, 4, no, 3000, 4/5, spec, -;
	// FIGCache-Ideal, 1, 2, lbm, 5, yes, 2500, 1/25, spec, -;
	// FIGCache-Slow, 4, 4, mix-75-1, 6, no, 2000, 1/2, spec, -;
	// LL-DRAM, 8, 1, libquantum, 7, no, 1000, 3/4, spec, -;
	// FIGCache-Fast, 4, 8, mix-25-0, 8, no, 2000, 1/2, 4 (one-cycle batches), -;
	// Base, 1, 2, sjeng, 9, no, 4000, 1/3, 200 (long all-done runs), -;
	// FIGCache-Fast, 1, 1, mcf, 10, no, 4000, 1/3, spec,
	//   32-block segments, 32 cache rows, LRU, threshold 2, FIGARO;
	// FIGCache-Slow, 2, 2, lbm, 11, no, 3000, 1/2, spec,
	//   128-block segments, 512 reserved rows, Random, threshold 1, RowClone-PSM;
	// FIGCache-Ideal, 4, 4, mix-100-4, 12, yes, 2000, 1/2, spec,
	//   8-block segments, 128 cache rows, SegmentBenefit, threshold 8, RowClone-PSM.
	f.Add(uint8(3), uint8(0), uint8(0), uint8(2), uint64(1), false, uint16(3000), uint8(85), uint8(0), uint16(0))
	f.Add(uint8(3), uint8(2), uint8(7), uint8(39), uint64(2), false, uint16(1000), uint8(128), uint8(0), uint16(0))
	f.Add(uint8(1), uint8(3), uint8(7), uint8(20), uint64(3), true, uint16(0), uint8(40), uint8(0), uint16(0))
	f.Add(uint8(0), uint8(1), uint8(1), uint8(5), uint64(4), false, uint16(2000), uint8(200), uint8(0), uint16(0))
	f.Add(uint8(4), uint8(0), uint8(1), uint8(6), uint64(5), true, uint16(1500), uint8(10), uint8(0), uint16(0))
	f.Add(uint8(2), uint8(2), uint8(3), uint8(31), uint64(6), false, uint16(1000), uint8(128), uint8(0), uint16(0))
	f.Add(uint8(5), uint8(3), uint8(0), uint8(4), uint64(7), false, uint16(0), uint8(192), uint8(0), uint16(0))
	f.Add(uint8(3), uint8(2), uint8(7), uint8(20), uint64(8), false, uint16(1000), uint8(128), uint8(5), uint16(0))
	f.Add(uint8(0), uint8(0), uint8(1), uint8(17), uint64(9), false, uint16(3000), uint8(85), uint8(201), uint16(0))
	f.Add(uint8(3), uint8(0), uint8(0), uint8(2), uint64(10), false, uint16(3000), uint8(85), uint8(0), uint16(483))
	f.Add(uint8(2), uint8(1), uint8(1), uint8(6), uint64(11), false, uint16(2000), uint8(128), uint8(0), uint16(1600))
	f.Add(uint8(4), uint8(2), uint8(3), uint8(39), uint64(12), true, uint16(1000), uint8(128), uint8(0), uint16(2336))
	f.Fuzz(func(t *testing.T, preset, chanLog, apps, source uint8, seed uint64, immediate bool, insts uint16, cut, bubbles uint8, fig uint16) {
		cfg := fuzzConfig(preset, chanLog, apps, source, seed, immediate, insts, bubbles, fig)
		if _, err := New(cfg); err != nil {
			// A shape sim.New rejects: a footprint larger than its window,
			// or a core count that gives the LLC a non-power-of-two set
			// count.
			return
		}
		// A run that stops on the MaxCycles safety net fails the target,
		// with one exception: nothing throttles insertion relocations
		// against demand traffic, so with RowClone-PSM moving a whole row
		// on every miss of eight cores a channel can spend nearly every
		// bus cycle relocating and leave the cores short of their target.
		// A stop is accepted only when some channel's relocation work
		// covers most of the run's bus cycles (relocationBound), and then
		// the engines, and the restored run, must stop on it alike: the
		// same error and state. A stall with idle channels — a lost
		// request, a starved queue, a deadlock — still fails.
		stopped := func(s *System, err error) string {
			if err == nil {
				return ""
			}
			if !relocationBound(s) {
				t.Fatalf("%+v: %v, and no channel spent most of its %d bus cycles relocating", cfg, err, s.clock/cpuPerBus)
			}
			return err.Error()
		}
		run := func(dense bool) (*System, Result, string) {
			s := newSystem(t, cfg, dense)
			for _, ch := range s.channels {
				ch.TraceOn = !dense
			}
			res, err := s.Run()
			return s, res, stopped(s, err)
		}
		d, dense, dErr := run(true)
		k, skip, kErr := run(false)
		if dErr != kErr || !reflect.DeepEqual(dense, skip) {
			t.Fatalf("%+v: engines diverge:\n dense: %+v (error %s)\n  skip: %+v (error %s)", cfg, dense, dErr, skip, kErr)
		}
		compareEngineState(t, "end of run", d, k)
		checkJEDEC(t, k)

		at := 1 + cfg.TargetInsts*int64(len(cfg.Mix.Apps))*int64(cut)/256
		paused := map[bool]*System{}
		for _, dense := range []bool{true, false} {
			s := newSystem(t, cfg, dense)
			s.RunUntilRetired(at)
			paused[dense] = s
		}
		compareEngineState(t, fmt.Sprintf("RunUntilRetired(%d)", at), paused[true], paused[false])
		var buf bytes.Buffer
		if err := paused[false].Snapshot(&buf); err != nil {
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
		if rErr := stopped(fresh, err); rErr != kErr || !reflect.DeepEqual(restored, skip) {
			t.Fatalf("%+v: checkpoint at %d retired + restore diverges:\n want: %+v (error %s)\n  got: %+v (error %s)", cfg, at, skip, kErr, restored, rErr)
		}
	})
}

// relocationBound reports whether some channel of s has spent more
// than half of the bus cycles elapsed so far on relocation work.
func relocationBound(s *System) bool {
	bus := s.clock / cpuPerBus
	for _, ch := range s.channels {
		if 2*ch.RelocBusy > bus {
			return true
		}
	}
	return false
}

// FuzzRestore feeds System.Restore snapshot bodies — everything after
// the header, which is rebuilt for the configuration the input selects
// — mutated from real snapshots. Restore must not panic, and a snapshot
// it accepts must be the one Snapshot writes for the state it restored:
// re-encoded, it gives back its own bytes. So a field, count, order or
// encoding that Snapshot never writes must be refused, not read as
// something else. The accepted state then runs on for 4,096 cycles,
// and a fresh System must restore the snapshot taken there: an input
// that restores cleanly into a state the run turns into one restore
// refuses (say, a queued insertion of a segment already cached, which
// the flush would install in a second slot) fails the target.
func FuzzRestore(f *testing.F) {
	// The seeds, each cut at the given retired count: FIGCache-Fast and
	// Base on mcf, LISA-VILLA on warmMix's hotter mcf (plain mcf makes
	// one LISA-VILLA insertion in its first 80k instructions, this one 55
	// in 10k), and FIGCache-Fast on two cores of a 50%-intensive mix.
	two := eightCoreMix(f, 50)
	two.Apps = two.Apps[:2]
	seeds := []struct {
		cfg Config
		cut int64
	}{
		{DefaultConfig(FIGCacheFast, smallMix(f, "mcf")), 3_000},
		{DefaultConfig(LISAVilla, warmMix(f)), 10_000},
		{DefaultConfig(Base, smallMix(f, "mcf")), 3_000},
		{DefaultConfig(FIGCacheFast, two), 4_000},
	}
	headers := make([][]byte, len(seeds))
	for i, sd := range seeds {
		_, snap := snapshotAt(f, sd.cfg, sd.cut)
		headers[i] = snap[:fgss.HeaderSize]
		f.Add(uint8(i), snap[fgss.HeaderSize:])
	}
	// Two more seeds, for the FIGCache-Fast and LISA-VILLA configs above,
	// are fresh Systems whose bank 0 caches segment 0 of rows 1000, 1002,
	// 1004 and 1006 (LISA-VILLA: the rows), as
	// TestRestoreRejectsUnrunnablePlans sets them up, and queues an
	// insertion next to each: its segment 1 (LISA-VILLA: the next row).
	// One byte of a queued location then names a cached segment or row,
	// which Restore must refuse; the cut snapshots' queued insertions lie
	// nowhere near a cached one.
	for i, next := range []func(row int) dram.Location{
		func(row int) dram.Location { return dram.Location{Row: row, Block: 16} },
		func(row int) dram.Location { return dram.Location{Row: row + 1} },
	} {
		s, err := New(seeds[i].cfg)
		if err != nil {
			f.Fatal(err)
		}
		h := s.hooks[0]
		for row := 1000; row < 1008; row += 2 {
			if !h.Insert(dram.Location{Row: row}) {
				f.Fatalf("%s: a fresh hook refused to cache row %d", seeds[i].cfg.Describe(), row)
			}
		}
		h.Flush(s.channels[0], 0)
		for row := 1000; row < 1008; row += 2 {
			if !h.Insert(next(row)) {
				f.Fatalf("%s: the hook refused to queue %v", seeds[i].cfg.Describe(), next(row))
			}
		}
		var snap bytes.Buffer
		if err := s.Snapshot(&snap); err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), snap.Bytes()[fgss.HeaderSize:])
	}
	// One more, for the LISA-VILLA config, holds a request of every
	// record shape (see requestRecords), so a mutation reaches each.
	s, err := New(seeds[1].cfg)
	if err != nil {
		f.Fatal(err)
	}
	requestRecords(f, s)
	var snap bytes.Buffer
	if err := s.Snapshot(&snap); err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(1), snap.Bytes()[fgss.HeaderSize:])
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		i := int(which) % len(seeds)
		s, err := New(seeds[i].cfg)
		if err != nil {
			t.Fatal(err)
		}
		in := append(bytes.Clone(headers[i]), body...)
		if s.Restore(bytes.NewReader(in)) != nil {
			return
		}
		var out bytes.Buffer
		if err := s.Snapshot(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), in) {
			t.Fatalf("%s: restore accepted a snapshot Snapshot does not write: %d bytes in, %d re-encoded, first difference at byte %d",
				seeds[i].cfg.Describe(), len(in), out.Len(), firstDiff(in, out.Bytes()))
		}
		s.RunSlice(4096)
		out.Reset()
		if err := s.Snapshot(&out); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(seeds[i].cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Restore(&out); err != nil {
			t.Fatalf("%s: a restored snapshot ran 4096 cycles into a state restore refuses: %v", seeds[i].cfg.Describe(), err)
		}
	})
}

// requestRecords puts a request of every record shape into the memory
// path of s, a fresh LISA-VILLA System, through the protocol a run
// follows: queued reads of each hook decision (a hit on a cached row, a
// row's first miss, whose insertion the hook declines, and its second,
// which it inserts), queued writes, one of them a hit, and a read and a
// write the adapter buffers. Each read is the fetch of an LLC miss,
// started once the LLC's latency has passed.
func requestRecords(tb testing.TB, s *System) {
	tb.Helper()
	h, ch := s.hooks[0], s.ctrls[0].ID
	if !h.Insert(dram.Location{Row: 1000}) {
		tb.Fatal("a fresh hook refused to cache row 1000")
	}
	h.Flush(s.channels[0], 0)
	at := func(row, block int) uint64 { return s.mapper.Encode(ch, dram.Location{Row: row, Block: block}) }
	fetch := func(addrs ...uint64) {
		for _, a := range addrs {
			if !s.hier.LLC.Access(a, false, ev.Token{}) {
				tb.Fatal("the LLC refused an access")
			}
		}
		s.events.fireDue(s.hier.LLC.Config().Latency, s)
	}
	fetch(at(1000, 3), at(2000, 0), at(2000, 1))
	s.adapter.Request(at(1000, 5), true, ev.Token{})
	s.adapter.Request(at(4000, 0), true, ev.Token{})
	s.adapter.drain(0)
	fetch(at(3000, 0))
	s.adapter.Request(at(5000, 0), true, ev.Token{})
	if c := s.ctrls[0]; c.PendingReads() != 3 || c.PendingWrites() != 2 || c.CacheHits != 2 || len(s.adapter.pending) != 2 {
		tb.Fatalf("%d reads and %d writes queued, %d hits, %d requests buffered; want 3, 2, 2 and 2",
			c.PendingReads(), c.PendingWrites(), c.CacheHits, len(s.adapter.pending))
	}
}

// firstDiff returns the index of the first byte where a and b differ,
// or the shorter length if one is a prefix of the other.
func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}
