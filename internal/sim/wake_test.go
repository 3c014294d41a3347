package sim

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/workload"
)

// TestNextBusWork pins the System-level wake bookkeeping edge cases
// directly, independent of the equivalence suite: a controller
// reporting its next work in the past, all controllers idle, a wake
// landing exactly on the current bus boundary, and buffered requests
// that must retry at the next boundary.
func TestNextBusWork(t *testing.T) {
	cfg := DefaultConfig(Base, smallMix(t, "mcf"))
	cfg.Channels = 4
	cfg.TargetInsts = 1 << 40
	cfg.MaxCycles = 1 << 62
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.ctrls) != 4 || len(s.ctrlWake) != 4 {
		t.Fatalf("got %d controllers and %d wake registers, want 4 of each", len(s.ctrls), len(s.ctrlWake))
	}
	idle := func() {
		for i := range s.ctrlWake {
			s.ctrlWake[i] = math.MaxInt64
		}
	}

	// All idle: nextBusWork reports "never" without overflowing the
	// bus-to-CPU conversion.
	idle()
	s.adapter.pending = s.adapter.pending[:0]
	if got := s.nextBusWork(); got != maxInt64 {
		t.Errorf("all-idle nextBusWork = %d, want MaxInt64", got)
	}

	// One controller due in the past (bus cycle 3 while the clock is far
	// ahead): the probe must surface it, converted to CPU cycles, not
	// clamp it to the present.
	s.clock = 10 * cpuPerBus
	s.ctrlWake[2] = 3
	if got, want := s.nextBusWork(), 3*cpuPerBus; got != want {
		t.Errorf("past-wake nextBusWork = %d, want %d", got, want)
	}

	// A wake exactly at the current bus boundary is due now; the earliest
	// of several wakes wins whichever controller holds it.
	s.ctrlWake[2] = 10
	s.ctrlWake[3] = 12
	if got, want := s.nextBusWork(), s.clock; got != want {
		t.Errorf("exact-boundary nextBusWork = %d, want %d", got, want)
	}

	// Buffered requests bound the probe by the very next bus boundary
	// even when every controller reports idle: the adapter must retry
	// entering the full queue.
	idle()
	s.clock = 7 * cpuPerBus
	s.adapter.pending = append(s.adapter.pending[:0], pendingReq{})
	if got, want := s.nextBusWork(), (s.clock/cpuPerBus+1)*cpuPerBus; got != want {
		t.Errorf("pending-bound nextBusWork = %d, want %d", got, want)
	}
	// A due controller earlier than the retry boundary wins.
	s.ctrlWake[1] = s.clock / cpuPerBus
	if got, want := s.nextBusWork(), s.clock; got != want {
		t.Errorf("due-before-retry nextBusWork = %d, want %d", got, want)
	}
	s.adapter.pending = s.adapter.pending[:0]
}

// cacheResidentMix returns a workload whose footprint fits in the LLC:
// after warm-up the memory system sees essentially no demand traffic,
// so controller wakes are refresh-only and every controller spends long
// stretches idle. This is the regime wake coalescing must get right: a
// controller's next-work probe is driven by tREFI alone.
func cacheResidentMix(t *testing.T) workload.Mix {
	t.Helper()
	spec, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	spec.Bubbles = 2
	spec.HotSegments = 64 // ~4 kB of hot blocks: L1-resident
	spec.HotFraction = 1.0
	return workload.Mix{Name: "cache-resident", Apps: workload.Sources(spec)}
}

// TestEngineEquivalenceCoalescedWakes extends the equivalence contract
// with configurations that stress the coalesced wake path specifically:
// long-idle channels whose only wakes are refresh, and multi-controller
// runs where per-channel traffic skew keeps the controllers' wake
// cycles far apart, so the memory-only loop ticks one controller for
// long stretches and must hand off to dense-order interleavings
// bit-identically.
func TestEngineEquivalenceCoalescedWakes(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		insts int64
	}{
		// Refresh-only wakes: the footprint is cache-resident, so after
		// warm-up every controller wake is a refresh edge.
		{name: "Base/refresh-only", cfg: DefaultConfig(Base, cacheResidentMix(t)), insts: 60_000},
		// Same regime with an active in-DRAM cache hook underneath.
		{name: "FIGCache-Fast/refresh-only", cfg: DefaultConfig(FIGCacheFast, cacheResidentMix(t)), insts: 60_000},
	}
	// Multi-controller skew: a single core striding over 4 channels
	// leaves most controllers idle most of the time, with wakes far
	// apart; they must still tick in ID order when they coincide.
	skew := DefaultConfig(Base, smallMix(t, "mcf"))
	skew.Channels = 4
	cases = append(cases, struct {
		name  string
		cfg   Config
		insts int64
	}{name: "Base/4ch-skew", cfg: skew, insts: 30_000})
	skewFig := DefaultConfig(FIGCacheFast, warmMix(t))
	skewFig.Channels = 2
	cases = append(cases, struct {
		name  string
		cfg   Config
		insts int64
	}{name: "FIGCache-Fast/2ch-skew", cfg: skewFig, insts: 40_000})

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
		})
	}
}

// TestAwakeSetOneWord checks the skip engine's core sets on a System of
// 64 cores, the most Config.normalize accepts: every bit of the all
// mask is set, and after random cores go to sleep, a walk of the awake
// set and of its complement visits each core once, in ID order; and
// coreNext, kept incrementally as cores sleep, equals a fresh scan of
// the sleeping cores' wake cycles.
func TestAwakeSetOneWord(t *testing.T) {
	const n = 64
	spec, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	spec.FootprintBytes = 64 << 20 // fits a 64th of the address space
	specs := make([]workload.BenchSpec, n)
	for i := range specs {
		specs[i] = spec
	}
	cfg := DefaultConfig(Base, workload.Mix{Name: "mcf-64", Apps: workload.Sources(specs...)})
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.all != math.MaxUint64 {
		t.Fatalf("all = %#x, want every bit of the word", s.all)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		s.wakeAll()
		for i := range s.parkedAt {
			s.parkedAt[i] = -1
		}
		asleep := make(map[int]bool)
		want := int64(maxInt64)
		for _, i := range rng.Perm(n)[:rng.Intn(n+1)] {
			wake := int64(maxInt64) // blocked
			if rng.Intn(2) == 0 {
				wake = 100 + rng.Int63n(1000)
				want = min(want, wake)
			}
			s.sleep(i, wake)
			asleep[i] = true
		}
		var awakeIDs, asleepIDs []int
		for word := s.awake; word != 0; word &= word - 1 {
			awakeIDs = append(awakeIDs, bits.TrailingZeros64(word))
		}
		for word := s.all &^ s.awake; word != 0; word &= word - 1 {
			asleepIDs = append(asleepIDs, bits.TrailingZeros64(word))
		}
		var wantAwake, wantAsleep []int
		for i := 0; i < n; i++ {
			if asleep[i] {
				wantAsleep = append(wantAsleep, i)
			} else {
				wantAwake = append(wantAwake, i)
			}
		}
		if !slices.Equal(awakeIDs, wantAwake) || !slices.Equal(asleepIDs, wantAsleep) {
			t.Fatalf("trial %d: awake walk %v, asleep walk %v; want %v and %v", trial, awakeIDs, asleepIDs, wantAwake, wantAsleep)
		}
		if s.coreNext != want || s.earliestWake() != want {
			t.Fatalf("trial %d: coreNext %d, earliestWake %d, want %d", trial, s.coreNext, s.earliestWake(), want)
		}
	}
}

// TestNewRefusesPastOneWord checks that New refuses a mix of more cores
// than the skip engine's one-word core sets hold, with an error naming
// the bound, before it allocates anything: no more than normalize's
// error. A 128-core System would also need a 256 MB LLC (2 MB per core
// with a power-of-two set count), and its dense run of 300 instructions
// per core did not finish in ten minutes.
func TestNewRefusesPastOneWord(t *testing.T) {
	spec, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]workload.BenchSpec, 128)
	for i := range specs {
		specs[i] = spec
	}
	cfg := DefaultConfig(Base, workload.Mix{Name: "mcf-128", Apps: workload.Sources(specs...)})
	const want = `sim: mix "mcf-128" has 128 applications, above the 64-core bound`
	if _, err := New(cfg); err == nil || err.Error() != want {
		t.Fatalf("New error = %v, want %q", err, want)
	}
	newAllocs := testing.AllocsPerRun(10, func() { New(cfg) })
	errAllocs := testing.AllocsPerRun(10, func() {
		c := cfg
		c.normalize()
	})
	if newAllocs > errAllocs {
		t.Errorf("refusing New made %v allocations, want at most normalize's %v", newAllocs, errAllocs)
	}
}
