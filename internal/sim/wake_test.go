package sim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/workload"
)

// wakeRef is the brute-force reference for the tournament tree: every
// query answered by a full scan of the leaf values.
type wakeRef struct{ wake []int64 }

func (r *wakeRef) min() int64 {
	best := int64(math.MaxInt64)
	for _, v := range r.wake {
		if v < best {
			best = v
		}
	}
	return best
}

func (r *wakeRef) minExcept(i int) int64 {
	best := int64(math.MaxInt64)
	for j, v := range r.wake {
		if j != i && v < best {
			best = v
		}
	}
	return best
}

func (r *wakeRef) due(at int64) []int32 {
	var out []int32
	for i, v := range r.wake {
		if v <= at {
			out = append(out, int32(i))
		}
	}
	return out
}

func checkWake(t *testing.T, w *busWake, ref *wakeRef, at int64, ctx string) {
	t.Helper()
	if got, want := w.min(), ref.min(); got != want {
		t.Errorf("%s: min() = %d, want %d", ctx, got, want)
	}
	for i := range ref.wake {
		if got, want := w.minExcept(i), ref.minExcept(i); got != want {
			// A degenerate single-leaf tree has no siblings: minExcept
			// reports +inf, which is also what the reference computes.
			t.Errorf("%s: minExcept(%d) = %d, want %d", ctx, i, got, want)
		}
	}
	got := w.appendDue(at, nil)
	want := ref.due(at)
	if len(got) != len(want) {
		t.Fatalf("%s: appendDue(%d) = %v, want %v", ctx, at, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: appendDue(%d) = %v, want %v (order must be ascending ID)", ctx, at, got, want)
		}
	}
}

// TestBusWakeTree drives the tournament tree through every structural
// regime — single leaf (degenerate, no internal nodes), power-of-two,
// and padded non-power-of-two leaf counts — and checks min, minExcept,
// and appendDue against the brute-force scan after each point update.
// The update stream covers the edge cases the run loop produces: wakes
// in the past, wakes exactly at the probe cycle, all-idle (+inf)
// states, and ties that must resolve to the lower controller ID.
func TestBusWakeTree(t *testing.T) {
	const idle = int64(math.MaxInt64)
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9} {
		wake := make([]int64, n)
		var w busWake
		w.init(wake)
		ref := &wakeRef{wake: wake}
		checkWake(t, &w, ref, 0, "fresh")

		// Deterministic pseudo-random update stream (splitmix-style; no
		// global PRNG so runs are reproducible).
		x := uint64(n)*0x9e3779b97f4a7c15 + 1
		next := func() uint64 {
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			return z ^ (z >> 31)
		}
		for step := 0; step < 200; step++ {
			i := int(next() % uint64(n))
			var v int64
			switch next() % 5 {
			case 0:
				v = idle // controller goes idle
			case 1:
				v = 100 // tie with any other leaf set to 100
			case 2:
				v = int64(next() % 50) // wake in the past of at=100
			default:
				v = int64(next() % 400)
			}
			w.set(i, v)
			checkWake(t, &w, ref, 100, "after set")
		}

		// All idle: min is +inf and nothing is due.
		for i := 0; i < n; i++ {
			w.set(i, idle)
		}
		checkWake(t, &w, ref, 1<<60, "all idle")
		if w.min() != idle {
			t.Errorf("n=%d: all-idle min = %d, want MaxInt64", n, w.min())
		}
		if due := w.appendDue(1<<60, nil); len(due) != 0 {
			t.Errorf("n=%d: all-idle appendDue = %v, want empty", n, due)
		}

		// Global tie: every leaf equal. min must resolve to leaf 0 (the
		// lower controller ID) — verified through minExcept(0) seeing the
		// same value from another leaf — and appendDue must list every
		// controller in ascending ID order.
		for i := 0; i < n; i++ {
			w.set(i, 7)
		}
		checkWake(t, &w, ref, 7, "global tie")
		due := w.appendDue(7, nil)
		if len(due) != n {
			t.Fatalf("n=%d: tie appendDue returned %d ids, want %d", n, len(due), n)
		}
		for i, id := range due {
			if int(id) != i {
				t.Errorf("n=%d: tie appendDue[%d] = %d, want %d", n, i, id, i)
			}
		}

		// Wake exactly at the probe cycle is due; one past it is not.
		w.set(n-1, 7)
		if due := w.appendDue(6, nil); len(due) != 0 {
			t.Errorf("n=%d: appendDue(6) with wakes at 7 = %v, want empty", n, due)
		}

		// Reusing the due scratch must not retain stale entries.
		scratch := make([]int32, 4, 8)
		got := w.appendDue(7, scratch[:0])
		if len(got) != n {
			t.Errorf("n=%d: appendDue into reused scratch returned %d ids, want %d", n, len(got), n)
		}
	}
}

// TestBusWakeRebuild checks init-over-existing-state: bulk leaf
// rewrites followed by rebuild (the Reset/Restore path) must yield the
// same answers as incremental sets.
func TestBusWakeRebuild(t *testing.T) {
	wake := []int64{40, 10, 30, 20, 50}
	var w busWake
	w.init(wake)
	ref := &wakeRef{wake: wake}
	checkWake(t, &w, ref, 25, "initial build")

	// Bulk rewrite behind the tree's back, then rebuild — what Restore
	// does after decoding the leaf values.
	copy(wake, []int64{5, 5, math.MaxInt64, 1, 2})
	w.rebuild()
	checkWake(t, &w, ref, 5, "after rebuild")
	if w.min() != 1 {
		t.Errorf("min after rebuild = %d, want 1", w.min())
	}
}

// TestNextBusWork pins the System-level wake bookkeeping edge cases
// directly, independent of the equivalence suite: a controller
// reporting its next work in the past, all controllers idle, and a
// wake landing exactly on the current bus boundary.
func TestNextBusWork(t *testing.T) {
	cfg := DefaultConfig(Base, smallMix(t, "mcf"))
	cfg.Channels = 4
	cfg.TargetInsts = 1 << 40
	cfg.MaxCycles = 1 << 62
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cpb := cfg.CPUPerBus
	if cpb <= 0 {
		cpb = 1
	}
	if len(s.ctrls) != 4 {
		t.Fatalf("got %d controllers, want 4", len(s.ctrls))
	}
	// The wake slices are lazily built on the first engine step; this
	// test drives the bookkeeping directly, so build them here the same
	// way runSkipping does.
	s.ctrlWake = make([]int64, len(s.ctrls))
	s.coreBatch = make([]int64, len(s.cores))
	s.wake.init(s.ctrlWake)

	// All idle: nextBusWork reports "never" without overflowing the
	// bus-to-CPU conversion.
	for i := range s.ctrls {
		s.wake.set(i, math.MaxInt64)
	}
	s.adapter.pending = s.adapter.pending[:0]
	if got := s.nextBusWork(cpb); got != maxInt64 {
		t.Errorf("all-idle nextBusWork = %d, want MaxInt64", got)
	}

	// One controller due in the past (bus cycle 3 while the clock is far
	// ahead): the probe must surface it, converted to CPU cycles, not
	// clamp it to the present.
	s.wake.set(2, 3)
	if got, want := s.nextBusWork(cpb), 3*cpb; got != want {
		t.Errorf("past-wake nextBusWork = %d, want %d", got, want)
	}
	if due := s.wake.appendDue(10, nil); len(due) != 1 || due[0] != 2 {
		t.Errorf("past wake appendDue = %v, want [2]", due)
	}

	// A wake exactly at the current bus boundary is due now.
	s.wake.set(2, 10)
	if due := s.wake.appendDue(10, nil); len(due) != 1 || due[0] != 2 {
		t.Errorf("exact-boundary appendDue = %v, want [2]", due)
	}

	// Buffered requests bound the probe by the very next bus boundary
	// even when every controller reports idle: the adapter must retry
	// entering the full queue.
	for i := range s.ctrls {
		s.wake.set(i, math.MaxInt64)
	}
	s.clock = 7 * cpb
	s.adapter.pending = append(s.adapter.pending[:0], pendingReq{})
	if got, want := s.nextBusWork(cpb), (s.clock/cpb+1)*cpb; got != want {
		t.Errorf("pending-bound nextBusWork = %d, want %d", got, want)
	}
	// A due controller earlier than the retry boundary wins.
	s.wake.set(1, s.clock/cpb)
	if got, want := s.nextBusWork(cpb), s.clock; got != want {
		t.Errorf("due-before-retry nextBusWork = %d, want %d", got, want)
	}
	s.adapter.pending = s.adapter.pending[:0]
}

// cacheResidentMix returns a workload whose footprint fits in the LLC:
// after warm-up the memory system sees essentially no demand traffic,
// so controller wakes are refresh-only and the wake tree spends long
// stretches fully idle. This is the regime wake coalescing must get
// right: a controller's next-work probe is driven by tREFI alone.
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
// cycles far apart so single-controller TickSpan micro-engine runs and
// dense-order interleavings must hand off bit-identically.
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
	// apart; the tree must keep them ordered across spans.
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
