package cpu

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/ev"
	"repro/internal/fgss"
)

// sched is a minimal event scheduler and token dispatcher shared by the
// test fixtures: MSHR tokens route to the single L1 under test, core-slot
// tokens to the single core. As the L1's scheduler it defers tokens by
// the L1's lookup latency.
type sched struct {
	now       int64
	events    []tokEvent
	l1        *cache.Cache
	core      *Core
	completed int // CoreSlot tokens dispatched
}

type tokEvent struct {
	at  int64
	tok ev.Token
}

// after defers tok by delay cycles.
func (s *sched) after(delay int64, tok ev.Token) {
	s.events = append(s.events, tokEvent{s.now + delay, tok})
}

func (s *sched) After(tok ev.Token) { s.after(s.l1.Config().Latency, tok) }

func (s *sched) Dispatch(tok ev.Token, now int64) {
	switch tok.Kind {
	case ev.CoreSlot:
		s.completed++
		s.core.CompleteSlot(int(tok.Arg))
	case ev.MSHRStart:
		s.l1.StartFetch(tok.Arg)
	case ev.MSHRFill:
		s.l1.Fill(tok.Arg)
	}
}

func (s *sched) fire() {
	for i := 0; i < len(s.events); {
		if s.events[i].at <= s.now {
			tok := s.events[i].tok
			s.events = append(s.events[:i], s.events[i+1:]...)
			s.Dispatch(tok, s.now)
		} else {
			i++
		}
	}
}

// fixedMem completes every fetch after a fixed delay.
type fixedMem struct {
	s       *sched
	latency int64
	reqs    int
}

func (m *fixedMem) Request(addr uint64, isWrite bool, coreID int, onDone ev.Token) {
	m.reqs++
	if onDone.IsZero() {
		return
	}
	m.s.after(m.latency, onDone)
}

// sliceTrace replays a fixed set of records, looping forever.
type sliceTrace struct {
	recs  []TraceRecord
	pos   int
	loads int // load records handed out
}

func (t *sliceTrace) Next() TraceRecord {
	r := t.recs[t.pos%len(t.recs)]
	t.pos++
	if !r.IsWrite {
		t.loads++
	}
	return r
}

func (t *sliceTrace) Snapshot(w *fgss.Writer) { w.Int(t.pos) }
func (t *sliceTrace) Restore(r *fgss.Reader)  { t.pos = r.Int() }

func newCore(t *testing.T, recs []TraceRecord, memLatency int64, target int64) (*Core, *sched, *fixedMem) {
	t.Helper()
	s := &sched{}
	m := &fixedMem{s: s, latency: memLatency}
	l1, err := cache.New(cache.Config{
		Name: "L1", SizeBytes: 64 << 10, Ways: 4, BlockBytes: 64, Latency: 4, MSHRs: 8,
	}, m, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(0, &sliceTrace{recs: recs}, l1, target)
	if err != nil {
		t.Fatal(err)
	}
	s.l1, s.core = l1, c
	return c, s, m
}

// run ticks the core until it reaches its target or limit cycles pass.
func run(c *Core, s *sched, limit int64) int64 {
	for ; s.now < limit; s.now++ {
		s.fire()
		c.Tick(s.now)
		if c.Done() {
			return s.now
		}
	}
	return limit
}

func TestPureComputeRetiresAtIssueWidth(t *testing.T) {
	// All bubbles: the core should retire ~3 IPC.
	c, s, _ := newCore(t, []TraceRecord{{Bubbles: 1 << 20}}, 10, 3000)
	end := run(c, s, 100000)
	if !c.Done() {
		t.Fatal("core never finished")
	}
	ipc := c.IPC(end)
	if ipc < 2.5 || ipc > 3.0 {
		t.Errorf("compute-bound IPC = %.2f, want ~3", ipc)
	}
}

func TestMemoryLatencyLimitsIPC(t *testing.T) {
	// A dependent-load-like trace: one load per record with few bubbles
	// and distinct addresses so every load misses L1. Higher memory
	// latency must reduce IPC.
	mkTrace := func() []TraceRecord {
		recs := make([]TraceRecord, 4096)
		for i := range recs {
			recs[i] = TraceRecord{Bubbles: 2, Addr: uint64(i) * 64 * 1024}
		}
		return recs
	}
	cFast, sFast, _ := newCore(t, mkTrace(), 20, 3000)
	endFast := run(cFast, sFast, 1000000)
	cSlow, sSlow, _ := newCore(t, mkTrace(), 200, 3000)
	endSlow := run(cSlow, sSlow, 1000000)
	if !cFast.Done() || !cSlow.Done() {
		t.Fatal("cores never finished")
	}
	if cSlow.IPC(endSlow) >= cFast.IPC(endFast) {
		t.Errorf("IPC with 200-cycle memory (%.3f) not lower than with 20-cycle (%.3f)",
			cSlow.IPC(endSlow), cFast.IPC(endFast))
	}
}

func TestWindowToleratesLatencyViaMLP(t *testing.T) {
	// Independent loads (no dependencies in this model) should overlap:
	// with 8 MSHRs the core sustains much better throughput than serial
	// loads would allow.
	recs := make([]TraceRecord, 4096)
	for i := range recs {
		recs[i] = TraceRecord{Bubbles: 30, Addr: uint64(i) * 64 * 1024}
	}
	c, s, _ := newCore(t, recs, 100, 30000)
	end := run(c, s, 3000000)
	if !c.Done() {
		t.Fatal("core never finished")
	}
	// Serial execution would give IPC ~= 31/ (100+30/3) ~ 0.24; MLP should
	// beat 0.5 comfortably.
	if ipc := c.IPC(end); ipc < 0.5 {
		t.Errorf("IPC = %.3f, want > 0.5 with memory-level parallelism", ipc)
	}
}

func TestStoresDoNotBlockRetirement(t *testing.T) {
	// Stores that hit in L1 (small working set) retire immediately and
	// never wait on memory, so IPC stays near the issue width even with a
	// 500-cycle memory latency.
	recs := make([]TraceRecord, 64)
	for i := range recs {
		recs[i] = TraceRecord{Bubbles: 1, Addr: uint64(i%4) * 64, IsWrite: true}
	}
	c, s, _ := newCore(t, recs, 500, 2000)
	end := run(c, s, 500000)
	if !c.Done() {
		t.Fatal("store-heavy core never finished")
	}
	if ipc := c.IPC(end); ipc < 1.5 {
		t.Errorf("store-hit IPC = %.3f, want >= 1.5", ipc)
	}
}

func TestStoreMissesThrottleOnMSHRs(t *testing.T) {
	// Store misses write-allocate and consume MSHRs, so a stream of
	// distinct-address stores is bounded by memory bandwidth — but it must
	// still make forward progress. Stores retire at once, so the core
	// can only block on a store its L1 refuses.
	recs := make([]TraceRecord, 1024)
	for i := range recs {
		recs[i] = TraceRecord{Bubbles: 1, Addr: uint64(i) * 64 * 1024, IsWrite: true}
	}
	c, s, _ := newCore(t, recs, 100, 2000)
	blocked := false
	for ; s.now < 1000000 && !c.Done(); s.now++ {
		s.fire()
		c.Tick(s.now)
		blocked = blocked || c.NextWake(s.now) == math.MaxInt64
	}
	if !c.Done() {
		t.Fatal("store-miss core never finished")
	}
	if !blocked {
		t.Error("expected distinct-address stores to block on full MSHRs")
	}
}

func TestFinishedAtRecordedOnce(t *testing.T) {
	c, s, _ := newCore(t, []TraceRecord{{Bubbles: 100}}, 10, 300)
	run(c, s, 10000)
	first := c.FinishedAt
	if first == 0 {
		t.Fatal("FinishedAt not set")
	}
	// Keep running; FinishedAt must not move.
	for ; s.now < first+500; s.now++ {
		s.fire()
		c.Tick(s.now)
	}
	if c.FinishedAt != first {
		t.Errorf("FinishedAt moved from %d to %d", first, c.FinishedAt)
	}
	if c.Retired <= c.TargetInsts {
		t.Error("core stopped retiring after reaching its target")
	}
}

func TestMSHRExhaustionStallsIssue(t *testing.T) {
	// Loads to distinct blocks with zero bubbles and huge latency: after 8
	// outstanding misses the core must stall.
	recs := make([]TraceRecord, 64)
	for i := range recs {
		recs[i] = TraceRecord{Addr: uint64(i) * 64 * 1024}
	}
	c, s, _ := newCore(t, recs, 100000, 1<<40)
	for ; s.now < 200; s.now++ {
		s.fire()
		c.Tick(s.now)
	}
	if c.NextWake(s.now) != math.MaxInt64 {
		t.Error("core not blocked despite MSHR exhaustion")
	}
	if got := c.WindowOccupancy(); got > WindowSize {
		t.Errorf("window occupancy %d exceeds size", got)
	}
}

func TestNewRejectsNilDeps(t *testing.T) {
	if _, err := New(0, nil, nil, 10); err == nil {
		t.Error("accepted nil trace and l1")
	}
}

// batchCore builds a core over an endless pure-bubble trace (no memory
// traffic, so no events) and ticks it a few cycles to reach a running
// state.
func batchCore(t *testing.T, bubbles int, target int64, warm int64) (*Core, *sched) {
	t.Helper()
	c, s, _ := newCore(t, []TraceRecord{{Bubbles: bubbles}}, 10, target)
	for ; s.now < warm; s.now++ {
		s.fire()
		c.Tick(s.now)
	}
	return c, s
}

// TestAdvanceMatchesDenseTicks is the unit-level equivalence check for
// the closed-form bubble batch over a fully retirable window: after
// Advance(now, k), the core must hold the state of a twin that executed
// the same k cycles with per-cycle Ticks — the window's head, tail and
// count and the load ring included, since a later load's completion
// token names the slot it lands in — immediately and on every
// subsequent cycle. Spans past one window (300, 1000) wrap the ring.
func TestAdvanceMatchesDenseTicks(t *testing.T) {
	for _, span := range []int64{1, 2, 3, 17, 300, 1000} {
		batched, s := batchCore(t, 1<<20, 1<<40, 7)
		dense, _ := batchCore(t, 1<<20, 1<<40, 7)

		now := s.now
		k := batched.BatchableCycles()
		if k < span {
			t.Fatalf("span %d: BatchableCycles = %d, test needs more headroom", span, k)
		}
		batched.AdvanceBatch(now-1, span)
		for j := int64(0); j < span; j++ {
			dense.Tick(now + j)
		}
		if batched.Retired != dense.Retired ||
			batched.head != dense.head || batched.tail != dense.tail || batched.count != dense.count ||
			batched.pending.Bubbles != dense.pending.Bubbles ||
			batched.FinishedAt != dense.FinishedAt {
			t.Fatalf("span %d diverged: batched (ret=%d head=%d tail=%d count=%d bub=%d fin=%d) dense (ret=%d head=%d tail=%d count=%d bub=%d fin=%d)",
				span, batched.Retired, batched.head, batched.tail, batched.count, batched.pending.Bubbles, batched.FinishedAt,
				dense.Retired, dense.head, dense.tail, dense.count, dense.pending.Bubbles, dense.FinishedAt)
		}
		if b, d := liveRing(batched), liveRing(dense); !slices.Equal(b, d) || batched.pendHead != dense.pendHead {
			t.Fatalf("span %d: load ring diverged (%v at %d vs %v at %d)", span, b, batched.pendHead, d, dense.pendHead)
		}
		// Keep ticking both densely: behaviour must stay in lockstep.
		for j := int64(0); j < 50; j++ {
			at := now + span + j
			batched.Tick(at)
			dense.Tick(at)
			if batched.Retired != dense.Retired {
				t.Fatalf("span %d: post-batch cycle %d retired %d vs %d",
					span, at, batched.Retired, dense.Retired)
			}
		}
	}
}

// TestAdvanceCrossesTargetWhereDenseWould pins the batch cap: a batch
// that reaches the instruction target must record FinishedAt on exactly
// the cycle the dense loop would have.
func TestAdvanceCrossesTargetWhereDenseWould(t *testing.T) {
	for _, target := range []int64{20, 21, 22, 23, 100} {
		batched, _ := batchCore(t, 1<<20, target, 3)
		dense, _ := batchCore(t, 1<<20, target, 3)

		now := int64(3)
		k := batched.BatchableCycles()
		if k <= 0 {
			t.Fatalf("target %d: core not batchable", target)
		}
		batched.AdvanceBatch(now-1, k)
		var j int64
		for ; !dense.Done() && j < 10*k; j++ {
			dense.Tick(now + j)
		}
		if !batched.Done() {
			t.Fatalf("target %d: batch of %d cycles did not finish the core", target, k)
		}
		if batched.FinishedAt != dense.FinishedAt || batched.Retired != dense.Retired {
			t.Errorf("target %d: batched fin=%d ret=%d, dense fin=%d ret=%d",
				target, batched.FinishedAt, batched.Retired, dense.FinishedAt, dense.Retired)
		}
	}
}

// TestBatchableCyclesGating verifies the batch preconditions: no batch
// without a buffered record, never more cycles than the bubble run
// sustains, and — with loads in flight — never past the point where
// retirement would reach an entry still waiting on its fill.
func TestBatchableCyclesGating(t *testing.T) {
	// A fresh core has no pending record: not batchable.
	c, s, _ := newCore(t, []TraceRecord{{Bubbles: 90}}, 50, 1<<40)
	if got := c.BatchableCycles(); got != 0 {
		t.Errorf("fresh core batchable for %d cycles", got)
	}
	// After one tick it holds a bubble run: batchable, capped at B/issue.
	s.fire()
	c.Tick(0)
	want := int64(c.pending.Bubbles / Width)
	if got := c.BatchableCycles(); got != want {
		t.Errorf("BatchableCycles = %d, want %d", got, want)
	}
	// With load misses in flight, a batch must keep every cycle fully
	// determined: full retire groups only within the retirable head run,
	// and never a cycle that would overflow the window.
	recs := make([]TraceRecord, 64)
	for i := range recs {
		recs[i] = TraceRecord{Bubbles: 300, Addr: uint64(i) * 64 * 1024}
	}
	c, s, _ = newCore(t, recs, 40, 1<<40)
	for ; s.now < 200; s.now++ {
		s.fire()
		c.Tick(s.now)
		if c.pendN == 0 {
			continue
		}
		got := c.BatchableCycles()
		if got == 0 {
			continue
		}
		if max := int64(c.pending.Bubbles) / Width; got > max {
			t.Fatalf("cycle %d: batch %d exceeds bubble supply (%d)", s.now, got, max)
		}
		avail := c.retirableRun()
		if avail >= Width {
			if got > avail/Width {
				t.Fatalf("cycle %d: batch %d retires past the head run (%d retirable)",
					s.now, got, avail)
			}
		} else if int64(c.count)-avail+Width*got > WindowSize {
			t.Fatalf("cycle %d: batch %d overflows the window (count %d, avail %d)",
				s.now, got, c.count, avail)
		}
	}
}

// refRun recomputes the retirable head run without the load ring: the
// distance from head to the oldest window entry whose load still waits
// on its fill, or count when none waits. The waiting flags are checked
// against the token stream first. A load's CoreSlot is either queued in
// the scheduler (an L1 hit) or held by an L1 MSHR until the fill (a
// miss), so every queued CoreSlot must name a waiting slot, and the
// waiting slots must number the loads the L1 accepted less the CoreSlots
// dispatched.
func refRun(t *testing.T, c *Core, s *sched) int64 {
	t.Helper()
	for _, e := range s.events {
		if e.tok.Kind == ev.CoreSlot && !c.waiting[e.tok.Arg] {
			t.Fatalf("cycle %d: CoreSlot for slot %d is queued, but the slot is not waiting", s.now, e.tok.Arg)
		}
	}
	accepted := c.trace.(*sliceTrace).loads
	if c.hasPending && !c.pending.IsWrite {
		accepted-- // fetched, but its access has not been accepted yet
	}
	waiting := 0
	for _, w := range c.waiting {
		if w {
			waiting++
		}
	}
	if waiting != accepted-s.completed {
		t.Fatalf("cycle %d: %d slots waiting, but %d loads accepted and %d CoreSlots dispatched",
			s.now, waiting, accepted, s.completed)
	}
	for n, i := 0, c.head; n < c.count; n++ {
		if c.waiting[i] {
			return int64(n)
		}
		if i++; i == WindowSize {
			i = 0
		}
	}
	return int64(c.count)
}

// liveRing returns the load ring's entries, front first.
func liveRing(c *Core) []int {
	out := make([]int, c.pendN)
	for i := range out {
		out[i] = c.pend[c.ring(c.pendHead+i)]
	}
	return out
}

// TestAvailInvariant drives mixed traces (hits, misses, stores,
// MSHR pressure) and checks every cycle, and after every batch, that
// the run the load ring yields matches a reference computed without it.
func TestAvailInvariant(t *testing.T) {
	for _, bubbles := range []int{0, 2, 40, 200} {
		recs := make([]TraceRecord, 512)
		for i := range recs {
			recs[i] = TraceRecord{
				Bubbles: bubbles,
				Addr:    uint64(i%97) * 64 * 257, // mix of reuse and misses
				IsWrite: i%5 == 0,
			}
		}
		c, s, _ := newCore(t, recs, 60, 1<<40)
		for ; s.now < 5_000; s.now++ {
			s.fire()
			c.Tick(s.now)
			if got, want := c.retirableRun(), refRun(t, c, s); got != want {
				t.Fatalf("bubbles=%d cycle %d: retirableRun=%d, reference=%d", bubbles, s.now, got, want)
			}
			if b := c.BatchableCycles(); b > 0 {
				// Exercise the batch paths under the invariant too.
				c.AdvanceBatch(s.now, b)
				s.now += b
				if got, want := c.retirableRun(), refRun(t, c, s); got != want {
					t.Fatalf("bubbles=%d post-batch cycle %d: retirableRun=%d, reference=%d", bubbles, s.now, got, want)
				}
			}
		}
	}
}

// threeLoads builds a core whose window holds three loads, each behind
// two bubbles, on a memory too slow to return any of them, and returns
// the loads' slots oldest first.
func threeLoads(t *testing.T) (*Core, []int) {
	t.Helper()
	recs := make([]TraceRecord, 64)
	for i := range recs {
		recs[i] = TraceRecord{Bubbles: 2, Addr: uint64(i) * 64 * 1024}
	}
	c, s, _ := newCore(t, recs, 1_000_000, 1<<40)
	for ; s.now < 3; s.now++ {
		s.fire()
		c.Tick(s.now)
	}
	loads := liveRing(c)
	if len(loads) != 3 || c.retirableRun() != 0 {
		t.Fatalf("setup: ring %v, retirable run %d; want three loads, the oldest at the head", loads, c.retirableRun())
	}
	return c, loads
}

// TestCompleteSlotOutOfOrder completes three in-flight loads second,
// third, then first: the younger two stay queued behind the front, and
// the front's completion pops all three at once.
func TestCompleteSlotOutOfOrder(t *testing.T) {
	c, loads := threeLoads(t)
	steps := []struct {
		slot int
		ring int   // loads left in the ring
		run  int64 // retirable run afterwards
	}{
		{loads[1], 3, 0},
		{loads[2], 3, 0},
		{loads[0], 0, int64(c.count)},
	}
	for i, st := range steps {
		c.CompleteSlot(st.slot)
		if c.pendN != st.ring || c.retirableRun() != st.run {
			t.Fatalf("step %d (slot %d): ring %d, run %d; want ring %d, run %d",
				i, st.slot, c.pendN, c.retirableRun(), st.ring, st.run)
		}
	}
}

// TestCompleteSlotIgnoresStaleTokens delivers a duplicate CoreSlot and a
// CoreSlot for a slot that now holds a bubble: neither may touch the
// ring, the waiting flags or the retirable run.
func TestCompleteSlotIgnoresStaleTokens(t *testing.T) {
	c, loads := threeLoads(t)
	// A duplicate for a load queued behind the still-waiting front.
	c.CompleteSlot(loads[1])
	c.CompleteSlot(loads[1])
	if c.pendN != 3 || c.retirableRun() != 0 || c.waiting[loads[1]] {
		t.Fatalf("duplicate CoreSlot: ring %d, run %d, waiting %v", c.pendN, c.retirableRun(), c.waiting[loads[1]])
	}
	// The front's completion pops it and the completed load behind it;
	// a duplicate of either is then ignored.
	c.CompleteSlot(loads[0])
	ring, run := liveRing(c), c.retirableRun()
	if len(ring) != 1 || ring[0] != loads[2] || run != int64(c.age(loads[2])) {
		t.Fatalf("front completion: ring %v, run %d; want [%d], run %d", ring, run, loads[2], c.age(loads[2]))
	}
	c.CompleteSlot(loads[0])
	c.CompleteSlot(loads[1])
	if got := liveRing(c); len(got) != 1 || c.retirableRun() != run {
		t.Fatalf("duplicates after the pop: ring %v, run %d; want [%d], run %d", got, c.retirableRun(), loads[2], run)
	}
	// Retire the first load, then refill its slot with a bubble: a
	// CoreSlot naming it must not pop the youngest load, still waiting.
	retire := int64(c.age(loads[0]) + 1)
	c.retire(retire)
	for c.tail != loads[0] {
		c.insert()
	}
	c.insert()
	before := c.retirableRun()
	c.CompleteSlot(loads[0])
	if got := liveRing(c); len(got) != 1 || got[0] != loads[2] || c.retirableRun() != before || c.waiting[loads[0]] {
		t.Fatalf("CoreSlot for a bubble slot: ring %v, run %d (was %d), waiting %v",
			got, c.retirableRun(), before, c.waiting[loads[0]])
	}
	// With the ring empty, a CoreSlot for the bubble slot that the
	// ring's front index last named must not pop anything.
	c.CompleteSlot(loads[2])
	stale := c.pend[c.pendHead]
	if c.pendN != 0 || c.age(stale) >= c.count {
		t.Fatalf("setup: ring %d, slot %d at age %d of %d", c.pendN, stale, c.age(stale), c.count)
	}
	c.CompleteSlot(stale)
	if c.pendN != 0 || c.retirableRun() != int64(c.count) {
		t.Fatalf("CoreSlot for bubble slot %d on an empty ring: ring %d, run %d of %d",
			stale, c.pendN, c.retirableRun(), c.count)
	}
}

// inflightCore drives a core over a bubbles+loads trace until it has at
// least one load in flight and a batchable bubble run, then returns it.
func inflightCore(t *testing.T, bubbles int, latency int64, target int64) (*Core, *sched) {
	t.Helper()
	recs := make([]TraceRecord, 4096)
	for i := range recs {
		recs[i] = TraceRecord{Bubbles: bubbles, Addr: uint64(i) * 64 * 1024}
	}
	c, s, _ := newCore(t, recs, latency, target)
	for ; s.now < 100_000; s.now++ {
		s.fire()
		c.Tick(s.now)
		if c.pendN > 0 && c.BatchableCycles() > 0 {
			s.now++
			return c, s
		}
	}
	t.Fatal("core never reached an in-flight batchable state")
	return nil, nil
}

// TestAdvanceInFlightMatchesDenseTicks checks the closed form with loads
// outstanding: within the event horizon (no fill completes), Advance
// must leave the core bit-identical to per-cycle Ticks — including the
// window position and the load ring, since pending fills pin absolute
// slot positions.
func TestAdvanceInFlightMatchesDenseTicks(t *testing.T) {
	for _, bubbles := range []int{120, 250, 1000} {
		batched, s := inflightCore(t, bubbles, 400, 1<<40)
		dense, sd := inflightCore(t, bubbles, 400, 1<<40)
		if s.now != sd.now {
			t.Fatalf("twin cores diverged during warmup: %d vs %d", s.now, sd.now)
		}
		now := s.now
		// Cap the batch at the twins' next scheduled event, as the run
		// loop would.
		span := batched.BatchableCycles()
		for _, e := range s.events {
			if h := e.at - now; h < span {
				span = h
			}
		}
		if span <= 0 {
			continue
		}
		batched.AdvanceBatch(now-1, span)
		for j := int64(0); j < span; j++ {
			dense.Tick(now + j)
		}
		if batched.Retired != dense.Retired ||
			batched.head != dense.head || batched.tail != dense.tail ||
			batched.count != dense.count ||
			batched.pending.Bubbles != dense.pending.Bubbles {
			t.Fatalf("bubbles=%d span=%d: batched (ret=%d head=%d tail=%d count=%d bub=%d) dense (ret=%d head=%d tail=%d count=%d bub=%d)",
				bubbles, span,
				batched.Retired, batched.head, batched.tail, batched.count, batched.pending.Bubbles,
				dense.Retired, dense.head, dense.tail, dense.count, dense.pending.Bubbles)
		}
		// Neither path writes per-slot state for a bubble, so the load
		// rings and the waiting flags must be bit-identical.
		if b, d := liveRing(batched), liveRing(dense); !slices.Equal(b, d) {
			t.Fatalf("bubbles=%d span=%d: load ring diverged (%v vs %v)", bubbles, span, b, d)
		}
		if !slices.Equal(batched.waiting, dense.waiting) {
			t.Fatalf("bubbles=%d span=%d: waiting flags diverged", bubbles, span)
		}
		// Let the outstanding fills land and the traces play on: the twins
		// must stay in lockstep.
		for j := int64(0); j < 2000; j++ {
			at := now + span + j
			s.now, sd.now = at, at
			s.fire()
			sd.fire()
			batched.Tick(at)
			dense.Tick(at)
			if batched.Retired != dense.Retired {
				t.Fatalf("bubbles=%d: post-batch cycle %d retired %d vs %d",
					bubbles, at, batched.Retired, dense.Retired)
			}
		}
	}
}
