package memctrl

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dram"
	"repro/internal/fgss"
)

// planCache is a CacheHook that queues each missed row once and caches
// it when the controller flushes the bank, for testing the
// deferred-relocation engine.
type planCache struct {
	cost      int64
	committed int
	queues    [16][]dram.Location // per dense bank of dram.Default()
	cached    map[uint64]dram.Location
}

func newPlanCache(cost int64) *planCache {
	return &planCache{cost: cost, cached: map[uint64]dram.Location{}}
}

func (p *planCache) key(loc dram.Location) uint64 {
	return uint64(loc.BankID(dram.Default()))<<32 | uint64(loc.Row)
}

func (p *planCache) Lookup(loc dram.Location, isWrite bool) (dram.Location, bool) {
	redirect, ok := p.cached[p.key(loc)]
	return redirect, ok
}

func (p *planCache) ShouldInsert(loc dram.Location) bool { return true }

func (p *planCache) Insert(loc dram.Location) bool {
	bank := loc.BankID(dram.Default())
	for _, q := range p.queues[bank] {
		if q.Row == loc.Row {
			return false
		}
	}
	p.queues[bank] = append(p.queues[bank], loc)
	return true
}

func (p *planCache) Flush(ch *dram.Channel, bank int) RelocBurst {
	q := p.queues[bank]
	p.queues[bank] = nil
	for _, loc := range q {
		p.committed++
		p.cached[p.key(loc)] = dram.Location{
			Rank: loc.Rank, Group: loc.Group, Bank: loc.Bank,
			Row: 0, Block: loc.Block, CacheRow: true,
		}
	}
	return RelocBurst{Loc: q[0], Cost: p.cost * int64(len(q)), Blocks: 16 * len(q), Count: len(q)}
}

func (p *planCache) Pending(bank int) bool { return len(p.queues[bank]) > 0 }

func TestDeferredRelocCommitsAtRowClose(t *testing.T) {
	pc := newPlanCache(40)
	c := newTestController(t, pc)
	var done int
	on := c.on(func(int64) { done++ })
	// Miss to row 1 plans an insertion; it must not commit while row 1
	// keeps serving requests.
	c.Enqueue(&Request{Loc: dram.Location{Row: 1, Block: 0}, Addr: on}, 0)
	runUntil(c, 200, func() bool { return done == 1 })
	if pc.committed != 0 {
		t.Fatalf("committed %d before row close", pc.committed)
	}
	// A row hit to the same row is served from the still-open source row
	// (no FTS entry exists yet, so no redirect happens).
	c.Enqueue(&Request{Loc: dram.Location{Row: 1, Block: 5}, Addr: on}, 60)
	runUntil(c, 400, func() bool { return done == 2 })
	if pc.committed != 0 {
		t.Fatalf("committed %d while the source row was open", pc.committed)
	}
	// A conflicting request forces the row closed: the relocation executes
	// and commits there.
	c.Enqueue(&Request{Loc: dram.Location{Row: 9, Block: 0}, Addr: on}, 400)
	runUntil(c, 1200, func() bool { return done == 3 })
	if pc.committed == 0 {
		t.Fatal("relocation never committed at row close")
	}
	// Subsequent access to row 1 now hits the cache.
	if _, hit := pc.Lookup(dram.Location{Row: 1, Block: 0}, false); !hit {
		t.Error("segment not cached after commit")
	}
}

func TestIdleFlushWaitsForQuietWindow(t *testing.T) {
	pc := newPlanCache(40)
	c := newTestController(t, pc)
	quiet := int64(IdleFlushAfter)
	var colAt, flushAt int64
	// One continuous clock: the insertion is planned when the miss's
	// column command issues; the idle flush may run only after the bank
	// has been quiet for the configured window.
	for now := int64(0); now < quiet*6; now++ {
		if now == 0 {
			c.Enqueue(&Request{Loc: dram.Location{Row: 1, Block: 0},
				Addr: c.on(func(at int64) { colAt = at })}, 0)
		}
		c.Tick(now, func(at int64, addr uint64) { c.dispatch(addr, at) })
		if pc.committed > 0 && flushAt == 0 {
			flushAt = now
		}
	}
	if pc.committed != 1 {
		t.Fatalf("idle flush never fired (committed=%d)", pc.committed)
	}
	if colAt == 0 {
		t.Fatal("read never completed")
	}
	// The flush must respect the quiet window measured from the column
	// access (colAt is the data-end time; the command issued CL+BL
	// earlier, so allow that much slack).
	tm := c.Channel().Slow
	issueAt := colAt - int64(tm.CL+tm.BL)
	if flushAt < issueAt+quiet {
		t.Errorf("idle flush at %d, only %d cycles after the column access at %d (window %d)",
			flushAt, flushAt-issueAt, issueAt, quiet)
	}
	// The bank must be left precharged.
	if row, _ := c.Channel().Bank(dram.Location{}).Open(); row != -1 {
		t.Error("bank open after relocation flush")
	}
}

func TestImmediateRelocExecutesAtMiss(t *testing.T) {
	pc := newPlanCache(40)
	geo := dram.Default()
	slow := dram.DDR4()
	ch, err := dram.NewChannel(geo, slow, slow.Fast(dram.PaperFastScale()), false)
	if err != nil {
		t.Fatal(err)
	}
	c := &testCtrl{Controller: NewController(0, Config{ImmediateReloc: true}, ch, pc)}
	done := false
	c.Enqueue(&Request{Loc: dram.Location{Row: 1, Block: 0}, Addr: c.on(func(int64) { done = true })}, 0)
	runUntil(c, 200, func() bool { return done && pc.committed > 0 })
	if pc.committed != 1 {
		t.Fatalf("immediate mode committed %d at miss time, want 1", pc.committed)
	}
	if row, _ := ch.Bank(dram.Location{}).Open(); row != -1 {
		t.Error("bank open after immediate relocation")
	}
}

func TestRefreshFlushesPendingRelocs(t *testing.T) {
	pc := newPlanCache(40)
	c := newTestController(t, pc)
	done := false
	c.Enqueue(&Request{Loc: dram.Location{Row: 1, Block: 0}, Addr: c.on(func(int64) { done = true })}, 0)
	// Serve the miss just before the refresh deadline, then keep the bank
	// busy enough that only the refresh path can close it.
	refi := int64(c.Channel().Slow.REFI)
	runUntil(c, 100, func() bool { return done })
	if !done {
		t.Fatal("read never completed")
	}
	// Run across the refresh deadline: the refresh precharge path must
	// execute the pending relocation (or the idle flush gets it first;
	// either way it must be done before REF issues).
	runUntil(c, refi+int64(c.Channel().Slow.RFC)+200, func() bool {
		return c.Channel().NumREF > 0
	})
	if c.Channel().NumREF == 0 {
		t.Fatal("refresh never issued")
	}
	if pc.committed != 1 {
		t.Errorf("pending relocation not executed by refresh time (committed=%d)", pc.committed)
	}
}

func TestRelocPlanAccountingInStats(t *testing.T) {
	pc := newPlanCache(25)
	c := newTestController(t, pc)
	c.Enqueue(&Request{Loc: dram.Location{Row: 1, Block: 0}}, 0)
	quiet := int64(IdleFlushAfter)
	runUntil(c, 400+quiet*4, func() bool { return pc.committed == 1 })
	s := c.Channel().CollectStats()
	if s.RELOC != 16 {
		t.Errorf("RELOC columns = %d, want 16", s.RELOC)
	}
	if s.RelocBusy != 25 {
		t.Errorf("RelocBusy = %d, want the burst cost 25", s.RelocBusy)
	}
	if c.Inserted != 1 {
		t.Errorf("Inserted = %d, want 1", c.Inserted)
	}
}

// TestClosedBankFlushPaysActivatePerInsertion queues two insertions on
// a closed bank and flushes them: the burst occupies the bank for the
// hook's cost plus one source-row ACTIVATE per insertion.
func TestClosedBankFlushPaysActivatePerInsertion(t *testing.T) {
	pc := newPlanCache(25)
	c := newTestController(t, pc)
	for _, row := range []int{1, 2} {
		if !pc.Insert(dram.Location{Row: row}) {
			t.Fatalf("row %d not queued", row)
		}
	}
	c.relocMask = 1
	if flushed, _ := c.flushIdleRelocs(IdleFlushAfter); !flushed {
		t.Fatal("the idle flush left the closed bank's queue")
	}
	if got, want := c.Channel().CollectStats().RelocBusy, 2*(25+int64(c.Channel().Slow.RCD)); got != want {
		t.Errorf("RelocBusy = %d, want %d (two insertions, each with its ACTIVATE)", got, want)
	}
}

// bruteIdleFlush is the reference flushIdleRelocs without the mask: the
// scan over every bank in ascending ID order, asking the hook which have
// queued insertions. It returns the bank that scan flushes (-1 for
// none), the next-work probe it reports, and how many banks were ready
// to flush.
func bruteIdleFlush(c *Controller, now int64) (bank int, nextAt int64, ready int) {
	bank, nextAt = -1, math.MaxInt64
	for id := 0; id < c.channel.NumBanks(); id++ {
		if !c.cache.Pending(id) {
			continue
		}
		at := c.relocFlushReady(id, now)
		switch {
		case at > now:
			if bank < 0 {
				nextAt = min(nextAt, at)
			}
		case bank < 0:
			bank, nextAt = id, now+1
			ready++
		default:
			ready++
		}
	}
	return bank, nextAt, ready
}

// checkRelocMask fails unless relocMask's set bits are exactly the banks
// the hook holds queued insertions for.
func checkRelocMask(t *testing.T, c *Controller, when string, now int64) {
	t.Helper()
	for id := 0; id < c.channel.NumBanks(); id++ {
		if bit := c.relocMask>>id&1 == 1; bit != c.cache.Pending(id) {
			t.Fatalf("cycle %d, %s: bank %d mask bit %v, hook pending %v", now, when, id, bit, c.cache.Pending(id))
		}
	}
}

// restoreInto snapshots src and its channel and restores both over dst
// and dst's channel, decoding the queued requests' addresses with m and
// taking every read's block to have a miss outstanding. A nil dst
// restores into a fresh channel and controller over src's hook. The
// hook is shared, not snapshotted, so the restore rebuilds dst's mask
// from the hook's queues as they stand. It returns the restored
// controller.
func restoreInto(t *testing.T, src, dst *Controller, m *AddrMapper) *Controller {
	t.Helper()
	var buf bytes.Buffer
	w := fgss.NewWriter(&buf, 1, [32]byte{})
	w.Begin(1)
	src.channel.Snapshot(w)
	src.Snapshot(w)
	w.End()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if dst == nil {
		ch, err := dram.NewChannel(src.channel.Geo, src.channel.Slow, src.channel.Fast, false)
		if err != nil {
			t.Fatal(err)
		}
		dst = NewController(src.ID, src.cfg, ch, src.cache)
	}
	r, err := fgss.NewReader(&buf, 1, [32]byte{})
	if err != nil {
		t.Fatal(err)
	}
	r.Section(1)
	dst.channel.Restore(r)
	dst.Restore(r, m, func(uint64) bool { return true })
	r.EndSection()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestRelocMaskTracksPendingBanks alternates busy and quiet phases. In a
// busy phase, reads spread over every bank arrive and the controller
// ticks every cycle, so queued insertions pile up on several banks. In
// a quiet phase, the idle flush is probed every 50 cycles, so several
// banks are often ready at once and the flush order matters. relocMask
// must mark exactly the banks the hook holds queued insertions for
// after every step and after each Snapshot/Restore round trip, and
// every idle flush must pick the bank and report the probe that the
// scan over every bank does. The round trips happen mid-busy-phase,
// while insertions are queued, and each restores over the controller
// the previous round trip left behind, so the mask must both gain the
// queued banks and drop the stale ones.
func TestRelocMaskTracksPendingBanks(t *testing.T) {
	pc := newPlanCache(40)
	c := newTestController(t, pc).Controller
	geo := c.channel.Geo
	m := testMapper(t)
	rng := rand.New(rand.NewSource(1))
	sched := func(int64, uint64) {}
	before := make([]bool, c.channel.NumBanks())
	flushes, multiReady, restoredPending, staleDropped := 0, 0, 0, 0
	var left *Controller // the controller the last round trip left behind
	for now := int64(0); now < 30_000; now++ {
		if now%3000 == 1400 {
			for id := range before {
				if pc.Pending(id) {
					restoredPending++
				} else if left != nil && left.relocMask>>id&1 == 1 {
					staleDropped++
				}
			}
			left, c = c, restoreInto(t, c, left, m)
			checkRelocMask(t, c, "after Restore", now)
		}
		if now%1000 < 500 {
			if now%1000 < 400 && rng.Intn(4) == 0 && c.CanAccept(false) {
				loc := dram.Location{
					Group: rng.Intn(geo.BankGroups), Bank: rng.Intn(geo.BanksPerGroup),
					Row: 1 + rng.Intn(64), Block: rng.Intn(geo.BlocksPerRow()),
				}
				c.Enqueue(&Request{Addr: m.Encode(0, loc), Loc: loc}, now)
			}
			c.Tick(now, sched)
			checkRelocMask(t, c, "after Tick", now)
			continue
		}
		if now%50 != 0 {
			continue
		}
		for id := range before {
			before[id] = pc.Pending(id)
		}
		wantBank, wantNext, ready := bruteIdleFlush(c, now)
		flushed, next := c.flushIdleRelocs(now)
		gotBank := -1
		for id := range before {
			if before[id] && !pc.Pending(id) {
				gotBank = id
			}
		}
		if flushed != (wantBank >= 0) || gotBank != wantBank || next != wantNext {
			t.Fatalf("cycle %d: flushIdleRelocs flushed %v (bank %d), probe %d; the scan flushes bank %d, probe %d",
				now, flushed, gotBank, next, wantBank, wantNext)
		}
		if flushed {
			flushes++
		}
		if ready > 1 {
			multiReady++
		}
		checkRelocMask(t, c, "after idle flush", now)
	}
	if flushes == 0 || multiReady == 0 || restoredPending == 0 || staleDropped == 0 {
		t.Errorf("vacuous run: %d idle flushes, %d with several banks ready, %d pending banks restored, %d stale banks dropped",
			flushes, multiReady, restoredPending, staleDropped)
	}
}
