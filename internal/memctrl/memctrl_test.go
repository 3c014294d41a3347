package memctrl

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dram"
	"repro/internal/fgss"
	"repro/internal/stats"
)

// testCtrl wraps a Controller with a completion registry: a test
// registers a read's completion closure with on and uses the returned
// number as the read's Request.Addr, which the controller only reports
// back; runUntil calls the closure of each read the controller reports
// done. Address 0 has no closure.
type testCtrl struct {
	*Controller
	fns []func(int64)
}

func (c *testCtrl) on(fn func(int64)) uint64 {
	c.fns = append(c.fns, fn)
	return uint64(len(c.fns))
}

func (c *testCtrl) dispatch(addr uint64, now int64) {
	if addr > 0 {
		c.fns[addr-1](now)
	}
}

func newTestController(t *testing.T, hook CacheHook) *testCtrl {
	t.Helper()
	geo := dram.Default()
	slow := dram.DDR4()
	ch, err := dram.NewChannel(geo, slow, slow.Fast(dram.PaperFastScale()), false)
	if err != nil {
		t.Fatal(err)
	}
	return &testCtrl{Controller: NewController(0, Config{}, ch, hook)}
}

// runUntil ticks the controller until pred returns true or the cycle limit
// is reached, dispatching reported reads at their data-end cycle.
func runUntil(c *testCtrl, limit int64, pred func() bool) int64 {
	type doneRead struct {
		at   int64
		addr uint64
	}
	var pending []doneRead
	for now := int64(0); now < limit; now++ {
		for i := 0; i < len(pending); {
			if pending[i].at <= now {
				addr := pending[i].addr
				pending = append(pending[:i], pending[i+1:]...)
				c.dispatch(addr, now)
			} else {
				i++
			}
		}
		if pred() {
			return now
		}
		c.Tick(now, func(at int64, addr uint64) {
			pending = append(pending, doneRead{at, addr})
		})
	}
	return limit
}

func TestAddrMapperBijection(t *testing.T) {
	for _, channels := range []int{1, 4} {
		m, err := NewAddrMapper(dram.Default(), channels)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 2000; i++ {
			addr := (rng.Uint64() % uint64(m.TotalBytes())) &^ uint64(m.geo.BlockBytes-1)
			ch, loc := m.Decode(addr)
			if got := m.Encode(ch, loc); got != addr {
				t.Fatalf("channels=%d: Encode(Decode(%#x)) = %#x", channels, addr, got)
			}
			if ch < 0 || ch >= channels {
				t.Fatalf("channel %d out of range", ch)
			}
		}
	}
}

func TestAddrMapperInterleaving(t *testing.T) {
	// {row, rank, bankgroup, bank, channel, column}: consecutive blocks
	// within a row map to the same bank/channel until the column bits
	// roll over; then the channel changes.
	m, err := NewAddrMapper(dram.Default(), 4)
	if err != nil {
		t.Fatal(err)
	}
	blk := uint64(m.geo.BlockBytes)
	ch0, loc0 := m.Decode(0)
	ch1, loc1 := m.Decode(blk)
	if ch0 != ch1 || loc0.BankID(m.geo) != loc1.BankID(m.geo) || loc1.Block != loc0.Block+1 {
		t.Errorf("consecutive blocks: (%d,%v) then (%d,%v)", ch0, loc0, ch1, loc1)
	}
	// Crossing the row's worth of blocks switches channel first.
	rowBytes := uint64(m.geo.RowBytes)
	chN, _ := m.Decode(rowBytes)
	if chN == ch0 {
		t.Errorf("row-size stride stayed on channel %d; want channel interleave", chN)
	}
}

func TestAddrMapperRejectsNonPow2(t *testing.T) {
	geo := dram.Default()
	geo.BankGroups = 3
	if _, err := NewAddrMapper(geo, 1); err == nil {
		t.Error("accepted non-power-of-two bank groups")
	}
	if _, err := NewAddrMapper(dram.Default(), 0); err == nil {
		t.Error("accepted zero channels")
	}
}

func TestReadRequestCompletes(t *testing.T) {
	c := newTestController(t, nil)
	done := false
	var doneAt int64
	r := &Request{Loc: dram.Location{Row: 42, Block: 5},
		Addr: c.on(func(at int64) { done = true; doneAt = at })}
	c.Enqueue(r, 0)
	end := runUntil(c, 200, func() bool { return done })
	if !done {
		t.Fatal("read did not complete within 200 cycles")
	}
	tm := c.Channel().Slow
	// Minimum latency: tRCD + tCL + tBL.
	if min := int64(tm.RCD + tm.CL + tm.BL); doneAt < min {
		t.Errorf("read completed at %d, faster than minimum %d", doneAt, min)
	}
	_ = end
	if c.NumReads != 1 {
		t.Errorf("NumReads = %d, want 1", c.NumReads)
	}
}

func TestRowHitSecondRead(t *testing.T) {
	c := newTestController(t, nil)
	var completions int
	mk := func(block int) *Request {
		return &Request{Loc: dram.Location{Row: 42, Block: block},
			Addr: c.on(func(int64) { completions++ })}
	}
	c.Enqueue(mk(0), 0)
	c.Enqueue(mk(1), 0)
	runUntil(c, 300, func() bool { return completions == 2 })
	if completions != 2 {
		t.Fatal("both reads should complete")
	}
	s := c.Channel().CollectStats()
	if s.ACT != 1 {
		t.Errorf("ACT count = %d, want 1 (second read is a row hit)", s.ACT)
	}
	if s.RowHits != 2 {
		t.Errorf("RowHits = %d, want 2 column accesses on the open row", s.RowHits)
	}
}

func TestRowConflictPrecharges(t *testing.T) {
	c := newTestController(t, nil)
	var completions int
	on := c.on(func(int64) { completions++ })
	c.Enqueue(&Request{Loc: dram.Location{Row: 1}, Addr: on}, 0)
	c.Enqueue(&Request{Loc: dram.Location{Row: 2}, Addr: on}, 0)
	runUntil(c, 500, func() bool { return completions == 2 })
	if completions != 2 {
		t.Fatal("both reads should complete")
	}
	s := c.Channel().CollectStats()
	if s.ACT != 2 || s.PRE < 1 {
		t.Errorf("stats %+v: want 2 ACT and at least 1 PRE", s)
	}
	if s.RowConf != 1 {
		t.Errorf("RowConf = %d, want 1", s.RowConf)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	c := newTestController(t, nil)
	order := make([]int, 0, 3)
	mk := func(id, row, block int) *Request {
		return &Request{Loc: dram.Location{Row: row, Block: block},
			Addr: c.on(func(int64) { order = append(order, id) })}
	}
	// Open row 1 via request 0; then a conflicting request to row 9
	// arrives before another hit to row 1. FR-FCFS must serve the row hit
	// (request 2) before the older conflicting request 1.
	c.Enqueue(mk(0, 1, 0), 0)
	runUntil(c, 100, func() bool { return len(order) == 1 })
	c.Enqueue(mk(1, 9, 0), 40)
	c.Enqueue(mk(2, 1, 1), 41)
	runUntil(c, 600, func() bool { return len(order) == 3 })
	if len(order) != 3 || order[1] != 2 || order[2] != 1 {
		t.Errorf("completion order = %v, want [0 2 1] (row hit first)", order)
	}
}

func TestWriteDrainHysteresis(t *testing.T) {
	c := newTestController(t, nil)
	// Fill the write queue past the high watermark; the controller must
	// drain it below the low watermark even while reads keep arriving.
	for i := 0; i < HighWatermark+1; i++ {
		c.Enqueue(&Request{Loc: dram.Location{Row: i % 4, Block: i % 128}, IsWrite: true}, 0)
	}
	runUntil(c, 5000, func() bool { return c.PendingWrites() <= LowWatermark })
	if c.PendingWrites() > LowWatermark {
		t.Errorf("write queue not drained: %d pending", c.PendingWrites())
	}
	if c.NumWrites == 0 {
		t.Error("no writes issued")
	}
}

func TestOpportunisticWriteDrain(t *testing.T) {
	c := newTestController(t, nil)
	c.Enqueue(&Request{Loc: dram.Location{Row: 3}, IsWrite: true}, 0)
	runUntil(c, 1000, func() bool { return c.PendingWrites() == 0 })
	if c.PendingWrites() != 0 {
		t.Error("single write never drained with an empty read queue")
	}
}

func TestQueueCapacity(t *testing.T) {
	c := newTestController(t, nil)
	for i := 0; i < ReadQueueDepth; i++ {
		if !c.CanAccept(false) {
			t.Fatalf("queue refused request %d of %d", i, ReadQueueDepth)
		}
		c.Enqueue(&Request{Loc: dram.Location{Row: i}}, 0)
	}
	if c.CanAccept(false) {
		t.Error("queue accepted request beyond capacity")
	}
	if !c.CanAccept(true) {
		t.Error("write queue should still accept")
	}
}

func TestRefreshEventuallyIssues(t *testing.T) {
	c := newTestController(t, nil)
	// Keep a stream of reads flowing across several tREFI periods and
	// verify refreshes still happen.
	var served int64
	row := 0
	limit := int64(c.Channel().Slow.REFI) * 3
	for now := int64(0); now < limit; now++ {
		if c.CanAccept(false) && now%50 == 0 {
			row++
			c.Enqueue(&Request{Loc: dram.Location{Row: row % 1000},
				Addr: c.on(func(int64) { served++ })}, now)
		}
		c.Tick(now, func(int64, uint64) {})
	}
	if c.Channel().NumREF < 2 {
		t.Errorf("NumREF = %d over 3 tREFI, want >= 2", c.Channel().NumREF)
	}
}

// fakeCache is a deterministic CacheHook for controller-integration
// tests. It caches a segment as soon as it queues its insertion, and
// charges each insertion a fixed cost at Flush.
type fakeCache struct {
	cached    map[uint64]dram.Location
	insertAll bool
	inserted  int
	lookups   int
	relocCost int64
	blocks    int
	queues    [16][]dram.Location // per dense bank of dram.Default()
}

func key(loc dram.Location) uint64 {
	return uint64(loc.BankID(dram.Default()))<<40 | uint64(loc.Row)<<8 | uint64(loc.Block/16)
}

func (f *fakeCache) Lookup(loc dram.Location, isWrite bool) (dram.Location, bool) {
	f.lookups++
	redirect, ok := f.cached[key(loc)]
	if ok {
		redirect.Block = loc.Block % 16
	}
	return redirect, ok
}

func (f *fakeCache) ShouldInsert(loc dram.Location) bool { return f.insertAll }

func (f *fakeCache) Insert(loc dram.Location) bool {
	f.inserted++
	f.cached[key(loc)] = dram.Location{Rank: loc.Rank, Group: loc.Group, Bank: loc.Bank, Row: 0, CacheRow: true}
	bank := loc.BankID(dram.Default())
	f.queues[bank] = append(f.queues[bank], loc)
	return true
}

func (f *fakeCache) Flush(ch *dram.Channel, bank int) RelocBurst {
	q := f.queues[bank]
	f.queues[bank] = nil
	return RelocBurst{Loc: q[0], Cost: f.relocCost * int64(len(q)), Blocks: f.blocks * len(q), Count: len(q)}
}

func (f *fakeCache) Pending(bank int) bool { return len(f.queues[bank]) > 0 }

func TestCacheHookHitRedirects(t *testing.T) {
	fc := &fakeCache{cached: map[uint64]dram.Location{}, insertAll: true, relocCost: 30, blocks: 16}
	c := newTestController(t, fc)
	var completions int
	on := c.on(func(int64) { completions++ })

	// First access: miss, triggers insertion.
	c.Enqueue(&Request{Loc: dram.Location{Row: 7, Block: 3}, Addr: on}, 0)
	runUntil(c, 400, func() bool { return completions == 1 })
	if fc.inserted != 1 || c.Inserted != 1 {
		t.Fatalf("inserted = %d/%d, want 1/1", fc.inserted, c.Inserted)
	}
	if c.CacheMisses != 1 {
		t.Fatalf("CacheMisses = %d, want 1", c.CacheMisses)
	}

	// Second access to the same segment: must hit and be served from the
	// cache row.
	c.Enqueue(&Request{Loc: dram.Location{Row: 7, Block: 4}, Addr: on}, 500)
	runUntil(c, 1500, func() bool { return completions == 2 })
	if c.CacheHits != 1 {
		t.Errorf("CacheHits = %d, want 1", c.CacheHits)
	}
	if fc.inserted != 1 {
		t.Errorf("hit triggered another insertion: %d", fc.inserted)
	}
}

func TestCacheInsertOccupiesBank(t *testing.T) {
	fc := &fakeCache{cached: map[uint64]dram.Location{}, insertAll: true, relocCost: 100, blocks: 16}
	c := newTestController(t, fc)
	var first, second int64
	c.Enqueue(&Request{Loc: dram.Location{Row: 7}, Addr: c.on(func(at int64) { first = at })}, 0)
	runUntil(c, 400, func() bool { return first != 0 })
	// A conflicting request right after insertion must wait out the
	// relocation occupancy.
	c.Enqueue(&Request{Loc: dram.Location{Row: 8}, Addr: c.on(func(at int64) { second = at })}, first)
	runUntil(c, 2000, func() bool { return second != 0 })
	// The second insertion is deferred; idle ticks must flush it.
	runUntil(c, 4000, func() bool { return c.Channel().CollectStats().RELOC >= 32 })
	s := c.Channel().CollectStats()
	if s.RELOC != 32 { // both misses insert a 16-block segment
		t.Errorf("RELOC blocks = %d, want 32", s.RELOC)
	}
	tm := c.Channel().Slow
	// second must be at least relocCost after the first column access.
	if second-first < 100-int64(tm.CL+tm.BL) {
		t.Errorf("conflicting read finished at %d, only %d after first; relocation not enforced",
			second, second-first)
	}
}

func TestNoInsertWhenPolicyDeclines(t *testing.T) {
	fc := &fakeCache{cached: map[uint64]dram.Location{}, insertAll: false}
	c := newTestController(t, fc)
	done := false
	c.Enqueue(&Request{Loc: dram.Location{Row: 7}, Addr: c.on(func(int64) { done = true })}, 0)
	runUntil(c, 400, func() bool { return done })
	if fc.inserted != 0 {
		t.Errorf("inserted %d despite policy declining", fc.inserted)
	}
}

func TestWritesDoNotTriggerInsertDuringService(t *testing.T) {
	// Writes are drained lazily; insertion is still allowed for them per
	// insert-any-miss, but the fake declines everything so the write path
	// must not call Insert.
	fc := &fakeCache{cached: map[uint64]dram.Location{}, insertAll: false}
	c := newTestController(t, fc)
	c.Enqueue(&Request{Loc: dram.Location{Row: 7}, IsWrite: true}, 0)
	runUntil(c, 1000, func() bool { return c.PendingWrites() == 0 })
	if fc.inserted != 0 {
		t.Errorf("write path inserted %d", fc.inserted)
	}
}

// Property: every enqueued read eventually completes, in bounded time,
// regardless of the address mix.
func TestPropertyAllReadsComplete(t *testing.T) {
	f := func(rows []uint16) bool {
		if len(rows) > 32 {
			rows = rows[:32]
		}
		c := newTestController(t, nil)
		want := 0
		got := 0
		for now := int64(0); now < 100000; now++ {
			if want < len(rows) && c.CanAccept(false) {
				c.Enqueue(&Request{
					Loc:  dram.Location{Row: int(rows[want]) % 32768, Block: int(rows[want]) % 128},
					Addr: c.on(func(int64) { got++ }),
				}, now)
				want++
			}
			c.Tick(now, func(at int64, addr uint64) {
				// Completions only mutate counters; dispatch late.
				defer c.dispatch(addr, at)
			})
			if want == len(rows) && got == want {
				return true
			}
		}
		return len(rows) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// testMapper is the address mapping of a system whose channel 0 is
// newTestController's and which has one more channel.
func testMapper(t *testing.T) *AddrMapper {
	t.Helper()
	m, err := NewAddrMapper(dram.Default(), 2)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// record is one queued request as a queue section writes it: its
// address, arrival cycle and hook decision, and on a hit the cache row
// and block.
type record struct {
	addr       uint64
	arrive     int64
	dec        int
	row, block int
}

// queueSection returns one section's stream, whose payload write
// writes.
func queueSection(t *testing.T, write func(w *fgss.Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := fgss.NewWriter(&buf, 1, [32]byte{})
	w.Begin(1)
	write(w)
	w.End()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeRecords writes recs as one queue.
func writeRecords(recs []record) func(w *fgss.Writer) {
	return func(w *fgss.Writer) {
		w.Int(len(recs))
		for _, rec := range recs {
			w.U64(rec.addr)
			w.I64(rec.arrive)
			w.Int(rec.dec)
			if rec.dec == decHit {
				w.Int(rec.row)
				w.Int(rec.block)
			}
		}
	}
}

// TestQueueRestoreRejects checks that a hand-built queue section holding
// a request Enqueue never queues at the controller is a decode error:
// an address that is not a block of the memory or belongs to another
// channel, a read of a block with no miss outstanding, arrivals out of
// order, a hook decision without a hook, an unknown decision, a hit
// outside its bank, or more requests than the queue holds. A
// well-formed section restores its requests oldest first, each carrying
// the location its address decodes to, and snapshots to its own bytes.
func TestQueueRestoreRejects(t *testing.T) {
	m := testMapper(t)
	geo := m.Geometry()
	at := func(ch, bank, row, block int) uint64 {
		return m.Encode(ch, dram.Location{Bank: bank, Row: row, Block: block})
	}
	read := func(bank, i int) record { return record{addr: at(0, bank, 7, i), arrive: int64(i)} }
	wellFormed := []record{read(0, 0), {at(0, 1, 7, 1), 1, decDeclined, 0, 0}, {at(0, 2, 7, 2), 1, decHit, 3, 5}, read(0, 3)}
	noMiss := at(0, 3, 7, 0)
	cases := []struct {
		name     string
		hookless bool
		writes   bool // restore into a write queue
		recs     []record
		wantErr  string
	}{
		{name: "well-formed", recs: wellFormed},
		{name: "well-formed writes", writes: true, recs: []record{{addr: noMiss}, {noMiss, 2, decHit, 0, 127}}},
		{name: "well-formed without a hook", hookless: true, recs: []record{read(0, 0), read(1, 1)}},
		{name: "more requests than the queue holds", recs: []record{read(0, 0), read(0, 1), read(0, 2), read(0, 3), read(0, 4)},
			wantErr: "more than the queue's 4 entries"},
		{name: "address not block aligned", recs: []record{{addr: at(0, 0, 7, 0) + 8}},
			wantErr: fmt.Sprintf("memctrl: request %#x is not a block of the %d-byte memory", at(0, 0, 7, 0)+8, m.TotalBytes())},
		{name: "address past the memory", recs: []record{{addr: uint64(m.TotalBytes())}},
			wantErr: "is not a block of the"},
		{name: "address of another channel", recs: []record{read(0, 0), {addr: at(1, 0, 7, 1), arrive: 1}},
			wantErr: fmt.Sprintf("controller 0: request %#x belongs to channel 1", at(1, 0, 7, 1))},
		{name: "read with no miss outstanding", recs: []record{read(0, 0), {addr: noMiss, arrive: 1}},
			wantErr: fmt.Sprintf("read %#x fetches a block the cache above has no miss outstanding for", noMiss)},
		{name: "arrivals out of order", recs: []record{read(0, 2), read(1, 1)},
			wantErr: "arrives at bus cycle 1, before the request ahead of it (2)"},
		{name: "negative arrival", recs: []record{{addr: at(0, 0, 7, 0), arrive: -1}},
			wantErr: "arrives at bus cycle -1, before the request ahead of it (0)"},
		{name: "hit without a hook", hookless: true, recs: []record{{at(0, 2, 7, 2), 0, decHit, 3, 5}},
			wantErr: "hook decision 2 on a controller without an in-DRAM cache"},
		{name: "declined insertion without a hook", hookless: true, writes: true, recs: []record{{at(0, 2, 7, 2), 0, decDeclined, 0, 0}},
			wantErr: "hook decision 1 on a controller without an in-DRAM cache"},
		{name: "unknown decision", recs: []record{{at(0, 2, 7, 2), 0, 3, 0, 0}},
			wantErr: "unknown hook decision 3"},
		{name: "hit past the bank's rows", recs: []record{{at(0, 2, 7, 2), 0, decHit, geo.RowsPerBank(), 0}},
			wantErr: fmt.Sprintf("hit on cache row %d block 0, outside the bank", geo.RowsPerBank())},
		{name: "hit past the row's blocks", recs: []record{{at(0, 2, 7, 2), 0, decHit, 3, geo.BlocksPerRow()}},
			wantErr: fmt.Sprintf("hit on cache row 3 block %d, outside the bank", geo.BlocksPerRow())},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var hook CacheHook = &fakeCache{cached: map[uint64]dram.Location{}}
			if tc.hookless {
				hook = nil
			}
			c := newTestController(t, hook)
			q := newQueue(4)
			in := queueSection(t, writeRecords(tc.recs))
			r, err := fgss.NewReader(bytes.NewReader(in), 1, [32]byte{})
			if err != nil {
				t.Fatal(err)
			}
			r.Section(1)
			c.restore(r, q, tc.writes, m, func(blk uint64) bool { return blk != noMiss })
			r.EndSection()
			err = r.Close()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("restore error = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if q.size() != len(tc.recs) {
				t.Fatalf("restored %d requests, want %d", q.size(), len(tc.recs))
			}
			for i, got := range q.reqs {
				rec := tc.recs[i]
				ch, loc := m.Decode(rec.addr)
				service := loc
				if rec.dec == decHit {
					service.Row, service.Block, service.CacheRow = rec.row, rec.block, true
				}
				if ch != 0 || got.Addr != rec.addr || got.Loc != loc || got.ServiceLoc != service || got.bankID != loc.BankID(geo) ||
					got.IsWrite != tc.writes || got.Arrive != rec.arrive || got.CacheHit != (rec.dec == decHit) || got.noInsert != (rec.dec == decDeclined) {
					t.Errorf("request %d: restored %+v from %+v", i, *got, rec)
				}
			}
			if !bytes.Equal(queueSection(t, q.snapshot), in) {
				t.Error("the restored queue snapshots other bytes than it was restored from")
			}
		})
	}
}

// TestRestoreDerivesRequests checks that a queued request's snapshot
// carries its address, arrival and the hook's decision, and that restore
// derives the rest from them: requests queued with locations that
// disagree with their addresses come back with the locations and banks
// the addresses decode to, a hit with its cache row and block in that
// bank, and a miss served where it lives.
func TestRestoreDerivesRequests(t *testing.T) {
	m := testMapper(t)
	fc := &fakeCache{cached: map[uint64]dram.Location{}, insertAll: true}
	c := newTestController(t, fc)
	hitLoc := dram.Location{Bank: 2, Row: 9, Block: 3}
	fc.cached[key(hitLoc)] = dram.Location{Bank: 2, Row: 1, CacheRow: true}
	// Each request is queued at a location in bank 5 that its address
	// does not decode to; restore serves it where the address says.
	wrong := dram.Location{Bank: 5, Row: 100, Block: 1}
	hit := &Request{Addr: m.Encode(0, hitLoc), Loc: hitLoc}
	c.Enqueue(hit, 3)
	hit.Loc, hit.bankID = wrong, wrong.BankID(m.Geometry())
	miss := &Request{Addr: m.Encode(0, dram.Location{Bank: 1, Row: 4, Block: 6}), Loc: wrong}
	c.Enqueue(miss, 4)
	write := &Request{Addr: m.Encode(0, dram.Location{Group: 1, Row: 2}), Loc: wrong, IsWrite: true}
	c.Enqueue(write, 5)

	dst := restoreInto(t, c.Controller, nil, m)
	want := []struct {
		r       *Request
		service dram.Location
	}{
		{hit, dram.Location{Bank: 2, Row: 1, Block: 3, CacheRow: true}},
		{miss, dram.Location{Bank: 1, Row: 4, Block: 6}},
		{write, dram.Location{Group: 1, Row: 2}},
	}
	got := append(slices.Clone(dst.readQ.reqs), dst.writeQ.reqs...)
	if len(got) != len(want) {
		t.Fatalf("restored %d requests, want %d", len(got), len(want))
	}
	for i, w := range want {
		ch, loc := m.Decode(w.r.Addr)
		g := got[i]
		if ch != 0 || g.Addr != w.r.Addr || g.Loc != loc || g.ServiceLoc != w.service || g.bankID != w.service.BankID(m.Geometry()) ||
			g.bank != dst.channel.BankByID(g.bankID) || g.IsWrite != w.r.IsWrite || g.Arrive != w.r.Arrive || g.CacheHit != w.r.CacheHit {
			t.Errorf("request %d: restored %+v, want address %#x at %v served at %v", i, *g, w.r.Addr, loc, w.service)
		}
	}
}

// TestFRFCFSOldestRequestClaimsBank pins FR-FCFS's bank claim: a bank
// belongs to its oldest queued request, so a younger request to another
// row must not precharge the row an older request is waiting on, even
// on a tick where the precharge is ready and the older request's read is
// not.
func TestFRFCFSOldestRequestClaimsBank(t *testing.T) {
	c := newTestController(t, nil)
	ch := c.Channel()
	issue := func(typ dram.CmdType, loc dram.Location, now int64) {
		t.Helper()
		cmd := dram.Command{Type: typ, Loc: loc}
		if at, ok := ch.CanIssue(&cmd, now); !ok || at > now {
			t.Fatalf("%v at cycle %d: not issuable until %d (ok %v)", typ, now, at, ok)
		}
		ch.Issue(&cmd, now)
	}
	bank0 := dram.Location{Bank: 0, Row: 1}
	issue(dram.CmdACT, dram.Location{Bank: 1, Row: 5}, 0)
	issue(dram.CmdACT, bank0, 5)
	// Write-to-read turnaround holds bank 0's read to cycle 49.
	issue(dram.CmdWR, dram.Location{Bank: 1, Row: 5}, 30)
	const now = 33
	if at, _ := ch.BankByID(0).CanPRE(now); at > now {
		t.Fatalf("bank 0 cannot precharge until %d; the test needs tRAS met at %d", at, now)
	}
	if at, _ := ch.CanColumn(ch.BankByID(0), &bank0, false, now); at != 49 {
		t.Fatalf("bank 0's read is ready at %d, want 49", at)
	}
	c.Enqueue(&Request{Loc: bank0}, now)
	c.Enqueue(&Request{Loc: dram.Location{Bank: 0, Row: 2}}, now)
	next := c.Tick(now, func(int64, uint64) {})
	if row, _ := ch.BankByID(0).Open(); row != 1 {
		t.Fatalf("bank 0 holds row %d after the tick, want row 1 (the younger request precharged the older one's row)", row)
	}
	if next != 49 {
		t.Errorf("next-work probe = %d, want 49 (the older request's read)", next)
	}
}

// TestWriteDrainFRFCFSOrder pins the drain scheduling order across banks:
// with symmetric writes queued to two closed banks, the controller must
// serve the oldest request's bank first, and a same-bank row hit must not
// overtake an older request to another open bank (FR-FCFS arbitration is
// by request age among issuable candidates). Writes report no
// completion, so the channel's command trace gives the order.
func TestWriteDrainFRFCFSOrder(t *testing.T) {
	c := newTestController(t, nil)
	c.Channel().TraceOn = true
	// W0 -> bank0/row1, W1 -> bank1/row1, W2 -> bank0/row1 (row hit once
	// bank0 is open). Oldest-first: W0, then W1 (older than the bank0 row
	// hit W2), then W2.
	writes := []dram.Location{{Bank: 0, Row: 1}, {Bank: 1, Row: 1}, {Bank: 0, Row: 1, Block: 1}}
	for _, loc := range writes {
		c.Enqueue(&Request{IsWrite: true, Loc: loc}, 0)
	}
	runUntil(c, 2000, func() bool { return c.PendingWrites() == 0 })
	var order []dram.Location
	for _, tr := range c.Channel().Trace {
		if tr.Cmd.Type == dram.CmdWR {
			order = append(order, tr.Cmd.Loc)
		}
	}
	if !slices.Equal(order, writes) {
		t.Errorf("drain order = %v, want %v (oldest issuable first)", order, writes)
	}
}

// TestReadLatencyPercentiles drives reads through a controller and checks
// its latency reservoir: samples are recorded, and the percentiles the
// reporting tools draw from it are ordered and bracket the mean.
func TestReadLatencyPercentiles(t *testing.T) {
	c := newTestController(t, nil)
	done := 0
	for i := 0; i < 32; i++ {
		r := &Request{Loc: dram.Location{Row: i * 7, Block: i % 16},
			Addr: c.on(func(int64) { done++ })}
		c.Enqueue(r, 0)
	}
	runUntil(c, 100_000, func() bool { return done == 32 })
	if done != 32 {
		t.Fatalf("only %d/32 reads completed", done)
	}
	if n := len(c.LatencySamples()); n != 32 {
		t.Fatalf("reservoir holds %d samples, want 32 (below capacity keeps all)", n)
	}
	ps := stats.WeightedPercentiles([][]int64{c.LatencySamples()}, []int64{c.NumReads}, []float64{0.50, 0.90, 0.99})
	if ps == nil {
		t.Fatal("no percentiles despite completed reads")
	}
	if !(ps[0] <= ps[1] && ps[1] <= ps[2]) {
		t.Errorf("percentiles not monotonic: %v", ps)
	}
	mean := float64(c.ReadLatencySum) / float64(c.NumReads)
	if ps[0] <= 0 || float64(ps[2]) < mean*0.5 {
		t.Errorf("implausible percentiles %v cycles for mean %.1f cycles", ps, mean)
	}
}

// TestControllerRestoreRejects checks that a controller section whose
// last-column registers do not number the channel's banks is a decode
// error. The section ends where restore used to stop decoding without
// an error.
func TestControllerRestoreRejects(t *testing.T) {
	c := newTestController(t, nil)
	banks := c.channel.NumBanks()
	for _, tc := range []struct {
		name    string
		fill    func(w *fgss.Writer)
		wantErr string
	}{
		{"no last-column registers", func(w *fgss.Writer) {
			c.readQ.snapshot(w)
			c.writeQ.snapshot(w)
			w.Bool(false)
			w.Int(0)
		}, fmt.Sprintf("memctrl: last-column registers: 0, want %d", banks)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			w := fgss.NewWriter(&buf, 1, [32]byte{})
			w.Begin(1)
			tc.fill(w)
			w.End()
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			r, err := fgss.NewReader(&buf, 1, [32]byte{})
			if err != nil {
				t.Fatal(err)
			}
			r.Section(1)
			newTestController(t, nil).Restore(r, testMapper(t), func(uint64) bool { return true })
			r.EndSection()
			if err := r.Close(); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("restore error = %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}
