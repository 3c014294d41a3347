package cache

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ev"
	"repro/internal/fgss"
)

// testSched is a deterministic event scheduler and token dispatcher for
// unit tests. MSHR tokens route back to the cache under test via node;
// completion tokens invoke the closure registered with tok.
type testSched struct {
	now    int64
	events []tokEvent
	node   func(id int32) *Cache
	done   map[uint64]func(int64)
	nextID uint64
}

type tokEvent struct {
	at  int64
	tok ev.Token
}

// after defers tok by delay cycles.
func (s *testSched) after(delay int64, tok ev.Token) {
	s.events = append(s.events, tokEvent{s.now + delay, tok})
}

// level returns s as the Scheduler of a level with the given lookup
// latency; it is the NewHierarchy scheduler function.
func (s *testSched) level(latency int64) Scheduler { return levelSched{s, latency} }

// levelSched is one level's view of a testSched: it defers every token
// by the level's latency.
type levelSched struct {
	*testSched
	latency int64
}

func (l levelSched) After(tok ev.Token) { l.after(l.latency, tok) }

func (s *testSched) Dispatch(tok ev.Token, now int64) {
	switch tok.Kind {
	case ev.CoreSlot:
		if fn := s.done[tok.Arg]; fn != nil {
			fn(now)
		}
	case ev.MSHRStart:
		s.node(tok.ID).StartFetch(tok.Arg)
	case ev.MSHRFill:
		s.node(tok.ID).Fill(tok.Arg)
	}
}

// tok registers fn and returns a completion token that invokes it when
// dispatched. A nil fn yields the zero token (no completion wanted).
func (s *testSched) tok(fn func(int64)) ev.Token {
	if fn == nil {
		return ev.Token{}
	}
	if s.done == nil {
		s.done = make(map[uint64]func(int64))
	}
	s.nextID++
	s.done[s.nextID] = fn
	return ev.Token{Kind: ev.CoreSlot, Arg: s.nextID}
}

// run advances time, firing due events, until none remain or limit cycles
// pass.
func (s *testSched) run(limit int64) {
	for step := int64(0); step < limit; step++ {
		fired := false
		for i := 0; i < len(s.events); {
			if s.events[i].at <= s.now {
				tok := s.events[i].tok
				s.events = append(s.events[:i], s.events[i+1:]...)
				s.Dispatch(tok, s.now)
				fired = true
			} else {
				i++
			}
		}
		if len(s.events) == 0 && !fired {
			return
		}
		s.now++
	}
}

// memStub is a Backend that completes fetches after a fixed delay.
type memStub struct {
	sched   *testSched
	latency int64
	reads   int
	writes  int
	addrs   []uint64
}

func (m *memStub) Request(addr uint64, isWrite bool, coreID int, onDone ev.Token) {
	m.addrs = append(m.addrs, addr)
	if isWrite {
		m.writes++
		return
	}
	m.reads++
	if !onDone.IsZero() {
		m.sched.after(m.latency, onDone)
	}
}

func smallCfg() Config {
	return Config{Name: "t", SizeBytes: 1024, Ways: 2, BlockBytes: 64, Latency: 2, MSHRs: 4}
}

func newTestCache(t *testing.T, cfg Config) (*Cache, *memStub, *testSched) {
	t.Helper()
	s := &testSched{}
	m := &memStub{sched: s, latency: 20}
	c, err := New(cfg, m, s.level(cfg.Latency), 0)
	if err != nil {
		t.Fatal(err)
	}
	s.node = func(int32) *Cache { return c }
	return c, m, s
}

func TestConfigValidate(t *testing.T) {
	if err := smallCfg().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := smallCfg()
	bad.SizeBytes = 1000 // not divisible by ways*block
	if err := bad.Validate(); err == nil {
		t.Error("accepted non-divisible size")
	}
	bad = smallCfg()
	bad.SizeBytes = 3 * 2 * 64 // 3 sets: not a power of two
	if err := bad.Validate(); err == nil {
		t.Error("accepted non-power-of-two set count")
	}
	// 4 sets of two 48-byte blocks: the set count is a power of two, but
	// a block address mask of ^47 and a shift of 5 would misplace blocks.
	bad = Config{Name: "t", SizeBytes: 384, Ways: 2, BlockBytes: 48, Latency: 2}
	if err := bad.Validate(); err == nil {
		t.Error("accepted a non-power-of-two block size")
	}
}

func TestMissThenHit(t *testing.T) {
	c, m, s := newTestCache(t, smallCfg())
	var firstDone, secondDone int64
	if !c.Access(0x1000, false, s.tok(func(at int64) { firstDone = at + 1 })) {
		t.Fatal("first access refused")
	}
	s.run(1000)
	if firstDone == 0 {
		t.Fatal("miss never completed")
	}
	if m.reads != 1 {
		t.Fatalf("backend reads = %d, want 1", m.reads)
	}
	if !c.Access(0x1000, false, s.tok(func(at int64) { secondDone = at + 1 })) {
		t.Fatal("second access refused")
	}
	s.run(1000)
	if secondDone == 0 {
		t.Fatal("hit never completed")
	}
	if m.reads != 1 {
		t.Errorf("hit went to backend: reads = %d", m.reads)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", c.Hits, c.Misses)
	}
}

func TestMSHRMergesSameBlock(t *testing.T) {
	c, m, s := newTestCache(t, smallCfg())
	done := 0
	for i := 0; i < 3; i++ {
		if !c.Access(0x2000+uint64(i*8), false, s.tok(func(int64) { done++ })) {
			t.Fatalf("access %d refused", i)
		}
	}
	s.run(1000)
	if done != 3 {
		t.Fatalf("completions = %d, want 3", done)
	}
	if m.reads != 1 {
		t.Errorf("backend reads = %d, want 1 (merged)", m.reads)
	}
	if c.Misses != 3 {
		t.Errorf("Misses = %d, want 3 (one fetch, two merges)", c.Misses)
	}
}

func TestMSHRLimitRefuses(t *testing.T) {
	c, _, _ := newTestCache(t, smallCfg())
	for i := 0; i < 4; i++ {
		if !c.Access(uint64(i)*0x1000, false, ev.Token{}) {
			t.Fatalf("access %d refused below MSHR limit", i)
		}
	}
	if c.Access(0x9000, false, ev.Token{}) {
		t.Error("access accepted beyond MSHR limit")
	}
}

// TestRefusedAccessChangesNothing checks that an Access refused because
// every MSHR is busy has no side effect: the cache snapshots the same
// bytes before and after a refused read and a refused write. The skip
// engine relies on it to sleep through a blocked core's retries with
// nothing to replay.
func TestRefusedAccessChangesNothing(t *testing.T) {
	c, _, _ := newTestCache(t, smallCfg())
	for i := 0; i < smallCfg().MSHRs; i++ {
		if !c.Access(uint64(i)*0x1000, false, ev.Token{}) {
			t.Fatalf("access %d refused below MSHR limit", i)
		}
	}
	before := snapshotBytes(t, c.Snapshot)
	for _, isWrite := range []bool{false, true} {
		if c.Access(0x9000, isWrite, ev.Token{Kind: ev.CoreSlot, Arg: 1}) {
			t.Fatalf("write=%v: access accepted with every MSHR busy", isWrite)
		}
		if !bytes.Equal(snapshotBytes(t, c.Snapshot), before) {
			t.Errorf("write=%v: a refused access changed the cache's snapshot bytes", isWrite)
		}
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	cfg := smallCfg()
	c, m, s := newTestCache(t, cfg)
	// Fill both ways of set 0 (set count = 1024/128 = 8; stride 8*64=512).
	c.Access(0x0000, true, ev.Token{}) // write-allocates, dirty
	s.run(1000)
	c.Access(0x0200, false, ev.Token{})
	s.run(1000)
	// Third block in the same set evicts the LRU (0x0000, dirty).
	c.Access(0x0400, false, ev.Token{})
	s.run(1000)
	if m.writes != 1 {
		t.Fatalf("backend writes = %d, want 1", m.writes)
	}
	// The write-back address must be the evicted block's address.
	found := false
	for _, a := range m.addrs {
		if a == 0x0000 {
			found = true
		}
	}
	if !found {
		t.Errorf("write-back address missing: %#x", m.addrs)
	}
	// Re-access of the evicted block misses again.
	c.Access(0x0000, false, ev.Token{})
	s.run(1000)
	if c.Misses != 4 {
		t.Errorf("Misses = %d, want 4", c.Misses)
	}
}

func TestLRUOrdering(t *testing.T) {
	c, _, s := newTestCache(t, smallCfg())
	c.Access(0x0000, false, ev.Token{})
	s.run(1000)
	c.Access(0x0200, false, ev.Token{})
	s.run(1000)
	// Touch 0x0000 so 0x0200 becomes LRU.
	c.Access(0x0000, false, ev.Token{})
	s.run(1000)
	c.Access(0x0400, false, ev.Token{}) // evicts 0x0200
	s.run(1000)
	c.Access(0x0000, false, ev.Token{}) // must still hit
	s.run(1000)
	if c.Hits != 2 {
		t.Errorf("Hits = %d, want 2 (touch + re-access)", c.Hits)
	}
}

func TestWriteMergeIntoOutstandingFetchMarksDirty(t *testing.T) {
	c, m, s := newTestCache(t, smallCfg())
	c.Access(0x0000, false, ev.Token{})
	c.Access(0x0000, true, ev.Token{}) // merges, marks dirty
	s.run(1000)
	// Evict it via two more blocks in set 0; must write back.
	c.Access(0x0200, false, ev.Token{})
	s.run(1000)
	c.Access(0x0400, false, ev.Token{})
	s.run(1000)
	if m.writes != 1 {
		t.Errorf("backend writes = %d, want 1 (merged write dirtied the line)", m.writes)
	}
}

func TestHierarchyPropagatesMisses(t *testing.T) {
	s := &testSched{}
	m := &memStub{sched: s, latency: 50}
	h, err := NewHierarchy(DefaultHierarchyConfig(2), 8<<30, m, s.level)
	if err != nil {
		t.Fatal(err)
	}
	s.node = h.Node
	if len(h.L1s) != 2 || len(h.L2s) != 2 {
		t.Fatalf("hierarchy has %d L1s / %d L2s, want 2/2", len(h.L1s), len(h.L2s))
	}
	done := false
	h.L1s[0].Access(0xABC000, false, s.tok(func(int64) { done = true }))
	s.run(5000)
	if !done {
		t.Fatal("access never completed through the hierarchy")
	}
	if h.L1s[0].Misses != 1 || h.L2s[0].Misses != 1 || h.LLC.Misses != 1 {
		t.Errorf("misses L1/L2/LLC = %d/%d/%d, want 1/1/1",
			h.L1s[0].Misses, h.L2s[0].Misses, h.LLC.Misses)
	}
	if m.reads != 1 {
		t.Errorf("memory reads = %d, want 1", m.reads)
	}
	// A second access from the other core hits in the shared LLC.
	done = false
	h.L1s[1].Access(0xABC000, false, s.tok(func(int64) { done = true }))
	s.run(5000)
	if !done {
		t.Fatal("cross-core access never completed")
	}
	if h.LLC.Hits != 1 {
		t.Errorf("LLC hits = %d, want 1 (shared)", h.LLC.Hits)
	}
	if m.reads != 1 {
		t.Errorf("memory reads = %d, want 1 (LLC absorbed)", m.reads)
	}
}

// TestHierarchyRefusesMemoryPastTagReach checks that NewHierarchy
// builds Table 1's hierarchy over a memory its 30-bit tags reach — 16 TiB
// for the L1, whose ways span the fewest bytes — and refuses one byte
// more with an error naming the level and the bound, where two
// addresses would share a line.
func TestHierarchyRefusesMemoryPastTagReach(t *testing.T) {
	cfg := DefaultHierarchyConfig(1)
	for _, tc := range []struct {
		level Config
		reach uint64
	}{{cfg.L1, 16 << 40}, {cfg.L2, 32 << 40}, {cfg.LLC, 128 << 40}} {
		if got := tc.level.Reach(); got != tc.reach {
			t.Errorf("%s reaches %d bytes, want %d", tc.level.Name, got, tc.reach)
		}
	}
	s := &testSched{}
	m := &memStub{sched: s}
	if _, err := NewHierarchy(cfg, 16<<40, m, s.level); err != nil {
		t.Fatalf("a 16 TiB memory: %v", err)
	}
	const want = "cache L1: 30-bit tags reach 17592186044416 bytes, short of the 17592186044417-byte memory"
	if _, err := NewHierarchy(cfg, 16<<40+1, m, s.level); err == nil || err.Error() != want {
		t.Errorf("a memory one byte past 16 TiB: error %v, want %q", err, want)
	}
}

func TestLLCMPKI(t *testing.T) {
	s := &testSched{}
	m := &memStub{sched: s, latency: 10}
	h, err := NewHierarchy(DefaultHierarchyConfig(1), 4<<30, m, s.level)
	if err != nil {
		t.Fatal(err)
	}
	s.node = h.Node
	for i := 0; i < 10; i++ {
		h.L1s[0].Access(uint64(i)*1<<20, false, ev.Token{})
		s.run(1000)
	}
	if got := h.LLCMPKI(1000); got != 10 {
		t.Errorf("LLCMPKI = %g, want 10", got)
	}
}

// Property: for any access sequence, hits+misses equals accesses, and the
// number of distinct blocks fetched never exceeds the number of misses.
func TestPropertyCacheAccounting(t *testing.T) {
	f := func(addrs []uint32) bool {
		s := &testSched{}
		m := &memStub{sched: s, latency: 5}
		c, err := New(smallCfg(), m, s.level(smallCfg().Latency), 0)
		if err != nil {
			return false
		}
		s.node = func(int32) *Cache { return c }
		accepted := int64(0)
		for _, a := range addrs {
			if c.Access(uint64(a), a%5 == 0, ev.Token{}) {
				accepted++
			}
			s.run(100)
		}
		return c.Hits+c.Misses == accepted && int64(m.reads) <= c.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// lineOracle is the cache's earlier layout, kept as the reference the
// packed sets are checked against: one 24-byte line per way holding tag,
// valid and dirty flags and LRU stamp, and the tag computed by a divide.
// It keeps the MSHR bookkeeping of Cache, without the free list, which
// no observable state depends on, and its LRU clock advances only when
// a hit or a fill writes a stamp.
type lineOracle struct {
	cfg    Config
	lines  []oracleLine
	setsN  uint64
	shift  uint
	next   Backend
	sched  Scheduler
	active []*oracleMSHR
	clock  int64

	Hits, Misses int64
}

type oracleLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   int64
}

type oracleMSHR struct {
	blockAddr uint64
	waiters   []ev.Token
	markDirty bool
}

func newLineOracle(cfg Config, next Backend, sched Scheduler) *lineOracle {
	setsN := cfg.SizeBytes / (cfg.Ways * cfg.BlockBytes)
	o := &lineOracle{cfg: cfg, lines: make([]oracleLine, setsN*cfg.Ways), setsN: uint64(setsN), next: next, sched: sched}
	for b := cfg.BlockBytes; b > 1; b >>= 1 {
		o.shift++
	}
	return o
}

func (o *lineOracle) set(idx uint64) []oracleLine {
	w := uint64(o.cfg.Ways)
	return o.lines[idx*w : idx*w+w]
}

func (o *lineOracle) setAndTag(addr uint64) (uint64, uint64) {
	block := addr >> o.shift
	return block & (o.setsN - 1), block / o.setsN
}

func (o *lineOracle) blockAddr(addr uint64) uint64 { return addr &^ (uint64(o.cfg.BlockBytes) - 1) }

func (o *lineOracle) findMSHR(blk uint64) *oracleMSHR {
	for _, m := range o.active {
		if m.blockAddr == blk {
			return m
		}
	}
	return nil
}

func (o *lineOracle) Access(addr uint64, isWrite bool, onDone ev.Token) bool {
	setIdx, tag := o.setAndTag(addr)
	set := o.set(setIdx)
	for i := range set {
		if set[i].tag == tag && set[i].valid {
			o.clock++
			set[i].lru = o.clock
			if isWrite {
				set[i].dirty = true
			}
			o.Hits++
			if !onDone.IsZero() {
				o.sched.After(onDone)
			}
			return true
		}
	}
	blk := o.blockAddr(addr)
	if m := o.findMSHR(blk); m != nil {
		o.Misses++
		if isWrite {
			m.markDirty = true
		}
		if !onDone.IsZero() {
			m.waiters = append(m.waiters, onDone)
		}
		return true
	}
	if o.cfg.MSHRs > 0 && len(o.active) >= o.cfg.MSHRs {
		return false
	}
	o.Misses++
	m := &oracleMSHR{blockAddr: blk, markDirty: isWrite}
	if !onDone.IsZero() {
		m.waiters = append(m.waiters, onDone)
	}
	o.active = append(o.active, m)
	o.sched.After(ev.Token{Kind: ev.MSHRStart, Arg: blk})
	return true
}

func (o *lineOracle) CanAccept(addr uint64) bool {
	if o.cfg.MSHRs == 0 || len(o.active) < o.cfg.MSHRs {
		return true
	}
	setIdx, tag := o.setAndTag(addr)
	for _, l := range o.set(setIdx) {
		if l.tag == tag && l.valid {
			return true
		}
	}
	return o.findMSHR(o.blockAddr(addr)) != nil
}

func (o *lineOracle) Fill(blk uint64) {
	setIdx, tag := o.setAndTag(blk)
	set := o.set(setIdx)
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid && set[victim].dirty {
		o.next.Request((set[victim].tag*o.setsN+setIdx)<<o.shift, true, 0, ev.Token{})
	}
	o.clock++
	var m *oracleMSHR
	for i, a := range o.active {
		if a.blockAddr == blk {
			m = a
			last := len(o.active) - 1
			o.active[i] = o.active[last]
			o.active = o.active[:last]
			break
		}
	}
	set[victim] = oracleLine{tag: tag, valid: true, dirty: m.markDirty, lru: o.clock}
	for _, w := range m.waiters {
		o.sched.Dispatch(w, 0)
	}
}

// Snapshot writes the bytes Cache.Snapshot writes for the same state:
// the valid lines only, each with its index.
func (o *lineOracle) Snapshot(w *fgss.Writer) {
	valid := 0
	for _, l := range o.lines {
		if l.valid {
			valid++
		}
	}
	w.Int(valid)
	for i, l := range o.lines {
		if l.valid {
			w.Int(i)
			w.U64(l.tag)
			w.Bool(l.dirty)
			w.I64(l.lru)
		}
	}
	w.I64(o.clock)
	w.Int(len(o.active))
	for _, m := range o.active {
		w.U64(m.blockAddr)
		w.Bool(m.markDirty)
		w.Int(len(m.waiters))
		for _, t := range m.waiters {
			w.U64(uint64(t.Kind))
			w.I64(int64(t.ID))
			w.U64(t.Arg)
		}
	}
	w.I64(o.Hits)
	w.I64(o.Misses)
}

// traceLog records, as text, every downstream request, scheduled token
// and dispatched waiter of one cache, so two caches' observable
// behaviour compares as one slice.
type traceLog struct{ log []string }

func (l *traceLog) Request(addr uint64, isWrite bool, coreID int, onDone ev.Token) {
	l.log = append(l.log, fmt.Sprintf("request %#x write=%v %+v", addr, isWrite, onDone))
}

func (l *traceLog) After(tok ev.Token) {
	l.log = append(l.log, fmt.Sprintf("after %+v", tok))
}

func (l *traceLog) Dispatch(tok ev.Token, now int64) {
	l.log = append(l.log, fmt.Sprintf("dispatch %+v", tok))
}

// snapshotBytes returns one section holding what snap writes.
func snapshotBytes(t testing.TB, snap func(*fgss.Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := fgss.NewWriter(&buf, 1, [32]byte{})
	w.Begin(1)
	snap(w)
	w.End()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// diffConfigs are the shapes the differential test drives: 4-, 8- and
// 16-way caches of a few sets, bounded and unbounded.
var diffConfigs = []Config{
	{Name: "4way", SizeBytes: 8 * 4 * 64, Ways: 4, BlockBytes: 64, Latency: 4, MSHRs: 8},
	{Name: "8way", SizeBytes: 4 * 8 * 64, Ways: 8, BlockBytes: 64, Latency: 12},
	{Name: "16way", SizeBytes: 4 * 16 * 64, Ways: 16, BlockBytes: 64, Latency: 38, MSHRs: 3},
}

// lruOrder lists, set by set, each valid way from the least to the most
// recently used (ties in way order, as Fill breaks them) as
// tag<<16 | way<<1 | dirty, closing each set with ^0: the state Fill's
// victim choice and write-backs read, without the stamps' values.
func lruOrder(sets uint64, ways int, line func(set uint64, way int) (tag uint64, valid, dirty bool, stamp int64)) []uint64 {
	var out []uint64
	order := make([]int, 0, ways)
	stamps := make([]int64, ways)
	for s := uint64(0); s < sets; s++ {
		order = order[:0]
		for w := 0; w < ways; w++ {
			if _, valid, _, stamp := line(s, w); valid {
				order = append(order, w)
				stamps[w] = stamp
			}
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(stamps[a], stamps[b]) })
		for _, w := range order {
			tag, _, dirty, _ := line(s, w)
			e := tag<<16 | uint64(w)<<1
			if dirty {
				e |= 1
			}
			out = append(out, e)
		}
		out = append(out, ^uint64(0))
	}
	return out
}

func (c *Cache) lruOrder() []uint64 {
	return lruOrder(c.setsN, c.cfg.Ways, func(s uint64, w int) (uint64, bool, bool, int64) {
		set := c.set(s)
		t := set[w]
		return uint64(t >> flagBits), t&lineValid != 0, t&lineDirty != 0, int64(set[c.cfg.Ways+w])
	})
}

func (o *lineOracle) lruOrder() []uint64 {
	return lruOrder(o.setsN, o.cfg.Ways, func(s uint64, w int) (uint64, bool, bool, int64) {
		l := o.set(s)[w]
		return l.tag, l.valid, l.dirty, l.lru
	})
}

// sameMisses reports whether c holds the oracle's outstanding misses, in
// the same order, and its hit and miss counts.
func (o *lineOracle) sameMisses(c *Cache) bool {
	if len(c.active) != len(o.active) || c.Hits != o.Hits || c.Misses != o.Misses {
		return false
	}
	for i, m := range o.active {
		a := c.active[i]
		if a.blockAddr != m.blockAddr || a.markDirty != m.markDirty || !slices.Equal(a.waiters, m.waiters) {
			return false
		}
	}
	return true
}

// diffAgainstOracle decodes ops into a sequence of Access, CanAccept and
// Fill calls, applies each to a Cache and to the line oracle built for
// the same configuration, both with their LRU clocks at clock, and fails
// on the first difference in a return value, a downstream request
// (write-backs carry the victim's address) or a scheduled or dispatched
// token; in the Snapshot bytes (which hold every way's tag, flags and
// LRU stamp, so they name the victim too) while the two clocks agree,
// and once a renumbering has split them, in the sets' LRU order, the
// outstanding misses or the counters; and on any change to the Cache's
// Snapshot bytes across a refused Access. It then restores the final
// snapshot into a fresh Cache and requires the same bytes back. It
// reports whether the oracle's clock passed 2^32-1, so the Cache
// renumbered.
func diffAgainstOracle(t testing.TB, cfg Config, ops []byte, clock uint32) (wrapped bool) {
	t.Helper()
	var gotLog, wantLog traceLog
	c, err := New(cfg, &gotLog, &gotLog, 0)
	if err != nil {
		t.Fatal(err)
	}
	o := newLineOracle(cfg, &wantLog, &wantLog)
	c.clock, o.clock = clock, int64(clock)
	// The top five bits of a block number just inside Config.Reach: the
	// five top bits of the tag.
	far := uint(bits.TrailingZeros64(cfg.Reach()/uint64(cfg.BlockBytes))) - 5
	prev := snapshotBytes(t, c.Snapshot)
	for n := 0; len(ops) >= 3; n++ {
		op, v := ops[0], uint64(ops[1])|uint64(ops[2])<<8
		ops = ops[3:]
		// A small pool of blocks makes hits, merges and evictions
		// common; the top bits of v move some blocks to the far end of
		// the address space the tags reach, where the tag is widest.
		block := v & 0x3ff
		if v&0x8000 != 0 {
			block |= (v >> 10 & 0x1f) << far
		}
		addr := block<<6 | uint64(op>>3&63)
		var tok ev.Token
		if op&4 != 0 {
			tok = ev.Token{Kind: ev.CoreSlot, Arg: uint64(n)}
		}
		var what string
		refused := false
		switch op % 4 {
		case 0, 3:
			what = fmt.Sprintf("Access(%#x, %v)", addr, op&128 != 0)
			got, want := c.Access(addr, op&128 != 0, tok), o.Access(addr, op&128 != 0, tok)
			if got != want {
				t.Fatalf("op %d: %s = %v, oracle %v", n, what, got, want)
			}
			refused = !got
		case 1:
			what = fmt.Sprintf("CanAccept(%#x)", addr)
			if got, want := c.CanAccept(addr), o.CanAccept(addr); got != want {
				t.Fatalf("op %d: %s = %v, oracle %v", n, what, got, want)
			}
		case 2:
			if len(o.active) == 0 {
				continue
			}
			blk := o.active[int(v)%len(o.active)].blockAddr
			what = fmt.Sprintf("Fill(%#x)", blk)
			c.Fill(blk)
			o.Fill(blk)
		}
		if !slices.Equal(gotLog.log, wantLog.log) {
			t.Fatalf("op %d: %s: downstream effects diverge:\n got: %q\nwant: %q", n, what, gotLog.log, wantLog.log)
		}
		gotLog.log, wantLog.log = gotLog.log[:0], wantLog.log[:0]
		got := snapshotBytes(t, c.Snapshot)
		switch {
		case int64(c.clock) == o.clock:
			if !bytes.Equal(got, snapshotBytes(t, o.Snapshot)) {
				t.Fatalf("op %d: %s: snapshot bytes diverge from the line oracle's", n, what)
			}
		case !slices.Equal(c.lruOrder(), o.lruOrder()):
			t.Fatalf("op %d: %s: the sets' LRU order diverges from the line oracle's", n, what)
		case !o.sameMisses(c):
			t.Fatalf("op %d: %s: outstanding misses or counters diverge from the line oracle's", n, what)
		}
		if refused && !bytes.Equal(got, prev) {
			t.Fatalf("op %d: refused %s changed the snapshot bytes", n, what)
		}
		prev = got
	}

	snap := snapshotBytes(t, c.Snapshot)
	fresh, err := New(cfg, &gotLog, &gotLog, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := fgss.NewReader(bytes.NewReader(snap), 1, [32]byte{})
	if err != nil {
		t.Fatal(err)
	}
	r.Section(1)
	fresh.Restore(r, func(ev.Token) error { return nil })
	r.EndSection()
	if err := r.Close(); err != nil {
		t.Fatalf("restoring the final snapshot: %v", err)
	}
	if !bytes.Equal(snapshotBytes(t, fresh.Snapshot), snap) {
		t.Fatal("a restored cache snapshots different bytes")
	}
	return o.clock > math.MaxUint32
}

// TestPackedSetsMatchLineOracle drives the packed cache and the line
// oracle through the same random operation sequences on 4-, 8- and
// 16-way configurations.
func TestPackedSetsMatchLineOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range diffConfigs {
		t.Run(cfg.Name, func(t *testing.T) {
			for run := 0; run < 20; run++ {
				ops := make([]byte, 3*2000)
				rng.Read(ops)
				diffAgainstOracle(t, cfg, ops, 0)
			}
		})
	}
}

// TestLRUClockWrapMatchesLineOracle starts the LRU clocks of the packed
// cache and of the line oracle, whose clock is 64 bits wide, a few
// hundred stamps below 2^32 and drives both through the same random
// operations past the point where the cache renumbers its stamps: every
// return value, downstream effect and set's LRU order must stay the
// oracle's.
func TestLRUClockWrapMatchesLineOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, cfg := range diffConfigs {
		t.Run(cfg.Name, func(t *testing.T) {
			for run := 0; run < 20; run++ {
				ops := make([]byte, 3*2000)
				rng.Read(ops)
				if !diffAgainstOracle(t, cfg, ops, math.MaxUint32-uint32(rng.Intn(300))) {
					t.Fatalf("run %d: the LRU clock never passed 2^32-1", run)
				}
			}
		})
	}
}

// FuzzPackedSetsMatchLineOracle is TestPackedSetsMatchLineOracle on
// fuzz-chosen operation sequences; the first byte picks the
// configuration.
func FuzzPackedSetsMatchLineOracle(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 0, 128, 1, 0})
	f.Add([]byte{1, 4, 255, 255, 6, 255, 255, 133, 7, 0, 2, 0, 0})
	f.Add([]byte{2, 0, 16, 0, 0, 16, 1, 0, 16, 2, 0, 16, 3, 2, 1, 0, 2, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		diffAgainstOracle(t, diffConfigs[int(data[0])%len(diffConfigs)], data[1:], 0)
	})
}

// TestRestoreRejects checks that a hand-built cache section holding a
// line index out of range or not ascending, a line tag wider than the
// tag word's 30 bits, an LRU stamp or clock outside [0,2^32-1], or an
// MSHR waiter token the caller's check refuses, is a decode error, and
// that a well-formed one restores its lines and leaves the unlisted
// ways invalid.
func TestRestoreRejects(t *testing.T) {
	cfg := smallCfg() // 8 sets of 2 ways, 64-byte blocks: 30-bit tags
	errBadTok := fmt.Errorf("no such core")
	// section lists lines with the given tag and LRU stamps stamp,
	// stamp+1, ..., then the clock and one MSHR with one waiter.
	section := func(lines []int, tag uint64, stamp, clock int64, waiter ev.Token) *fgss.Reader {
		var buf bytes.Buffer
		w := fgss.NewWriter(&buf, 1, [32]byte{})
		w.Begin(1)
		w.Int(len(lines))
		for i, idx := range lines {
			w.Int(idx)
			w.U64(tag)
			w.Bool(false)
			w.I64(stamp + int64(i))
		}
		w.I64(clock)
		w.Int(1) // one MSHR with one waiter
		w.U64(0x40)
		w.Bool(false)
		w.Int(1)
		w.U64(uint64(waiter.Kind))
		w.I64(int64(waiter.ID))
		w.U64(waiter.Arg)
		w.I64(0) // hits
		w.I64(0) // misses
		w.End()
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := fgss.NewReader(&buf, 1, [32]byte{})
		if err != nil {
			t.Fatal(err)
		}
		r.Section(1)
		return r
	}
	check := func(tok ev.Token) error {
		if tok.ID != 0 {
			return errBadTok
		}
		return nil
	}
	validWays := func(c *Cache) int {
		n := 0
		for s := uint64(0); s < c.setsN; s++ {
			for _, w := range c.set(s)[:c.cfg.Ways] {
				if w&lineValid != 0 {
					n++
				}
			}
		}
		return n
	}
	good := ev.Token{Kind: ev.CoreSlot, Arg: 1}
	lines := []int{0, 5, 15}
	const top = math.MaxUint32 // the largest stamp and clock
	for _, tc := range []struct {
		name         string
		lines        []int
		tag          uint64
		stamp, clock int64
		waiter       ev.Token
		wantErr      string
	}{
		{"well-formed", lines, 1<<30 - 1, 1, 16, good, ""},
		{"stamps and clock at the top", lines, 7, top - 2, top, good, ""},
		{"line past the cache", []int{0, 16}, 7, 1, 16, good, "line index 16 is outside [1,16)"},
		{"negative line", []int{-1}, 7, 1, 16, good, "line index -1 is outside [0,16)"},
		{"line repeated", []int{3, 3}, 7, 1, 16, good, "line index 3 is outside [4,16)"},
		{"lines out of order", []int{5, 2}, 7, 1, 16, good, "line index 2 is outside [6,16)"},
		{"tag too wide", lines, 1 << 30, 1, 16, good, "is wider than 30 bits"},
		{"stamp past 32 bits", lines, 7, top - 1, top, good, "line 15 LRU stamp 4294967296 is outside [0,2^32-1]"},
		{"negative stamp", lines, 7, -1, 16, good, "line 0 LRU stamp -1 is outside [0,2^32-1]"},
		{"clock past 32 bits", lines, 7, 1, top + 1, good, "LRU clock 4294967296 is outside [0,2^32-1]"},
		{"negative clock", lines, 7, 1, -1, good, "LRU clock -1 is outside [0,2^32-1]"},
		{"refused waiter", lines, 7, 1, 16, ev.Token{Kind: ev.CoreSlot, ID: 4, Arg: 1}, "no such core"},
	} {
		c, _, _ := newTestCache(t, cfg)
		// Fill every way first: the restore must invalidate the ways the
		// section does not list.
		for blk := uint64(0); blk < 16; blk++ {
			c.Access(blk<<6, false, ev.Token{})
			c.Fill(blk << 6)
		}
		if n := validWays(c); n != 16 {
			t.Fatalf("%s: setup filled %d of 16 ways", tc.name, n)
		}
		r := section(tc.lines, tc.tag, tc.stamp, tc.clock, tc.waiter)
		c.Restore(r, check)
		r.EndSection()
		err := r.Close()
		if (err == nil) != (tc.wantErr == "") || err != nil && !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: restore error = %v, want %q", tc.name, err, tc.wantErr)
		}
		if err != nil {
			continue
		}
		if n := validWays(c); n != len(tc.lines) {
			t.Errorf("%s: %d valid ways after restore, want the %d listed", tc.name, n, len(tc.lines))
		}
	}
}
