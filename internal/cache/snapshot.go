package cache

import (
	"math"
	"math/bits"

	"repro/internal/ev"
	"repro/internal/fgss"
)

// Snapshot appends one cache level's full mutable state: the count of
// valid lines, then each valid line in set-major, way-minor order as its
// index (set × ways + way), tag, dirty bit and LRU stamp; the LRU clock;
// the outstanding misses with their waiter tokens; and the hit and miss
// counters. An invalid way is all zero — no line is ever invalidated,
// so a way only turns valid, at its first fill — and is not written,
// which keeps a mostly cold LLC's section small. MSHRs are emitted in
// active-slice order — deterministic (allocation and swap-remove order
// is a pure function of the simulated history), so snapshot bytes are
// reproducible.
func (c *Cache) Snapshot(w *fgss.Writer) {
	ways := c.cfg.Ways
	valid := 0
	for s := uint64(0); s < c.setsN; s++ {
		for _, t := range c.set(s)[:ways] {
			if t&lineValid != 0 {
				valid++
			}
		}
	}
	w.Int(valid)
	for s := uint64(0); s < c.setsN; s++ {
		set := c.set(s)
		for i, t := range set[:ways] {
			if t&lineValid == 0 {
				continue
			}
			w.Int(int(s)*ways + i)
			w.U64(uint64(t >> flagBits))
			w.Bool(t&lineDirty != 0)
			w.I64(int64(set[ways+i]))
		}
	}
	w.I64(int64(c.clock))
	snapMSHR := func(m *mshr) {
		w.U64(m.blockAddr)
		w.Bool(m.markDirty)
		w.Int(len(m.waiters))
		for _, t := range m.waiters {
			ev.WriteToken(w, t)
		}
	}
	w.Int(len(c.active))
	for _, m := range c.active {
		snapMSHR(m)
	}
	w.I64(c.Hits)
	w.I64(c.Misses)
}

// Restore reads back what Snapshot wrote. Every way is zeroed first, so
// the lines the snapshot does not list come back invalid. Existing
// outstanding misses are recycled to the free list, then the
// snapshotted set is rebuilt through the normal allocation path. The
// bytes come from disk, so a line index outside the cache or not above
// the previous one, a tag wider than the tag word's 30 bits (or than a
// 64-bit address leaves room for), an LRU stamp or clock outside
// [0, 2^32-1], and a waiter token that names no core or cache node of
// this System, are decode errors (fgss.Reader.Reject), not a wrong block
// address, a truncated stamp or a panic at dispatch; checkTok decides
// which tokens a waiter list may hold.
func (c *Cache) Restore(r *fgss.Reader, checkTok func(ev.Token) error) {
	clear(c.sets)
	ways := c.cfg.Ways
	lines := int(c.setsN) * ways
	maxTag := min(uint64(1)<<tagBits-1, ^uint64(0)>>(c.shift+c.setBits))
	n := r.Len(lines, "cache "+c.cfg.Name+": valid lines")
	for i, prev := 0, -1; i < n && r.Err() == nil; i++ {
		idx, tag, dirty, lru := r.Int(), r.U64(), r.Bool(), r.I64()
		if r.Err() != nil {
			return
		}
		if idx <= prev || idx >= lines {
			r.Reject("cache %s: line index %d is outside [%d,%d), past the previous line and inside the cache", c.cfg.Name, idx, prev+1, lines)
			return
		}
		if tag > maxTag {
			r.Reject("cache %s: line %d tag %#x is wider than %d bits", c.cfg.Name, idx, tag, bits.Len64(maxTag))
			return
		}
		if lru < 0 || lru > math.MaxUint32 {
			r.Reject("cache %s: line %d LRU stamp %d is outside [0,2^32-1]", c.cfg.Name, idx, lru)
			return
		}
		prev = idx
		t := uint32(tag)<<flagBits | lineValid
		if dirty {
			t |= lineDirty
		}
		set, way := c.set(uint64(idx/ways)), idx%ways
		set[way], set[ways+way] = t, uint32(lru)
	}
	clock := r.I64()
	if r.Err() == nil && (clock < 0 || clock > math.MaxUint32) {
		r.Reject("cache %s: LRU clock %d is outside [0,2^32-1]", c.cfg.Name, clock)
		return
	}
	c.clock = uint32(clock)
	for i, m := range c.active {
		m.waiters = m.waiters[:0]
		c.free = append(c.free, m)
		c.active[i] = nil
	}
	c.active = c.active[:0]
	nm := r.Len(math.MaxInt, "cache "+c.cfg.Name+": outstanding misses")
	for i := 0; i < nm && r.Err() == nil; i++ {
		m := c.newMSHR(r.U64(), r.Bool())
		nw := r.Len(math.MaxInt, "cache "+c.cfg.Name+": MSHR waiters")
		for j := 0; j < nw && r.Err() == nil; j++ {
			tok := ev.ReadToken(r)
			if err := checkTok(tok); err != nil && r.Err() == nil {
				r.Reject("cache %s: MSHR %#x waiter %d: %v", c.cfg.Name, m.blockAddr, j, err)
			}
			m.waiters = append(m.waiters, tok)
		}
		c.addMSHR(m)
	}
	c.Hits = r.I64()
	c.Misses = r.I64()
}

// Snapshot appends every level's state in node-ID order — the same
// fixed order the MSHR event tokens identify caches by.
func (h *Hierarchy) Snapshot(w *fgss.Writer) {
	w.Int(len(h.nodes))
	for _, c := range h.nodes {
		c.Snapshot(w)
	}
}

// Restore reads back what Snapshot wrote, level by level in node-ID
// order, accepting only the waiter tokens checkTok accepts. Another
// level count is a decode error.
func (h *Hierarchy) Restore(r *fgss.Reader, checkTok func(ev.Token) error) {
	if !r.Expect(len(h.nodes), "cache: nodes") {
		return
	}
	for _, c := range h.nodes {
		c.Restore(r, checkTok)
	}
}
