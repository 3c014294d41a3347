package cache

import (
	"repro/internal/ev"
	"repro/internal/fgss"
)

// Snapshot appends one cache level's full mutable state: every line,
// the LRU clock, the outstanding misses with their waiter tokens, and
// the statistics counters. MSHRs are emitted in active-slice order —
// deterministic (allocation and swap-remove order is a pure function of
// the simulated history), so snapshot bytes are reproducible.
func (c *Cache) Snapshot(w *fgss.Writer) {
	w.Int(len(c.lines))
	for i := range c.lines {
		l := &c.lines[i]
		w.U64(l.tag)
		w.Bool(l.valid)
		w.Bool(l.dirty)
		w.I64(l.lru)
	}
	w.I64(c.clock)
	snapMSHR := func(m *mshr) {
		w.U64(m.blockAddr)
		w.Bool(m.markDirty)
		w.Int(len(m.waiters))
		for _, t := range m.waiters {
			w.U64(uint64(t.Kind))
			w.I64(int64(t.ID))
			w.U64(t.Arg)
		}
	}
	w.Int(len(c.active))
	for _, m := range c.active {
		snapMSHR(m)
	}
	w.I64(c.Hits)
	w.I64(c.Misses)
	w.I64(c.WriteBacks)
	w.I64(c.MSHRMerges)
	w.I64(c.MSHRFullStalls)
	w.I64(c.ReadAcc)
	w.I64(c.WriteAcc)
}

// Restore reads back what Snapshot wrote. Existing outstanding misses
// are recycled to the free list first, then the snapshotted set is
// rebuilt through the normal allocation path. The receiver must have the
// snapshotted line count (a mismatch stops decoding).
func (c *Cache) Restore(r *fgss.Reader) {
	n := r.Int()
	if n != len(c.lines) {
		return
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		l := &c.lines[i]
		l.tag = r.U64()
		l.valid = r.Bool()
		l.dirty = r.Bool()
		l.lru = r.I64()
	}
	c.clock = r.I64()
	for i, m := range c.active {
		m.waiters = m.waiters[:0]
		c.free = append(c.free, m)
		c.active[i] = nil
	}
	c.active = c.active[:0]
	nm := r.Int()
	for i := 0; i < nm && r.Err() == nil; i++ {
		m := c.newMSHR(r.U64(), r.Bool())
		nw := r.Int()
		for j := 0; j < nw && r.Err() == nil; j++ {
			kind := ev.Kind(r.U64())
			id := int32(r.I64())
			m.waiters = append(m.waiters, ev.Token{Kind: kind, ID: id, Arg: r.U64()})
		}
		c.addMSHR(m)
	}
	c.Hits = r.I64()
	c.Misses = r.I64()
	c.WriteBacks = r.I64()
	c.MSHRMerges = r.I64()
	c.MSHRFullStalls = r.I64()
	c.ReadAcc = r.I64()
	c.WriteAcc = r.I64()
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
// order.
func (h *Hierarchy) Restore(r *fgss.Reader) {
	if r.Int() != len(h.nodes) {
		return
	}
	for _, c := range h.nodes {
		c.Restore(r)
	}
}
