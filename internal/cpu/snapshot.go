package cpu

import "repro/internal/fgss"

// Snapshot appends the core's full execution state: the window's head,
// tail and count, the load ring's live entries in age order, each with
// its slot's waiting flag, the buffered trace record, progress, and the
// trace reader's cursor. Slots outside the ring carry no state, so the
// window costs O(loads in flight) bytes. TargetInsts is configuration
// and does not travel in the snapshot.
func (c *Core) Snapshot(w *fgss.Writer) {
	w.Int(c.head)
	w.Int(c.tail)
	w.Int(c.count)
	w.Int(c.pendN)
	for i := 0; i < c.pendN; i++ {
		slot := c.pend[c.ring(c.pendHead+i)]
		w.Int(slot)
		w.Bool(c.waiting[slot])
	}
	w.Int(c.pending.Bubbles)
	w.U64(c.pending.Addr)
	w.Bool(c.pending.IsWrite)
	w.Bool(c.hasPending)
	w.I64(c.Retired)
	w.I64(c.FinishedAt)
	c.trace.Snapshot(w)
}

// Restore reads back what Snapshot wrote. The bytes come from disk, so
// a window that does not fit the receiver's — head or tail outside it,
// count or ring length above its size, tail not count entries past
// head — and a ring slot outside the occupied window, out of age order,
// or a front that is not waiting are decode errors (fgss.Reader.Reject)
// rather than a later panic or a run that never ends.
func (c *Core) Restore(r *fgss.Reader) {
	head, tail, count, n := r.Int(), r.Int(), r.Int(), r.Int()
	if r.Err() != nil {
		return
	}
	if head < 0 || head >= WindowSize || tail < 0 || tail >= WindowSize ||
		count < 0 || count > WindowSize || (head+count)%WindowSize != tail || n < 0 || n > count {
		r.Reject("cpu: core %d: window head %d, tail %d, count %d with %d loads does not fit %d entries",
			c.ID, head, tail, count, n, WindowSize)
		return
	}
	c.head, c.tail, c.count = head, tail, count
	clear(c.waiting)
	c.pendHead, c.pendN = 0, n
	for i, prev := 0, -1; i < n; i++ {
		slot, waiting := r.Int(), r.Bool()
		if r.Err() != nil {
			return
		}
		if slot < 0 || slot >= WindowSize || c.age(slot) >= count || c.age(slot) <= prev || (i == 0 && !waiting) {
			r.Reject("cpu: core %d: load ring entry %d (slot %d, waiting %v) is not an occupied slot in age order behind a waiting front",
				c.ID, i, slot, waiting)
			return
		}
		prev = c.age(slot)
		c.pend[i] = slot
		c.waiting[slot] = waiting
	}
	c.pending.Bubbles = r.Int()
	c.pending.Addr = r.U64()
	c.pending.IsWrite = r.Bool()
	c.hasPending = r.Bool()
	c.Retired = r.I64()
	c.FinishedAt = r.I64()
	c.trace.Restore(r)
}
