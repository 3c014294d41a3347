package core

import (
	"sort"

	"repro/internal/fgss"
)

// sortedKeys returns a map's keys in ascending order, so snapshot
// output is byte-identical across runs regardless of map iteration
// order.
func sortedKeys[K ~int | ~uint64, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	//fglint:deterministic keys are sorted before use
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Snapshot appends the tag store's mutable state: the count of valid
// entries, then each valid entry in slot order as its slot, tag, dirty
// bit, benefit counter and last use; the logical clock; the reserved
// slots; and the hit/miss counters. An invalid slot is all zero —
// Evict zeroes the entry — and is not written. The index is derived
// and rebuilt on restore.
func (f *FTS) Snapshot(w *fgss.Writer) {
	valid := 0
	for i := range f.entries {
		if f.entries[i].valid {
			valid++
		}
	}
	w.Int(valid)
	for i := range f.entries {
		e := &f.entries[i]
		if !e.valid {
			continue
		}
		w.Int(i)
		w.U64(uint64(e.key))
		w.Bool(e.dirty)
		w.U64(uint64(e.benefit))
		w.I64(e.lastUse)
	}
	w.I64(f.clock)
	w.Int(f.nReserved)
	for i := range f.reserved {
		if f.reserved[i] {
			w.Int(i)
		}
	}
	w.I64(f.Hits)
	w.I64(f.Misses)
}

// Restore reads back what Snapshot wrote and rebuilds the tag index.
// Every slot is zeroed first, so the slots the snapshot does not list
// come back invalid. The bytes come from disk, so a slot out of range
// or not above the previous one, a valid tag held by two slots, and a
// reserved slot out of range or listed twice, are decode errors
// (fgss.Reader.Reject) rather than a corrupt index or a panic.
func (f *FTS) Restore(r *fgss.Reader) {
	clear(f.entries)
	clear(f.idxKey)
	clear(f.idxSlot)
	slots := len(f.entries)
	n := r.Int()
	for i, prev := 0, -1; i < n && r.Err() == nil; i++ {
		slot := r.Int()
		key, dirty, benefit, lastUse := segKey(r.U64()), r.Bool(), uint8(r.U64()), r.I64()
		if r.Err() != nil {
			return
		}
		if slot <= prev || slot >= slots {
			r.Reject("core: FTS slot %d is outside [%d,%d), past the previous slot and inside the store", slot, prev+1, slots)
			return
		}
		if other := f.find(key); other >= 0 {
			r.Reject("core: FTS slots %d and %d both hold row %d segment %d", other, slot, key.row(), key.seg())
			return
		}
		prev = slot
		f.entries[slot] = ftsEntry{key: key, valid: true, dirty: dirty, benefit: benefit, lastUse: lastUse}
		f.indexAdd(key, slot)
	}
	f.clock = r.I64()
	clear(f.reserved)
	f.nReserved = 0
	nres := r.Int()
	for i := 0; i < nres && r.Err() == nil; i++ {
		slot := r.Int()
		if r.Err() != nil {
			return
		}
		if slot < 0 || slot >= slots || f.reserved[slot] {
			r.Reject("core: FTS reserved slot %d is out of range [0,%d) or listed twice", slot, slots)
			return
		}
		f.Reserve(slot)
	}
	f.Hits = r.I64()
	f.Misses = r.I64()
}

// snapshot appends the replacement policy's mutable state: the
// draining-row register, its eviction bitvector, and the PRNG.
func (r *replacer) snapshot(w *fgss.Writer) {
	w.Int(r.evictRow)
	w.U64(r.evictMask)
	w.Bool(r.draining)
	w.U64(uint64(r.rng))
}

func (r *replacer) restore(rd *fgss.Reader) {
	r.evictRow = rd.Int()
	r.evictMask = rd.U64()
	r.draining = rd.Bool()
	r.rng = splitmix64(rd.U64())
}

// Snapshot appends the cache's full mutable state, bank by bank: tag
// store, replacement state, threshold miss counters, in-flight
// insertion markers, then the aggregate counters. The miss counters are
// emitted in sorted-key order for deterministic output; the in-flight
// list is kept in that order.
func (c *FIGCache) Snapshot(w *fgss.Writer) {
	w.Int(len(c.banks))
	for _, b := range c.banks {
		b.fts.Snapshot(w)
		b.repl.snapshot(w)
		w.Int(len(b.missCounts))
		for _, k := range sortedKeys(b.missCounts) {
			w.U64(uint64(k))
			w.Int(b.missCounts[k])
		}
		w.Int(len(b.inflight))
		for _, k := range b.inflight {
			w.U64(uint64(k))
		}
	}
	w.I64(c.Insertions)
	w.I64(c.Evictions)
	w.I64(c.WriteBacks)
	w.I64(c.ThrottledBy)
}

// Restore reads back what Snapshot wrote. The receiver must be built
// from the same configuration (bank count mismatch stops decoding).
func (c *FIGCache) Restore(r *fgss.Reader) {
	if r.Int() != len(c.banks) {
		return
	}
	for _, b := range c.banks {
		b.fts.Restore(r)
		b.repl.restore(r)
		clear(b.missCounts)
		n := r.Int()
		for i := 0; i < n && r.Err() == nil; i++ {
			k := segKey(r.U64())
			b.missCounts[k] = r.Int()
		}
		b.inflight = b.inflight[:0]
		n = r.Int()
		for i := 0; i < n && r.Err() == nil; i++ {
			k := segKey(r.U64())
			if last := len(b.inflight) - 1; last >= 0 && b.inflight[last] >= k {
				r.Reject("core: in-flight insertions %d and %d are not in ascending order", b.inflight[last], k)
				return
			}
			b.inflight = append(b.inflight, k)
		}
	}
	c.Insertions = r.I64()
	c.Evictions = r.I64()
	c.WriteBacks = r.I64()
	c.ThrottledBy = r.I64()
}

// Snapshot appends the baseline cache's mutable state, bank by bank:
// cache-row entries, in-flight markers, hot-row counters, and the
// epoch/clock/hit state, then the aggregate counters.
func (l *LISAVilla) Snapshot(w *fgss.Writer) {
	w.Int(len(l.banks))
	for _, b := range l.banks {
		w.Int(len(b.rows))
		for i := range b.rows {
			row := &b.rows[i]
			w.Int(row.srcRow)
			w.Bool(row.valid)
			w.Bool(row.dirty)
			w.I64(row.lastUse)
		}
		w.Int(len(b.inflight))
		for _, k := range sortedKeys(b.inflight) {
			w.Int(k)
		}
		w.Int(len(b.hot))
		for _, k := range sortedKeys(b.hot) {
			w.Int(k)
			w.Int(b.hot[k])
		}
		w.Int(b.missesEpoch)
		w.I64(b.clock)
		w.I64(b.hits)
		w.I64(b.misses)
	}
	w.I64(l.Insertions)
	w.I64(l.Evictions)
	w.I64(l.WriteBacks)
}

// Restore reads back what Snapshot wrote and rebuilds each bank's
// source-row index from the valid cache rows. The receiver must be
// built from the same configuration.
func (l *LISAVilla) Restore(r *fgss.Reader) {
	if r.Int() != len(l.banks) {
		return
	}
	for _, b := range l.banks {
		if r.Int() != len(b.rows) {
			return
		}
		clear(b.index)
		for i := 0; i < len(b.rows) && r.Err() == nil; i++ {
			row := &b.rows[i]
			row.srcRow = r.Int()
			row.valid = r.Bool()
			row.dirty = r.Bool()
			row.lastUse = r.I64()
			if row.valid {
				b.index[row.srcRow] = i
			}
		}
		clear(b.inflight)
		n := r.Int()
		for i := 0; i < n && r.Err() == nil; i++ {
			b.inflight[r.Int()] = true
		}
		clear(b.hot)
		n = r.Int()
		for i := 0; i < n && r.Err() == nil; i++ {
			k := r.Int()
			b.hot[k] = r.Int()
		}
		b.missesEpoch = r.Int()
		b.clock = r.I64()
		b.hits = r.I64()
		b.misses = r.I64()
	}
	l.Insertions = r.I64()
	l.Evictions = r.I64()
	l.WriteBacks = r.I64()
}
