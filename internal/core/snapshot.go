package core

import (
	"math"
	"sort"

	"repro/internal/fgss"
)

// sortedKeys returns a map's keys in ascending order, so snapshot
// output is byte-identical across runs regardless of map iteration
// order.
func sortedKeys[K ~int | ~uint32, V any](m map[K]V) []K {
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

// readSegKey reads a segment tag, rejecting one at or above 2^32, which
// no segKey holds.
func readSegKey(r *fgss.Reader, what string) segKey {
	k := r.U64()
	if k > math.MaxUint32 && r.Err() == nil {
		r.Reject("core: %s %#x is not below 2^32", what, k)
	}
	return segKey(k)
}

// Restore reads back what Snapshot wrote and rebuilds the tag index.
// Every slot is zeroed first, so the slots the snapshot does not list
// come back invalid. The bytes come from disk, so a slot out of range
// or not above the previous one, a tag at or above 2^32, a valid tag
// held by two slots, a benefit above the counter's saturation value,
// and a reserved slot out of range or not above the previous one, are
// decode errors (fgss.Reader.Reject) rather than a corrupt index or a
// panic.
func (f *FTS) Restore(r *fgss.Reader) {
	clear(f.entries)
	clear(f.idxKey)
	clear(f.idxSlot)
	slots := len(f.entries)
	n := r.Len(slots, "core: FTS valid slots")
	for i, prev := 0, -1; i < n && r.Err() == nil; i++ {
		slot := r.Int()
		key, dirty, benefit, lastUse := readSegKey(r, "FTS tag"), r.Bool(), r.U64(), r.I64()
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
		if benefit > benefitMax {
			r.Reject("core: FTS slot %d benefit %d is above the counter's %d", slot, benefit, benefitMax)
			return
		}
		prev = slot
		f.entries[slot] = ftsEntry{key: key, valid: true, dirty: dirty, benefit: uint8(benefit), lastUse: lastUse}
		f.indexAdd(key, slot)
	}
	f.clock = r.I64()
	clear(f.reserved)
	f.nReserved = 0
	nres := r.Len(slots, "core: FTS reserved slots")
	for i, prev := 0, -1; i < nres && r.Err() == nil; i++ {
		slot := r.Int()
		if r.Err() != nil {
			return
		}
		if slot <= prev || slot >= slots {
			r.Reject("core: FTS reserved slot %d is outside [%d,%d), past the previous reserved slot and inside the store", slot, prev+1, slots)
			return
		}
		prev = slot
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
// from the same configuration (another bank count is a decode error).
// Miss counters under insert-any-miss (threshold 1), which counts none,
// segment tags at or above 2^32, and miss counters and in-flight
// insertions not in the strictly ascending order Snapshot writes them
// in, are decode errors too.
func (c *FIGCache) Restore(r *fgss.Reader) {
	if !r.Expect(len(c.banks), "core: FIGCache banks") {
		return
	}
	for bank := range c.banks {
		b := &c.banks[bank]
		b.fts.Restore(r)
		b.repl.restore(r)
		clear(b.missCounts)
		n := r.Len(math.MaxInt, "core: FIGCache miss counters")
		if n > 0 && b.missCounts == nil && r.Err() == nil {
			r.Reject("core: bank %d lists %d miss counters, but threshold 1 counts none", bank, n)
			return
		}
		for i, prev := 0, segKey(0); i < n && r.Err() == nil; i++ {
			k := readSegKey(r, "miss counter tag")
			if i > 0 && k <= prev {
				r.Reject("core: miss counters %d and %d are not in ascending order", prev, k)
				return
			}
			prev = k
			b.missCounts[k] = r.Int()
		}
		b.inflight = b.inflight[:0]
		n = r.Len(math.MaxInt, "core: FIGCache in-flight insertions")
		for i := 0; i < n && r.Err() == nil; i++ {
			k := readSegKey(r, "in-flight insertion tag")
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
// the count of occupied cache rows — valid or reserved by an in-flight
// insertion — then each in row order as its index, source row, valid
// and dirty bits and last use; the in-flight markers; the hot-row
// counters; and the epoch/clock/hit state, then the aggregate counters.
// A free row is all zero — an eviction turns the row straight into a
// reservation — and is not written.
func (l *LISAVilla) Snapshot(w *fgss.Writer) {
	w.Int(len(l.banks))
	for _, b := range l.banks {
		occupied := 0
		for i := range b.rows {
			if b.rows[i] != (lisaRow{}) {
				occupied++
			}
		}
		w.Int(occupied)
		for i := range b.rows {
			row := &b.rows[i]
			if *row == (lisaRow{}) {
				continue
			}
			w.Int(i)
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
// source-row index from the valid cache rows. Every row is zeroed
// first, so the rows the snapshot does not list come back free. The
// receiver must be built from the same configuration (another bank
// count is a decode error). The bytes come from disk, so a row index
// out of range or not above the previous one, a listed row that is
// neither valid nor reserved, a source row held by two valid rows, and
// in-flight or hot rows not in strictly ascending order, are decode
// errors (fgss.Reader.Reject) rather than a corrupt index.
func (l *LISAVilla) Restore(r *fgss.Reader) {
	if !r.Expect(len(l.banks), "core: LISA-VILLA banks") {
		return
	}
	for bank, b := range l.banks {
		clear(b.rows)
		clear(b.index)
		rows := len(b.rows)
		n := r.Len(rows, "core: LISA-VILLA occupied rows")
		for i, prev := 0, -1; i < n && r.Err() == nil; i++ {
			idx := r.Int()
			row := lisaRow{srcRow: r.Int(), valid: r.Bool(), dirty: r.Bool(), lastUse: r.I64()}
			if r.Err() != nil {
				return
			}
			if idx <= prev || idx >= rows {
				r.Reject("core: LISA-VILLA bank %d row %d is outside [%d,%d), past the previous row and inside the cache", bank, idx, prev+1, rows)
				return
			}
			if !row.valid && row.srcRow >= 0 {
				r.Reject("core: LISA-VILLA bank %d row %d is listed but neither valid nor reserved", bank, idx)
				return
			}
			if other, dup := b.index[row.srcRow]; dup && row.valid {
				r.Reject("core: LISA-VILLA bank %d rows %d and %d both hold source row %d", bank, other, idx, row.srcRow)
				return
			}
			prev = idx
			b.rows[idx] = row
			if row.valid {
				b.index[row.srcRow] = idx
			}
		}
		clear(b.inflight)
		n = r.Len(math.MaxInt, "core: LISA-VILLA in-flight rows")
		for i, prev := 0, 0; i < n && r.Err() == nil; i++ {
			k := r.Int()
			if i > 0 && k <= prev {
				r.Reject("core: LISA-VILLA in-flight rows %d and %d are not in ascending order", prev, k)
				return
			}
			prev = k
			b.inflight[k] = true
		}
		clear(b.hot)
		n = r.Len(math.MaxInt, "core: LISA-VILLA hot rows")
		for i, prev := 0, 0; i < n && r.Err() == nil; i++ {
			k := r.Int()
			if i > 0 && k <= prev {
				r.Reject("core: LISA-VILLA hot rows %d and %d are not in ascending order", prev, k)
				return
			}
			prev = k
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
