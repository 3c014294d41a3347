package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dram"
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
// bit, benefit counter and last use; the logical clock; and the hit/miss
// counters. An invalid slot is all zero — Evict zeroes the entry — and
// is not written. The index is derived and rebuilt on restore, and the
// reserved slots are the owning FIGCache's queued insertions, which it
// re-reserves.
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
// Every slot is zeroed and unreserved first, so the slots the snapshot
// does not list come back invalid. The bytes come from disk, so a slot
// out of range or not above the previous one, a tag at or above 2^32, a
// valid tag held by two slots, and a benefit above the counter's
// saturation value are decode errors (fgss.Reader.Reject) rather than a
// corrupt index or a panic.
func (f *FTS) Restore(r *fgss.Reader) {
	clear(f.entries)
	clear(f.idxKey)
	clear(f.idxSlot)
	clear(f.reserved)
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
	f.Hits = r.I64()
	f.Misses = r.I64()
}

// reserveQueued reserves slot for a queued insertion read back from a
// snapshot, or reports why Insert could not have reserved it: the slot
// is outside the store, holds a valid segment, or is already reserved.
func (f *FTS) reserveQueued(slot int) error {
	switch {
	case slot < 0 || slot >= len(f.entries):
		return fmt.Errorf("slot %d is outside the store's %d", slot, len(f.entries))
	case f.entries[slot].valid:
		return fmt.Errorf("slot %d holds a valid segment", slot)
	case f.reserved[slot]:
		return fmt.Errorf("slot %d is already reserved", slot)
	}
	f.reserved[slot] = true
	return nil
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

// writeLoc appends a queued insertion's miss location: a regular row's
// block, never a cache row.
func writeLoc(w *fgss.Writer, l dram.Location) {
	for _, v := range [...]int{l.Rank, l.Group, l.Bank, l.Row, l.Block} {
		w.Int(v)
	}
}

// readLoc reads back what writeLoc wrote.
func readLoc(r *fgss.Reader) dram.Location {
	return dram.Location{Rank: r.Int(), Group: r.Int(), Bank: r.Int(), Row: r.Int(), Block: r.Int()}
}

// inBank reports whether l addresses a block of a regular row of the
// bank whose dense index is bank.
func inBank(geo dram.Geometry, bank int, l dram.Location) bool {
	return geo.HasBank(l) && l.BankID(geo) == bank &&
		l.Row >= 0 && l.Row < geo.RowsPerBank() && l.Block >= 0 && l.Block < geo.BlocksPerRow()
}

// Snapshot appends the cache's full mutable state: bank by bank, the tag
// store, replacement state and threshold miss counters; the aggregate
// counters; then each bank's queued insertions in queue order, as their
// miss location, reserved slot and write-back bit. The miss counters
// are emitted in sorted-key order for deterministic output.
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
	}
	w.I64(c.Insertions)
	w.I64(c.Evictions)
	w.I64(c.WriteBacks)
	w.I64(c.ThrottledBy)
	for _, b := range c.banks {
		w.Int(len(b.queue))
		for _, in := range b.queue {
			writeLoc(w, in.loc)
			w.Int(in.slot)
			w.Bool(in.writeBack)
		}
	}
}

// Restore reads back what Snapshot wrote, and re-reserves each queued
// insertion's slot. The receiver must be built from the same
// configuration (another bank count is a decode error). Miss counters
// under insert-any-miss (threshold 1), which counts none, segment tags
// at or above 2^32, and miss counters not in the strictly ascending
// order Snapshot writes them in, are decode errors too. So is a queued
// insertion Insert could not have queued: its location outside its
// bank, its segment already cached or queued, or its slot out of range,
// valid or reserved.
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
	}
	c.Insertions = r.I64()
	c.Evictions = r.I64()
	c.WriteBacks = r.I64()
	c.ThrottledBy = r.I64()
	for bank := range c.banks {
		b := &c.banks[bank]
		b.queue = b.queue[:0]
		n := r.Len(math.MaxInt, "core: FIGCache queued insertions")
		for i := 0; i < n && r.Err() == nil; i++ {
			in := insertion{loc: readLoc(r), slot: r.Int(), writeBack: r.Bool()}
			if r.Err() != nil {
				return
			}
			if err := c.requeue(bank, in); err != nil {
				r.Reject("core: FIGCache bank %d queued insertion %d: %v", bank, i, err)
				return
			}
		}
	}
}

// requeue appends an insertion read back from a snapshot to the bank's
// queue and reserves its slot, or reports why Insert could not have
// queued it after the insertions already in the queue.
func (c *FIGCache) requeue(bank int, in insertion) error {
	b := &c.banks[bank]
	if !inBank(c.geo, bank, in.loc) {
		return fmt.Errorf("location %v lies outside the bank", in.loc)
	}
	row, seg := in.loc.Row, c.segOf(in.loc.Block)
	switch {
	case b.fts.Contains(row, seg):
		return fmt.Errorf("row %d segment %d is already cached", row, seg)
	case c.queued(b, row, seg):
		return fmt.Errorf("row %d segment %d is already queued", row, seg)
	}
	if err := b.fts.reserveQueued(in.slot); err != nil {
		return err
	}
	b.queue = append(b.queue, in)
	return nil
}

// Snapshot appends the baseline cache's mutable state: bank by bank, the
// count of valid cache rows, then each in row order as its index,
// source row, valid and dirty bits and last use; the hot-row counters;
// and the epoch/clock/hit state; then the aggregate counters; then each
// bank's queued insertions in queue order, as their miss location,
// reserved cache row and write-back row (-1 for none). A free or
// reserved row is not written: the queues re-derive the reservations.
func (l *LISAVilla) Snapshot(w *fgss.Writer) {
	w.Int(len(l.banks))
	for _, b := range l.banks {
		valid := 0
		for i := range b.rows {
			if b.rows[i].valid {
				valid++
			}
		}
		w.Int(valid)
		for i := range b.rows {
			row := &b.rows[i]
			if !row.valid {
				continue
			}
			w.Int(i)
			w.Int(row.srcRow)
			w.Bool(row.valid)
			w.Bool(row.dirty)
			w.I64(row.lastUse)
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
	for _, b := range l.banks {
		w.Int(len(b.queue))
		for _, in := range b.queue {
			writeLoc(w, in.loc)
			w.Int(in.slot)
			w.Int(in.writeBack)
		}
	}
}

// Restore reads back what Snapshot wrote, rebuilds each bank's
// source-row index from the valid cache rows, and re-reserves each
// queued insertion's cache row. Every row is zeroed first, so the rows
// the snapshot does not list come back free. The receiver must be built
// from the same configuration (another bank count is a decode error).
// The bytes come from disk, so a row index out of range or not above
// the previous one, a listed row that is not valid or that holds a
// source row outside the bank (its eviction would queue a write-back
// restore refuses), a source row held by two valid rows, and hot rows
// not in strictly ascending order, are
// decode errors (fgss.Reader.Reject) rather than a corrupt index. So is
// a queued insertion Insert could not have queued: its location outside
// its bank, its row already cached or queued, its cache row out of
// range, valid or reserved, or its write-back row outside the bank.
func (l *LISAVilla) Restore(r *fgss.Reader) {
	if !r.Expect(len(l.banks), "core: LISA-VILLA banks") {
		return
	}
	for bank, b := range l.banks {
		clear(b.rows)
		clear(b.index)
		rows := len(b.rows)
		n := r.Len(rows, "core: LISA-VILLA valid rows")
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
			if !row.valid {
				r.Reject("core: LISA-VILLA bank %d row %d is listed but not valid", bank, idx)
				return
			}
			if row.srcRow < 0 || row.srcRow >= l.geo.RowsPerBank() {
				r.Reject("core: LISA-VILLA bank %d row %d holds source row %d, outside the bank", bank, idx, row.srcRow)
				return
			}
			if other, dup := b.index[row.srcRow]; dup {
				r.Reject("core: LISA-VILLA bank %d rows %d and %d both hold source row %d", bank, other, idx, row.srcRow)
				return
			}
			prev = idx
			b.rows[idx] = row
			b.index[row.srcRow] = idx
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
	for bank, b := range l.banks {
		b.queue = b.queue[:0]
		n := r.Len(math.MaxInt, "core: LISA-VILLA queued insertions")
		for i := 0; i < n && r.Err() == nil; i++ {
			in := lisaInsertion{loc: readLoc(r), slot: r.Int(), writeBack: r.Int()}
			if r.Err() != nil {
				return
			}
			if err := l.requeue(bank, in); err != nil {
				r.Reject("core: LISA-VILLA bank %d queued insertion %d: %v", bank, i, err)
				return
			}
		}
	}
}

// requeue appends an insertion read back from a snapshot to the bank's
// queue and reserves its cache row, or reports why Insert could not
// have queued it after the insertions already in the queue.
func (l *LISAVilla) requeue(bank int, in lisaInsertion) error {
	b := l.banks[bank]
	if !inBank(l.geo, bank, in.loc) {
		return fmt.Errorf("location %v lies outside the bank", in.loc)
	}
	_, cached := b.index[in.loc.Row]
	switch {
	case cached:
		return fmt.Errorf("source row %d is already cached", in.loc.Row)
	case b.queued(in.loc.Row):
		return fmt.Errorf("source row %d is already queued", in.loc.Row)
	case in.slot < 0 || in.slot >= len(b.rows):
		return fmt.Errorf("cache row %d is outside the bank's %d", in.slot, len(b.rows))
	case b.rows[in.slot].valid:
		return fmt.Errorf("cache row %d is valid", in.slot)
	case b.rows[in.slot].srcRow < 0:
		return fmt.Errorf("cache row %d is already reserved", in.slot)
	case in.writeBack < -1 || in.writeBack >= l.geo.RowsPerBank():
		return fmt.Errorf("write-back row %d is outside the bank", in.writeBack)
	}
	b.rows[in.slot] = lisaRow{srcRow: -1}
	b.queue = append(b.queue, in)
	return nil
}
