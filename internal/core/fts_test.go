package core

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/fgss"
)

// TestFTSIndexMatchesMap drives the open-addressing tag index with random
// Install, Evict and Lookup calls and checks it against a Go map after
// every call. The key pool includes segments whose probe runs start in
// the table's last cells, so runs wrap past its end, and the test fails
// if no run ever did.
func TestFTSIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, slots := range []int{4, 8, 64} {
		f, err := NewFTS(slots, 4)
		if err != nil {
			t.Fatal(err)
		}
		size := len(f.idxKey)
		var pool []segKey
		for row, last, nextToLast := 0, 0, 0; last < 2 || nextToLast < 1; row++ {
			switch k := makeSegKey(row, 1); f.home(k) {
			case size - 1:
				if last < 2 {
					pool, last = append(pool, k), last+1
				}
			case size - 2:
				if nextToLast < 1 {
					pool, nextToLast = append(pool, k), nextToLast+1
				}
			}
		}
		for len(pool) < 3*slots {
			pool = append(pool, makeSegKey(rng.Intn(1<<16), rng.Intn(8)))
		}

		ref := make(map[segKey]int)    // valid tag -> slot
		held := make([]*segKey, slots) // slot -> its valid tag
		evict := func(slot int) {
			row, seg, _, valid := f.Evict(slot)
			if valid != (held[slot] != nil) || valid && makeSegKey(row, seg) != *held[slot] {
				t.Fatalf("%d slots: Evict(%d) = (%d, %d, valid=%v), want %v", slots, slot, row, seg, valid, held[slot])
			}
			if valid {
				delete(ref, *held[slot])
				held[slot] = nil
			}
		}
		wrapped := false
		for op := 0; op < 20_000; op++ {
			k := pool[rng.Intn(len(pool))]
			switch rng.Intn(3) {
			case 0:
				slot := rng.Intn(slots)
				if old, ok := ref[k]; ok {
					evict(old)
				}
				evict(slot)
				f.Install(slot, k.row(), k.seg(), false)
				ref[k], held[slot] = slot, &k
			case 1:
				evict(rng.Intn(slots))
			case 2:
				got, hit := f.Lookup(k.row(), k.seg(), false)
				if want, ok := ref[k]; hit != ok || ok && got != want {
					t.Fatalf("%d slots: Lookup(%d, %d) = (%d, %v), map says (%d, %v)", slots, k.row(), k.seg(), got, hit, want, ok)
				}
			}
			for _, pk := range pool {
				if _, ok := ref[pk]; f.Contains(pk.row(), pk.seg()) != ok {
					t.Fatalf("%d slots, op %d: Contains(%d, %d) = %v, map says %v", slots, op, pk.row(), pk.seg(), !ok, ok)
				}
			}
			for i, s := range f.idxSlot {
				if s != 0 && f.home(f.idxKey[i]) > i {
					wrapped = true
				}
			}
		}
		if !wrapped {
			t.Errorf("%d slots: no probe run wrapped past the table's end", slots)
		}
	}
}

// slotTag is one valid entry of a hand-built tag store section.
type slotTag struct {
	slot int
	key  uint64 // a segKey, or a wider value no segKey holds
}

// ftsSection writes a tag store section: the valid entries in the order
// given, each with the given benefit.
func ftsSection(t *testing.T, tags []slotTag, benefit uint64) *fgss.Reader {
	t.Helper()
	var buf bytes.Buffer
	w := fgss.NewWriter(&buf, 1, [32]byte{})
	w.Begin(1)
	w.Int(len(tags))
	for _, st := range tags {
		w.Int(st.slot)
		w.U64(st.key)
		w.Bool(false)
		w.U64(benefit)
		w.I64(0)
	}
	w.I64(7) // clock
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

// TestFTSRestoreRejects checks that a tag store snapshot listing a
// valid slot outside the store or out of ascending order, a tag at or
// above 2^32, a benefit above the 5-bit counter's 31, or one valid tag
// in two slots is a decode error, and so is re-reserving, for the
// owning FIGCache's queued insertions, a slot outside the store, a
// valid one, or one twice. A well-formed snapshot restores its entries
// into a store whose other slots come back invalid, and reserved only
// if a queued insertion re-reserved them.
func TestFTSRestoreRejects(t *testing.T) {
	a, b := uint64(makeSegKey(100, 3)), uint64(makeSegKey(200, 1))
	cases := []struct {
		name     string
		tags     []slotTag
		benefit  uint64
		reserved []int
		wantErr  string
	}{
		{name: "well-formed", tags: []slotTag{{0, a}, {5, b}}, benefit: 31, reserved: []int{15, 1}},
		{name: "benefit above the counter", tags: []slotTag{{0, a}}, benefit: 32, wantErr: "FTS slot 0 benefit 32 is above the counter's 31"},
		{name: "benefit a cast would wrap", tags: []slotTag{{0, a}}, benefit: 257, wantErr: "FTS slot 0 benefit 257"},
		{name: "valid slot past the end", tags: []slotTag{{0, a}, {16, b}}, wantErr: "FTS slot 16 is outside [1,16)"},
		{name: "negative valid slot", tags: []slotTag{{-1, a}}, wantErr: "FTS slot -1 is outside [0,16)"},
		{name: "valid slots out of order", tags: []slotTag{{5, a}, {2, b}}, wantErr: "FTS slot 2 is outside [6,16)"},
		{name: "reserved slot past the end", tags: []slotTag{{0, a}}, reserved: []int{99}, wantErr: "slot 99 is outside the store's 16"},
		{name: "negative reserved slot", reserved: []int{-1}, wantErr: "slot -1 is outside the store's 16"},
		{name: "reserved slot listed twice", reserved: []int{3, 3}, wantErr: "slot 3 is already reserved"},
		{name: "reserved slot holds a valid tag", tags: []slotTag{{0, a}}, reserved: []int{0}, wantErr: "slot 0 holds a valid segment"},
		{name: "valid tag in two slots", tags: []slotTag{{2, a}, {9, a}}, wantErr: "both hold row 100 segment 3"},
		{name: "tag past 32 bits", tags: []slotTag{{0, a}, {1, 1<<32 | a}}, wantErr: "FTS tag 0x100006403 is not below 2^32"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := NewFTS(16, 8)
			if err != nil {
				t.Fatal(err)
			}
			// Fill and reserve every slot first: the restore must
			// invalidate the slots the section does not list, and
			// release every reservation.
			for i := 0; i < f.Slots(); i++ {
				f.Install(i, 300+i, 0, false)
				f.Reserve(i)
			}
			r := ftsSection(t, tc.tags, tc.benefit)
			f.Restore(r)
			r.EndSection()
			err = r.Close()
			for _, s := range tc.reserved {
				if err == nil {
					err = f.reserveQueued(s)
				}
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("restore: %v", err)
				}
				for _, st := range tc.tags {
					k := segKey(st.key)
					if got, hit := f.Lookup(k.row(), k.seg(), false); !hit || got != st.slot {
						t.Errorf("Lookup(%d, %d) = (%d, %v), want slot %d", k.row(), k.seg(), got, hit, st.slot)
					}
				}
				if got := f.ValidSlots(); got != len(tc.tags) {
					t.Errorf("%d valid slots after restore, want the %d listed", got, len(tc.tags))
				}
				if f.Contains(300, 0) {
					t.Error("a tag installed before the restore is still indexed")
				}
				for i := 0; i < f.Slots(); i++ {
					if want := slices.Contains(tc.reserved, i); f.IsReserved(i) != want {
						t.Errorf("slot %d reserved %v after restore, want %v", i, f.IsReserved(i), want)
					}
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("restore error = %v, want one mentioning %q", err, tc.wantErr)
			}
		})
	}
}

// figSection writes a FIGCache section as Snapshot does, except that
// bank's miss counters are the given keys, in the given order, each
// counting 1, and its queue the given insertions.
func figSection(t *testing.T, fc *FIGCache, bank int, keys []uint64, queue []insertion) *fgss.Reader {
	t.Helper()
	var buf bytes.Buffer
	w := fgss.NewWriter(&buf, 1, [32]byte{})
	w.Begin(1)
	w.Int(len(fc.banks))
	for i, b := range fc.banks {
		b.fts.Snapshot(w)
		b.repl.snapshot(w)
		if i != bank {
			w.Int(0) // miss counters
			continue
		}
		w.Int(len(keys))
		for _, k := range keys {
			w.U64(k)
			w.Int(1)
		}
	}
	for i := 0; i < 4; i++ {
		w.I64(0) // Insertions, Evictions, WriteBacks, ThrottledBy
	}
	for i := range fc.banks {
		if i != bank {
			w.Int(0) // queued insertions
			continue
		}
		w.Int(len(queue))
		for _, in := range queue {
			writeLoc(w, in.loc)
			w.Int(in.slot)
			w.Bool(in.writeBack)
		}
	}
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

// TestFIGCacheRestoreRejectsUnsortedMissCounters checks that, on a cache
// that inserts after two misses, miss counters not in the strictly
// ascending key order Snapshot writes them in — swapped, or one key
// listed twice — or keyed at or above 2^32 are a decode error, and that
// ascending ones restore.
func TestFIGCacheRestoreRejectsUnsortedMissCounters(t *testing.T) {
	lo, hi := uint64(makeSegKey(4, 0)), uint64(makeSegKey(9, 2))
	for _, tc := range []struct {
		keys    []uint64
		wantErr string
	}{
		{[]uint64{lo, hi}, ""},
		{[]uint64{hi, lo}, "miss counters 2306 and 1024 are not in ascending order"},
		{[]uint64{lo, lo}, "miss counters 1024 and 1024 are not in ascending order"},
		{[]uint64{lo, 1 << 32}, "miss counter tag 0x100000000 is not below 2^32"},
	} {
		fc, _ := newTestFIGCache(t, func(c *FIGCacheConfig) { c.InsertThreshold = 2 })
		r := figSection(t, fc, 3, tc.keys, nil)
		fc.Restore(r)
		r.EndSection()
		err := r.Close()
		if (err == nil) != (tc.wantErr == "") || err != nil && !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("miss counters %v: restore error = %v, want %q", tc.keys, err, tc.wantErr)
		}
	}
}

// TestFIGCacheRestoreRejectsWhatSnapshotNeverWrites checks that a
// section a FIGCache's Snapshot could not have written is a decode
// error: miss counters on an insert-any-miss cache, which counts none
// and keeps no counter map, and a queued insertion of a row the bank
// does not have. The well-formed case's queued insertion reserves its
// slot.
func TestFIGCacheRestoreRejectsWhatSnapshotNeverWrites(t *testing.T) {
	key := uint64(makeSegKey(4, 0))
	queued := func(row int) []insertion {
		return []insertion{{loc: dram.Location{Bank: 3, Row: row}, slot: 2}}
	}
	for _, tc := range []struct {
		name    string
		keys    []uint64
		queue   []insertion
		wantErr string
	}{
		{"well-formed", nil, queued(4), ""},
		{"miss counters at threshold 1", []uint64{key}, nil, "bank 3 lists 1 miss counters, but threshold 1 counts none"},
		{"queued row past the bank", nil, queued(32768), "bank 3 queued insertion 0: location r0.g0.b3.row32768.blk0 lies outside the bank"},
	} {
		fc, _ := newTestFIGCache(t, nil)
		r := figSection(t, fc, 3, tc.keys, tc.queue)
		fc.Restore(r)
		r.EndSection()
		err := r.Close()
		if (err == nil) != (tc.wantErr == "") || err != nil && !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: restore error = %v, want %q", tc.name, err, tc.wantErr)
		}
		if err == nil && (!fc.Pending(3) || !fc.FTSForBank(3).IsReserved(2)) {
			t.Errorf("%s: restore queued %v on bank 3 and reserved slot 2 %v, want both", tc.name, fc.Pending(3), fc.FTSForBank(3).IsReserved(2))
		}
	}
}
