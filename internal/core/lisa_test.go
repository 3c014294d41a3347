package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/fgss"
	"repro/internal/memctrl"
)

func newTestLISA(t *testing.T) (*LISAVilla, *dram.Channel) {
	t.Helper()
	geo := dram.Default()
	geo.FastSubarrays = 16
	l, err := NewLISAVilla(geo)
	if err != nil {
		t.Fatal(err)
	}
	return l, newTestChannel(t, 16)
}

// lisaInsertNow queues an insertion and flushes its bank at once. ok
// reports whether Insert queued one.
func lisaInsertNow(l *LISAVilla, ch *dram.Channel, loc dram.Location) (burst memctrl.RelocBurst, ok bool) {
	if !l.Insert(loc) {
		return memctrl.RelocBurst{}, false
	}
	return l.Flush(ch, loc.BankID(l.geo)), true
}

// TestLISAConfigValidate checks that LISA-VILLA takes its cache rows
// from the geometry's fast subarrays (Table 1: 16 x 32 = 512 per bank)
// and refuses a geometry without any.
func TestLISAConfigValidate(t *testing.T) {
	l, _ := newTestLISA(t)
	if got := len(l.banks[0].rows); got != 512 {
		t.Errorf("cache rows per bank = %d, want 512", got)
	}
	if _, err := NewLISAVilla(dram.Default()); err == nil {
		t.Error("accepted a geometry without fast subarrays")
	}
}

func TestLISAHotThresholdInsertion(t *testing.T) {
	l, _ := newTestLISA(t)
	loc := dram.Location{Row: 77, Block: 0}
	// Default threshold is 2: first miss does not insert, second does.
	if l.ShouldInsert(loc) {
		t.Fatal("inserted on first miss with threshold 2")
	}
	if !l.ShouldInsert(loc) {
		t.Fatal("did not insert on second miss")
	}
}

func TestLISARowGranularityCaching(t *testing.T) {
	l, ch := newTestLISA(t)
	loc := dram.Location{Row: 77, Block: 3}
	burst, ok := lisaInsertNow(l, ch, loc)
	if !ok {
		t.Fatal("Insert queued nothing")
	}
	if !burst.IsLISA || burst.Hops < 1 {
		t.Errorf("burst = %+v, want LISA with >= 1 hop", burst)
	}
	// Every block of the row hits (row granularity).
	for _, blk := range []int{0, 64, 127} {
		redirect, hit := l.Lookup(dram.Location{Row: 77, Block: blk}, false)
		if !hit {
			t.Fatalf("block %d missed after whole-row insertion", blk)
		}
		if !redirect.CacheRow || redirect.Block != blk {
			t.Errorf("block %d redirect = %v", blk, redirect)
		}
	}
	// Other rows still miss.
	if _, hit := l.Lookup(dram.Location{Row: 78, Block: 0}, false); hit {
		t.Error("uncached row hit")
	}
}

func TestLISAHopsDistanceDependent(t *testing.T) {
	l, _ := newTestLISA(t)
	// 64 slow subarrays, 16 fast: runs of 4, fast at center (offset 2).
	// Row in subarray offset 2 of its run: 1 hop; offset 0: 3 hops.
	rowsPer := dram.Default().RowsPerSubarray
	center := l.Hops(2 * rowsPer) // subarray 2, offset 2 -> distance 0 -> 1 hop
	edge := l.Hops(0)             // subarray 0, offset 0 -> distance 2 -> 3 hops
	if center != 1 {
		t.Errorf("center hops = %d, want 1", center)
	}
	if edge <= center {
		t.Errorf("edge hops (%d) not greater than center hops (%d)", edge, center)
	}
}

func TestLISAEvictionLRUAndWriteBack(t *testing.T) {
	// Two fast subarrays of one row each: two cache rows per bank.
	geo := dram.Default()
	geo.FastSubarrays = 2
	geo.RowsPerFastSubarray = 1
	l, err := NewLISAVilla(geo)
	if err != nil {
		t.Fatal(err)
	}
	ch := newTestChannel(t, 16)
	lisaInsertNow(l, ch, dram.Location{Row: 1})
	lisaInsertNow(l, ch, dram.Location{Row: 2})
	// Touch row 1 so row 2 is LRU; dirty row 2 with a write hit.
	l.Lookup(dram.Location{Row: 2, Block: 0}, true)
	l.Lookup(dram.Location{Row: 1, Block: 0}, false)
	// Third insertion evicts row 2 (LRU) and pays its write-back.
	burst, ok := lisaInsertNow(l, ch, dram.Location{Row: 3})
	if !ok {
		t.Fatal("Insert queued nothing")
	}
	if l.Evictions != 1 || l.WriteBacks != 1 {
		t.Errorf("evictions=%d writebacks=%d, want 1/1", l.Evictions, l.WriteBacks)
	}
	// The burst writes row 2 back over its own hops, then moves row 3 in.
	if want := ch.RBMCost(l.Hops(2), false) + ch.RBMCost(l.Hops(3), true); burst.Cost != want {
		t.Errorf("burst cost = %d, want %d (write-back + insert)", burst.Cost, want)
	}
	if want := l.Hops(2) + l.Hops(3); burst.Hops != want {
		t.Errorf("burst hops = %d, want %d (write-back + insert)", burst.Hops, want)
	}
	if _, hit := l.Lookup(dram.Location{Row: 2, Block: 0}, false); hit {
		t.Error("evicted row still hits")
	}
	if _, hit := l.Lookup(dram.Location{Row: 1, Block: 0}, false); !hit {
		t.Error("MRU row was evicted")
	}
}

func TestLISAHotCounterDecay(t *testing.T) {
	l, _ := newTestLISA(t)
	loc := dram.Location{Row: 9}
	l.ShouldInsert(loc) // count 1
	// Fill the 4,096-miss epoch with misses to other rows: the last one
	// halves every counter first, dropping row 9's single miss.
	for i := 1; i < 4096; i++ {
		if l.ShouldInsert(dram.Location{Row: 1000 + i}) {
			t.Fatalf("row %d hot after one miss", 1000+i)
		}
	}
	// Two more misses needed to reach the threshold again.
	if l.ShouldInsert(loc) {
		t.Error("row considered hot right after decay")
	}
	if !l.ShouldInsert(loc) {
		t.Error("row not hot after re-accumulating misses")
	}
}

func TestLISADoubleInsertNoop(t *testing.T) {
	l, ch := newTestLISA(t)
	if _, ok := lisaInsertNow(l, ch, dram.Location{Row: 5}); !ok {
		t.Fatal("first insert failed")
	}
	if _, ok := lisaInsertNow(l, ch, dram.Location{Row: 5}); ok {
		t.Error("duplicate insert queued an insertion")
	}
}

func TestLISAHitRate(t *testing.T) {
	l, ch := newTestLISA(t)
	l.Lookup(dram.Location{Row: 4}, false) // miss
	lisaInsertNow(l, ch, dram.Location{Row: 4})
	l.Lookup(dram.Location{Row: 4}, false) // hit
	if got := l.HitRate(); got != 0.5 {
		t.Errorf("HitRate = %g, want 0.5", got)
	}
}

// lisaSnapshot returns the section payload l's Snapshot writes.
func lisaSnapshot(t *testing.T, l *LISAVilla) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := fgss.NewWriter(&buf, 1, [32]byte{})
	w.Begin(1)
	l.Snapshot(w)
	w.End()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// lisaRestore restores l from a stream fgss.NewWriter wrote and returns
// the decode error.
func lisaRestore(t *testing.T, l *LISAVilla, stream []byte) error {
	t.Helper()
	r, err := fgss.NewReader(bytes.NewReader(stream), 1, [32]byte{})
	if err != nil {
		t.Fatal(err)
	}
	r.Section(1)
	l.Restore(r)
	r.EndSection()
	return r.Close()
}

// TestLISASnapshotListsOccupiedRows checks that a snapshot lists only
// the valid cache rows and the queued insertion, and that it restores
// into a cache whose rows were all occupied: the unlisted rows come back
// free, the listed ones as they were, the queued insertion's row
// reserved again, and the restored cache snapshots to the same bytes.
func TestLISASnapshotListsOccupiedRows(t *testing.T) {
	l, ch := newTestLISA(t)
	lisaInsertNow(l, ch, dram.Location{Row: 7})
	l.Lookup(dram.Location{Row: 7, Block: 3}, true) // dirty
	lisaInsertNow(l, ch, dram.Location{Bank: 2, Row: 9})
	l.Insert(dram.Location{Row: 11}) // queued, not flushed
	snap := lisaSnapshot(t, l)

	dirtied, _ := newTestLISA(t)
	for _, b := range dirtied.banks {
		for i := range b.rows {
			b.rows[i] = lisaRow{srcRow: 100 + i, valid: true, lastUse: 1}
		}
	}
	if err := lisaRestore(t, dirtied, snap); err != nil {
		t.Fatal(err)
	}
	occupied := 0
	for _, b := range dirtied.banks {
		for _, r := range b.rows {
			if r != (lisaRow{}) {
				occupied++
			}
		}
	}
	if occupied != 3 {
		t.Errorf("%d occupied rows after restore, want the 3 listed", occupied)
	}
	if _, hit := dirtied.Lookup(dram.Location{Row: 7}, false); !hit {
		t.Error("restored cache misses on a cached row")
	}
	if _, hit := dirtied.Lookup(dram.Location{Row: 100}, false); hit {
		t.Error("a row cached before the restore still hits")
	}
	again, _ := newTestLISA(t)
	if err := lisaRestore(t, again, snap); err != nil {
		t.Fatal(err)
	}
	if got := lisaSnapshot(t, again); !bytes.Equal(got, snap) {
		t.Errorf("restored cache snapshots to %d bytes, want the %d restored", len(got), len(snap))
	}
}

// TestLISARestoreRejects checks that a LISA-VILLA section Snapshot never
// writes is a decode error: a bank count other than the cache's, a
// listed row outside the bank or not above the previous one, a listed
// row that is not valid or holds a source row outside the bank, two
// valid rows holding one source row, hot rows
// not in strictly ascending order, and one source row queued twice.
// Each case writes bank 0 by hand and leaves the other banks empty; the
// well-formed case restores, its queued insertions reserving their
// cache rows.
func TestLISARestoreRejects(t *testing.T) {
	valid := func(idx, src int) lisaRow { return lisaRow{srcRow: src, valid: true, lastUse: int64(idx)} }
	type entry struct {
		idx int
		r   lisaRow
	}
	queued := func(rows ...int) []lisaInsertion {
		var q []lisaInsertion
		for i, row := range rows {
			q = append(q, lisaInsertion{loc: dram.Location{Row: row}, slot: 3 + i, writeBack: -1})
		}
		return q
	}
	cases := []struct {
		name    string
		banks   int
		rows    []entry
		hot     [][2]int
		queue   []lisaInsertion
		wantErr string
	}{
		{name: "well-formed", rows: []entry{{0, valid(0, 7)}, {511, valid(511, 9)}},
			hot: [][2]int{{4, 1}, {20, 3}}, queue: []lisaInsertion{{loc: dram.Location{Row: 11}, slot: 3, writeBack: 20}, {loc: dram.Location{Row: 12, Block: 5}, slot: 4, writeBack: -1}}},
		{name: "bank count", banks: 1, wantErr: "core: LISA-VILLA banks: 1, want 16"},
		{name: "row past the bank", rows: []entry{{512, valid(0, 7)}}, wantErr: "bank 0 row 512 is outside [0,512)"},
		{name: "negative row", rows: []entry{{-1, valid(0, 7)}}, wantErr: "bank 0 row -1 is outside [0,512)"},
		{name: "rows out of order", rows: []entry{{5, valid(5, 7)}, {2, valid(2, 8)}}, wantErr: "bank 0 row 2 is outside [6,512)"},
		{name: "row neither valid nor reserved", rows: []entry{{4, lisaRow{srcRow: 7, dirty: true}}},
			wantErr: "bank 0 row 4 is listed but not valid"},
		{name: "free row listed", rows: []entry{{4, lisaRow{}}}, wantErr: "bank 0 row 4 is listed but not valid"},
		{name: "source row cached twice", rows: []entry{{1, valid(1, 7)}, {2, valid(2, 7)}},
			wantErr: "bank 0 rows 1 and 2 both hold source row 7"},
		{name: "source row past the bank", rows: []entry{{1, valid(1, 32768)}},
			wantErr: "bank 0 row 1 holds source row 32768, outside the bank"},
		{name: "negative source row", rows: []entry{{1, valid(1, -1)}},
			wantErr: "bank 0 row 1 holds source row -1, outside the bank"},
		{name: "in-flight row listed twice", queue: queued(11, 11), wantErr: "bank 0 queued insertion 1: source row 11 is already queued"},
		{name: "hot rows out of order", hot: [][2]int{{20, 1}, {4, 1}}, wantErr: "hot rows 20 and 4 are not in ascending order"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, _ := newTestLISA(t)
			var buf bytes.Buffer
			w := fgss.NewWriter(&buf, 1, [32]byte{})
			w.Begin(1)
			banks := len(l.banks)
			if tc.banks != 0 {
				banks = tc.banks
			}
			w.Int(banks)
			for b := 0; b < banks; b++ {
				if b > 0 {
					w.Int(0)
					w.Int(0)
				} else {
					w.Int(len(tc.rows))
					for _, e := range tc.rows {
						w.Int(e.idx)
						w.Int(e.r.srcRow)
						w.Bool(e.r.valid)
						w.Bool(e.r.dirty)
						w.I64(e.r.lastUse)
					}
					w.Int(len(tc.hot))
					for _, kv := range tc.hot {
						w.Int(kv[0])
						w.Int(kv[1])
					}
				}
				for i := 0; i < 4; i++ {
					w.I64(0) // missesEpoch, clock, hits, misses
				}
			}
			for i := 0; i < 3; i++ {
				w.I64(0) // Insertions, Evictions, WriteBacks
			}
			for b := 0; b < banks; b++ {
				if b > 0 {
					w.Int(0)
					continue
				}
				w.Int(len(tc.queue))
				for _, in := range tc.queue {
					writeLoc(w, in.loc)
					w.Int(in.slot)
					w.Int(in.writeBack)
				}
			}
			w.End()
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			err := lisaRestore(t, l, buf.Bytes())
			if (err == nil) != (tc.wantErr == "") || err != nil && !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("restore error = %v, want %q", err, tc.wantErr)
			}
			if err != nil {
				return
			}
			if !bytes.Equal(lisaSnapshot(t, l), buf.Bytes()) {
				t.Error("the restored cache snapshots to other bytes")
			}
			for _, in := range tc.queue {
				if r := l.banks[0].rows[in.slot]; r != (lisaRow{srcRow: -1}) {
					t.Errorf("cache row %d of a queued insertion restored as %+v, want reserved", in.slot, r)
				}
			}
		})
	}
}
