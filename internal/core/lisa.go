package core

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/memctrl"
)

// VILLA's hot-row insertion policy. Row-granularity insert-any-miss
// would relocate an 8 kB row on every activation, so VILLA caches only
// rows with demonstrated reuse.
const (
	// lisaHotThreshold is the number of misses a row must see within the
	// decay epoch before VILLA caches it.
	lisaHotThreshold = 2
	// lisaEpochMisses is the hot-row counter decay period: after this
	// many misses in a bank, all counters are halved, so stale rows lose
	// their "hot" status.
	lisaEpochMisses = 4096
)

// LISAVilla implements memctrl.CacheHook for the LISA-VILLA baseline
// in-DRAM cache (Section 3): whole DRAM rows are cached into fast
// subarrays that are physically interleaved among the slow subarrays,
// and relocation uses LISA's row-buffer movement, whose latency grows
// with the hop distance between source and destination subarrays. Each
// bank caches as many rows as its fast subarrays hold (Table 1: 16
// fast subarrays of 32 rows, 512 rows).
type LISAVilla struct {
	geo dram.Geometry

	banks []*lisaBank

	// Stats.
	Insertions int64
	Evictions  int64
	WriteBacks int64
}

type lisaBank struct {
	// rows[i] describes cache row i.
	rows []lisaRow
	// index maps a cached source row to its cache row.
	index map[int]int
	// queue holds the bank's queued insertions in the order Insert
	// queued them; Flush installs and empties it.
	queue []lisaInsertion
	// hot tracks per-source-row activation counts for the insertion
	// policy, decayed every lisaEpochMisses misses.
	hot         map[int]int
	missesEpoch int
	clock       int64
	hits        int64
	misses      int64
}

type lisaRow struct {
	srcRow  int
	valid   bool
	dirty   bool
	lastUse int64
}

// lisaInsertion is one queued LISA-VILLA insertion: the miss location
// whose row it relocates, the cache row it reserved, and the source row
// of a dirty victim whose write-back runs first (-1 for none).
type lisaInsertion struct {
	loc       dram.Location
	slot      int
	writeBack int
}

// NewLISAVilla builds the baseline cache over the channel geometry,
// which must have the interleaved fast subarrays the cache rows live in.
func NewLISAVilla(geo dram.Geometry) (*LISAVilla, error) {
	if geo.FastSubarrays <= 0 || geo.RowsPerFastSubarray <= 0 {
		return nil, fmt.Errorf("core: LISA-VILLA needs fast subarrays, got %d of %d rows", geo.FastSubarrays, geo.RowsPerFastSubarray)
	}
	rows := geo.CacheRowsPerBank()
	l := &LISAVilla{geo: geo}
	nBanks := geo.Ranks * geo.BanksPerRank()
	for i := 0; i < nBanks; i++ {
		l.banks = append(l.banks, &lisaBank{
			rows:  make([]lisaRow, rows),
			index: make(map[int]int, rows),
			hot:   make(map[int]int),
		})
	}
	return l, nil
}

// Hops returns the LISA relocation hop count for a source row: the number
// of inter-subarray steps between the row's subarray and the nearest
// interleaved fast subarray. With F fast subarrays interleaved among S
// slow ones, each fast subarray serves a run of S/F slow subarrays placed
// around its position; a row in the middle of a run is 1 hop away, at the
// edges up to (S/F)/2+1 hops. This is the distance-dependence FIGARO
// eliminates (Section 3).
func (l *LISAVilla) Hops(srcRow int) int {
	sub := l.geo.SubarrayOfRow(srcRow)
	run := l.geo.SubarraysPerBank / l.geo.FastSubarrays // slow subarrays per fast subarray
	if run < 1 {
		run = 1
	}
	pos := sub % run
	// The fast subarray sits at the center of its run; hop count is the
	// distance to the center, minimum 1.
	center := run / 2
	d := pos - center
	if d < 0 {
		d = -d
	}
	return d + 1
}

// Lookup implements memctrl.CacheHook at row granularity: a request to a
// cached row is redirected to the same block offset of the cache row in a
// fast subarray. Caching a whole row cannot improve its row-buffer hit
// rate — the contents and locality are unchanged — so LISA-VILLA benefits
// only from the fast subarray's reduced timings (Section 8.1).
func (l *LISAVilla) Lookup(loc dram.Location, isWrite bool) (dram.Location, bool) {
	bank := l.banks[loc.BankID(l.geo)]
	bank.clock++
	i, ok := bank.index[loc.Row]
	if !ok {
		bank.misses++
		return dram.Location{}, false
	}
	r := &bank.rows[i]
	r.lastUse = bank.clock
	if isWrite {
		r.dirty = true
	}
	bank.hits++
	return dram.Location{
		Rank: loc.Rank, Group: loc.Group, Bank: loc.Bank,
		Row: i, Block: loc.Block, CacheRow: true,
	}, true
}

// ShouldInsert implements VILLA's hot-row insertion policy: cache a row
// once it has missed lisaHotThreshold times within the decay epoch.
func (l *LISAVilla) ShouldInsert(loc dram.Location) bool {
	bank := l.banks[loc.BankID(l.geo)]
	bank.missesEpoch++
	if bank.missesEpoch >= lisaEpochMisses {
		bank.missesEpoch = 0
		//fglint:deterministic per-entry halve-or-delete decay; entries are independent, order cannot matter
		for k, v := range bank.hot {
			if v <= 1 {
				delete(bank.hot, k)
			} else {
				bank.hot[k] = v / 2
			}
		}
	}
	bank.hot[loc.Row]++
	if bank.hot[loc.Row] >= lisaHotThreshold {
		delete(bank.hot, loc.Row)
		return true
	}
	return false
}

// queued reports whether the bank has queued the insertion of a
// source row.
func (b *lisaBank) queued(row int) bool {
	for _, in := range b.queue {
		if in.loc.Row == row {
			return true
		}
	}
	return false
}

// Insert implements memctrl.CacheHook: reserve a cache row, evicting the
// LRU valid row if none is free, and queue the whole source row's
// relocation via LISA RBM. A dirty victim's write-back runs at Flush,
// ahead of the insertion.
func (l *LISAVilla) Insert(loc dram.Location) bool {
	bank := l.banks[loc.BankID(l.geo)]
	if _, ok := bank.index[loc.Row]; ok || bank.queued(loc.Row) {
		return false
	}

	// A slot is allocatable if it is invalid and not reserved (srcRow < 0
	// marks a reservation by a queued insertion).
	slot := -1
	for i := range bank.rows {
		if !bank.rows[i].valid && bank.rows[i].srcRow >= 0 {
			slot = i
			break
		}
	}
	writeBack := -1
	if slot < 0 {
		// Evict the LRU valid (unreserved) cache row.
		best, bestUse := -1, int64(1)<<62
		for i := range bank.rows {
			if bank.rows[i].valid && bank.rows[i].lastUse < bestUse {
				best, bestUse = i, bank.rows[i].lastUse
			}
		}
		if best < 0 {
			return false // everything reserved by queued insertions
		}
		slot = best
		victim := bank.rows[slot]
		delete(bank.index, victim.srcRow)
		l.Evictions++
		if victim.dirty {
			writeBack = victim.srcRow
			l.WriteBacks++
		}
	}
	bank.rows[slot] = lisaRow{srcRow: -1}
	bank.queue = append(bank.queue, lisaInsertion{loc: loc, slot: slot, writeBack: writeBack})
	l.Insertions++
	return true
}

// Flush implements memctrl.CacheHook: install the bank's queued rows in
// queue order and return the burst. The relocation is distance-
// dependent: each insertion's source row is open (the miss just
// accessed it), so its RBM sequence skips the ACTIVATE, and a dirty
// victim first pays a write-back over its own hop distance.
func (l *LISAVilla) Flush(ch *dram.Channel, bank int) memctrl.RelocBurst {
	b := l.banks[bank]
	burst := memctrl.RelocBurst{Loc: b.queue[0].loc, Count: len(b.queue), IsLISA: true}
	for _, in := range b.queue {
		if in.writeBack >= 0 {
			hops := l.Hops(in.writeBack)
			burst.Cost += ch.RBMCost(hops, false)
			burst.Hops += hops
		}
		hops := l.Hops(in.loc.Row)
		burst.Cost += ch.RBMCost(hops, true)
		burst.Hops += hops
		b.clock++
		b.rows[in.slot] = lisaRow{srcRow: in.loc.Row, valid: true, lastUse: b.clock}
		b.index[in.loc.Row] = in.slot
	}
	b.queue = b.queue[:0]
	return burst
}

// Pending implements memctrl.CacheHook.
func (l *LISAVilla) Pending(bank int) bool { return len(l.banks[bank].queue) > 0 }

// HitRate returns the aggregate in-DRAM cache hit rate.
func (l *LISAVilla) HitRate() float64 {
	var hits, misses int64
	for _, b := range l.banks {
		hits += b.hits
		misses += b.misses
	}
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

var _ memctrl.CacheHook = (*LISAVilla)(nil)
