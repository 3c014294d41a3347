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

	// plan is the scratch the next Insert returns a pointer to; per the
	// CacheHook contract the controller copies it before the call after.
	//fglint:preserved scratch; fully overwritten by every Insert before the pointer is returned
	plan memctrl.RelocPlan

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
	// inflight marks source rows whose relocation is planned but not yet
	// executed by the controller.
	inflight map[int]bool
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
			rows:     make([]lisaRow, rows),
			index:    make(map[int]int, rows),
			inflight: make(map[int]bool),
			hot:      make(map[int]int),
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

// Insert implements memctrl.CacheHook: relocate the whole source row into
// a fast subarray via LISA RBM. The relocation is distance-dependent; a
// dirty LRU victim first pays a write-back over its own hop distance.
func (l *LISAVilla) Insert(ch *dram.Channel, loc dram.Location, now int64) *memctrl.RelocPlan {
	bank := l.banks[loc.BankID(l.geo)]
	if _, ok := bank.index[loc.Row]; ok {
		return nil
	}
	if bank.inflight[loc.Row] {
		return nil
	}

	// A slot is allocatable if it is invalid and not reserved (srcRow < 0
	// marks a reservation by an in-flight insertion).
	slot := -1
	for i := range bank.rows {
		if !bank.rows[i].valid && bank.rows[i].srcRow >= 0 {
			slot = i
			break
		}
	}
	var cost int64
	hops := l.Hops(loc.Row)
	if slot < 0 {
		// Evict the LRU valid (unreserved) cache row.
		best, bestUse := -1, int64(1)<<62
		for i := range bank.rows {
			if bank.rows[i].valid && bank.rows[i].lastUse < bestUse {
				best, bestUse = i, bank.rows[i].lastUse
			}
		}
		if best < 0 {
			return nil // everything reserved by in-flight insertions
		}
		slot = best
		victim := bank.rows[slot]
		delete(bank.index, victim.srcRow)
		l.Evictions++
		if victim.dirty {
			wbHops := l.Hops(victim.srcRow)
			cost += ch.RBMCost(wbHops, false)
			hops += wbHops
			l.WriteBacks++
		}
	}
	// Insertion: the source row is open (the miss just accessed it), so
	// the RBM sequence skips its ACTIVATE. The tag is installed when the
	// controller executes the relocation at row-close time; until then
	// the slot is reserved.
	insHops := l.Hops(loc.Row)
	cost += ch.RBMCost(insHops, true)
	bank.inflight[loc.Row] = true
	bank.rows[slot] = lisaRow{srcRow: -1}
	l.Insertions++
	l.plan = memctrl.RelocPlan{Loc: loc, Cost: cost, Hops: hops, IsLISA: true,
		CommitBank: loc.BankID(l.geo), CommitSlot: slot, CommitRow: loc.Row,
	}
	return &l.plan
}

// Commit implements memctrl.CacheHook: install the cache-row tag for a
// plan Insert returned, clearing its reservation.
func (l *LISAVilla) Commit(p *memctrl.RelocPlan) {
	bank := l.banks[p.CommitBank]
	delete(bank.inflight, p.CommitRow)
	bank.clock++
	bank.rows[p.CommitSlot] = lisaRow{srcRow: p.CommitRow, valid: true, lastUse: bank.clock}
	bank.index[p.CommitRow] = p.CommitSlot
}

// CheckPlan implements memctrl.CacheHook: a restored plan must name one
// of this cache's banks and one of that bank's cache rows.
func (l *LISAVilla) CheckPlan(p *memctrl.RelocPlan) error {
	if p.CommitBank < 0 || p.CommitBank >= len(l.banks) {
		return fmt.Errorf("core: LISA-VILLA plan commits to bank %d of %d", p.CommitBank, len(l.banks))
	}
	if n := len(l.banks[p.CommitBank].rows); p.CommitSlot < 0 || p.CommitSlot >= n {
		return fmt.Errorf("core: LISA-VILLA plan commits to cache row %d of bank %d's %d", p.CommitSlot, p.CommitBank, n)
	}
	return nil
}

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
