package core

import (
	"fmt"
	"math/bits"
)

// segKey uniquely identifies a row segment within one bank: the source
// row above the segment index within that row. It is the "tag (original
// address)" field of an FTS entry (Figure 6). FIGCacheConfig.Validate
// keeps rows below 2^24 and segments below 2^8, so a key fits 32 bits.
type segKey uint32

const (
	segBits    = 8
	maxSegRows = 1 << (32 - segBits) // rows per bank a segKey can name
)

func makeSegKey(row, seg int) segKey { return segKey(uint32(row)<<segBits | uint32(seg)) }

func (k segKey) row() int { return int(k >> segBits) }
func (k segKey) seg() int { return int(k & (1<<segBits - 1)) }

// ftsEntry is one entry of the FIGCache tag store: the tag of the cached
// segment, valid and dirty bits, and the saturating benefit counter used
// by the replacement policy (Section 5.1). 16 bytes.
type ftsEntry struct {
	key     segKey
	valid   bool
	dirty   bool
	benefit uint8
	lastUse int64 // logical timestamp for the LRU comparison policy
}

// FTS is the FIGCache tag store for one bank: a fully-associative array
// with one entry per in-DRAM cache slot, where each slot holds one row
// segment. The paper's configuration has 512 slots per bank (64 cache
// rows x 8 segments per row).
type FTS struct {
	entries []ftsEntry
	// idxKey and idxSlot map each valid tag to its slot: an
	// open-addressing table of twice the slot count, rounded up to a
	// power of two, probed linearly from a multiplicative hash of the
	// key. idxSlot holds the slot plus one, so zero marks an empty cell;
	// deletion shifts the rest of a probe run back instead of leaving
	// tombstones. At most half full, so probe runs stay short and
	// always end at an empty cell.
	idxKey     []segKey
	idxSlot    []int32
	idxShift   uint // 64 - log2(len(idxKey)): hash bits kept
	segsPerRow int  // cache slots per cache row
	clock      int64

	// reserved marks slots claimed by an in-flight insertion (planned but
	// not yet executed by the controller); they are neither allocatable
	// nor evictable until the insertion commits. A dense bitmap rather
	// than a map: slots are bounded and small, and map insert/delete
	// churn allocates during same-size bucket growth, which would break
	// the allocation-free steady state.
	reserved  []bool
	nReserved int

	// Stats.
	Hits, Misses int64
}

// benefitMax is the saturation value of an entry's benefit counter,
// 5 bits wide (Section 5.1).
const benefitMax = 1<<5 - 1

// NewFTS builds a tag store with slots entries and segsPerRow slots per
// cache row.
func NewFTS(slots, segsPerRow int) (*FTS, error) {
	fs, err := newFTSs(1, slots, segsPerRow)
	if err != nil {
		return nil, err
	}
	return &fs[0], nil
}

// newFTSs builds n tag stores of slots entries each, segsPerRow slots to
// a cache row. The stores' entries, index arrays and reserved bitmaps
// are cut from one backing array apiece, so n stores cost five
// allocations, not four per store: a channel's FIGCache builds one store
// per bank.
func newFTSs(n, slots, segsPerRow int) ([]FTS, error) {
	if slots <= 0 || segsPerRow <= 0 || slots%segsPerRow != 0 {
		return nil, fmt.Errorf("core: slots (%d) must be a positive multiple of segsPerRow (%d)", slots, segsPerRow)
	}
	size := 1 << bits.Len(uint(2*slots-1))
	entries := make([]ftsEntry, n*slots)
	idxKey := make([]segKey, n*size)
	idxSlot := make([]int32, n*size)
	reserved := make([]bool, n*slots)
	fs := make([]FTS, n)
	for i := range fs {
		fs[i] = FTS{
			entries:    entries[i*slots : (i+1)*slots : (i+1)*slots],
			idxKey:     idxKey[i*size : (i+1)*size : (i+1)*size],
			idxSlot:    idxSlot[i*size : (i+1)*size : (i+1)*size],
			idxShift:   uint(64 - bits.TrailingZeros(uint(size))),
			segsPerRow: segsPerRow,
			reserved:   reserved[i*slots : (i+1)*slots : (i+1)*slots],
		}
	}
	return fs, nil
}

// home returns the index cell a key's probe run starts at (Fibonacci
// hashing: the top bits of the key times 2^64/phi).
func (f *FTS) home(k segKey) int {
	return int(uint64(k) * 0x9e3779b97f4a7c15 >> f.idxShift)
}

// cell returns the index cell holding tag k, or -1.
func (f *FTS) cell(k segKey) int {
	mask := len(f.idxKey) - 1
	for i := f.home(k); f.idxSlot[i] != 0; i = (i + 1) & mask {
		if f.idxKey[i] == k {
			return i
		}
	}
	return -1
}

// find returns the slot holding a valid tag, or -1.
func (f *FTS) find(k segKey) int {
	if i := f.cell(k); i >= 0 {
		return int(f.idxSlot[i]) - 1
	}
	return -1
}

// indexAdd maps a tag the index does not hold to slot.
func (f *FTS) indexAdd(k segKey, slot int) {
	mask := len(f.idxKey) - 1
	i := f.home(k)
	for f.idxSlot[i] != 0 {
		i = (i + 1) & mask
	}
	f.idxKey[i], f.idxSlot[i] = k, int32(slot+1)
}

// indexDel unmaps a tag the index holds. Each later cell of the probe
// run whose home does not lie cyclically in (hole, cell] moves back
// into the hole, so every remaining key stays reachable from its home
// without tombstones.
func (f *FTS) indexDel(k segKey) {
	mask := len(f.idxKey) - 1
	hole := f.cell(k)
	for j := (hole + 1) & mask; f.idxSlot[j] != 0; j = (j + 1) & mask {
		if (j-f.home(f.idxKey[j]))&mask >= (j-hole)&mask {
			f.idxKey[hole], f.idxSlot[hole] = f.idxKey[j], f.idxSlot[j]
			hole = j
		}
	}
	f.idxKey[hole], f.idxSlot[hole] = 0, 0
}

// Slots returns the number of cache slots the FTS tracks.
func (f *FTS) Slots() int { return len(f.entries) }

// CacheRows returns the number of cache rows covered by the FTS.
func (f *FTS) CacheRows() int { return len(f.entries) / f.segsPerRow }

// SegsPerRow returns the number of segments per cache row.
func (f *FTS) SegsPerRow() int { return f.segsPerRow }

// Lookup checks whether the segment (row, seg) is cached. On a hit it
// increments the benefit counter (saturating), optionally sets the dirty
// bit, and returns the slot index.
func (f *FTS) Lookup(row, seg int, isWrite bool) (slot int, hit bool) {
	f.clock++
	i := f.find(makeSegKey(row, seg))
	if i < 0 {
		f.Misses++
		return 0, false
	}
	e := &f.entries[i]
	if e.benefit < benefitMax {
		e.benefit++
	}
	if isWrite {
		e.dirty = true
	}
	e.lastUse = f.clock
	f.Hits++
	return i, true
}

// Contains reports whether a segment is cached without touching metadata.
func (f *FTS) Contains(row, seg int) bool {
	return f.find(makeSegKey(row, seg)) >= 0
}

// FreeSlot returns an invalid, unreserved slot index, or (0, false) if
// the cache is full. Slots are scanned in order, so consecutive
// insertions pack into the same cache row (the co-location Section 5.1
// relies on).
func (f *FTS) FreeSlot() (int, bool) {
	for i, e := range f.entries {
		if !e.valid && !f.reserved[i] {
			return i, true
		}
	}
	return 0, false
}

// Reserve claims a slot for an in-flight insertion; Unreserve releases
// it. Reserved slots are skipped by FreeSlot and by replacement.
func (f *FTS) Reserve(slot int) {
	if !f.reserved[slot] {
		f.reserved[slot] = true
		f.nReserved++
	}
}

// Unreserve releases a slot claimed by Reserve.
func (f *FTS) Unreserve(slot int) {
	if f.reserved[slot] {
		f.reserved[slot] = false
		f.nReserved--
	}
}

// IsReserved reports whether a slot is claimed by an in-flight insertion.
func (f *FTS) IsReserved(slot int) bool { return f.reserved[slot] }

// Install fills a slot with a new segment, resetting its metadata. Any
// previous valid entry in the slot must have been evicted first, and no
// other slot may hold the segment: the index maps each tag to one slot.
func (f *FTS) Install(slot, row, seg int, dirty bool) {
	f.clock++
	e := &f.entries[slot]
	if e.valid {
		f.indexDel(e.key)
	}
	key := makeSegKey(row, seg)
	*e = ftsEntry{key: key, valid: true, dirty: dirty, benefit: 0, lastUse: f.clock}
	f.indexAdd(key, slot)
}

// Evict invalidates a slot and returns its tag and dirty bit, so the
// caller can schedule a write-back relocation for dirty victims.
func (f *FTS) Evict(slot int) (row, seg int, dirty, wasValid bool) {
	e := &f.entries[slot]
	if !e.valid {
		return 0, 0, false, false
	}
	f.indexDel(e.key)
	row, seg, dirty = e.key.row(), e.key.seg(), e.dirty
	*e = ftsEntry{}
	return row, seg, dirty, true
}

// RowOfSlot returns the cache row holding a slot.
func (f *FTS) RowOfSlot(slot int) int { return slot / f.segsPerRow }

// SlotOffset returns the segment position of a slot within its cache row.
func (f *FTS) SlotOffset(slot int) int { return slot % f.segsPerRow }

// RowBenefit returns the cumulative benefit of all valid segments in a
// cache row — the quantity the RowBenefit replacement policy minimizes
// (Section 5.1) — and whether the row holds a segment replacement may
// evict (valid and not reserved), from one pass over its slots.
func (f *FTS) RowBenefit(cacheRow int) (sum int, evictable bool) {
	for i := cacheRow * f.segsPerRow; i < (cacheRow+1)*f.segsPerRow; i++ {
		if e := &f.entries[i]; e.valid {
			sum += int(e.benefit)
			evictable = evictable || !f.reserved[i]
		}
	}
	return sum, evictable
}

// ValidSlots returns the number of valid entries.
func (f *FTS) ValidSlots() int {
	n := 0
	for _, e := range f.entries {
		if e.valid {
			n++
		}
	}
	return n
}

// HitRate returns the fraction of lookups that hit.
func (f *FTS) HitRate() float64 {
	total := f.Hits + f.Misses
	if total == 0 {
		return 0
	}
	return float64(f.Hits) / float64(total)
}

// entry returns a copy of a slot's entry (tests and policies).
func (f *FTS) entry(slot int) ftsEntry { return f.entries[slot] }
