package core

import "fmt"

// ReplacementKind selects the in-DRAM cache replacement policy evaluated
// in Section 9.3 (Figure 14).
type ReplacementKind int

const (
	// ReplRowBenefit is FIGCache's policy: eviction happens at the
	// granularity of a whole cache row. The row with the lowest cumulative
	// benefit is selected; its segments are marked in a bitvector and
	// evicted one at a time (lowest individual benefit first) as new
	// segments arrive, so co-accessed segments get packed together.
	ReplRowBenefit ReplacementKind = iota
	// ReplSegmentBenefit evicts the single segment with the lowest benefit
	// score anywhere in the cache (the traditional benefit-based policy).
	ReplSegmentBenefit
	// ReplLRU evicts the least-recently-used segment.
	ReplLRU
	// ReplRandom evicts a uniformly random valid segment.
	ReplRandom

	numReplacementKinds
)

var replNames = [numReplacementKinds]string{"RowBenefit", "SegmentBenefit", "LRU", "Random"}

func (r ReplacementKind) String() string {
	if r < 0 || int(r) >= len(replNames) {
		return fmt.Sprintf("ReplacementKind(%d)", int(r))
	}
	return replNames[r]
}

// replacer picks eviction victims from an FTS.
type replacer struct {
	kind ReplacementKind

	// RowBenefit state: the register holding the cache row currently being
	// drained, and the bitvector marking its not-yet-evicted segments
	// (Section 5.1 describes exactly this pair of structures).
	evictRow  int
	evictMask uint64
	draining  bool

	rng splitmix64
}

func newReplacer(kind ReplacementKind, seed uint64) *replacer {
	return &replacer{kind: kind, rng: splitmix64(seed)}
}

// victim returns the slot to evict from f, or -1 when nothing is
// evictable (every slot reserved by queued insertions). The caller
// guarantees the cache has no free slots. Reserved slots are never
// chosen.
func (r *replacer) victim(f *FTS) int {
	switch r.kind {
	case ReplRowBenefit:
		return r.rowBenefitVictim(f)
	case ReplSegmentBenefit:
		best, bestBenefit := -1, int(^uint(0)>>1)
		for i := 0; i < f.Slots(); i++ {
			e := f.entry(i)
			if e.valid && !f.IsReserved(i) && int(e.benefit) < bestBenefit {
				best, bestBenefit = i, int(e.benefit)
			}
		}
		return best
	case ReplLRU:
		best, bestUse := -1, int64(1)<<62
		for i := 0; i < f.Slots(); i++ {
			e := f.entry(i)
			if e.valid && !f.IsReserved(i) && e.lastUse < bestUse {
				best, bestUse = i, e.lastUse
			}
		}
		return best
	case ReplRandom:
		anyEvictable := false
		for i := 0; i < f.Slots(); i++ {
			if f.entry(i).valid && !f.IsReserved(i) {
				anyEvictable = true
				break
			}
		}
		if !anyEvictable {
			return -1
		}
		for {
			i := int(r.rng.next() % uint64(f.Slots()))
			if f.entry(i).valid && !f.IsReserved(i) {
				return i
			}
		}
	default:
		panic(fmt.Sprintf("core: unknown replacement kind %d", int(r.kind)))
	}
}

// rowBenefitVictim implements the two-level policy: while a row is being
// drained, evict its marked segment with the lowest benefit; once the mask
// is empty, select the cache row with the lowest cumulative benefit and
// mark all its valid segments for eviction.
func (r *replacer) rowBenefitVictim(f *FTS) int {
	if r.draining {
		if slot, ok := r.lowestMarked(f); ok {
			return slot
		}
		r.draining = false
	}
	// Select a new row: the first with the lowest cumulative benefit
	// among the cache rows that still hold evictable (valid, unreserved)
	// segments.
	bestRow, bestSum := -1, int(^uint(0)>>1)
	for row := 0; row < f.CacheRows(); row++ {
		if sum, evictable := f.RowBenefit(row); evictable && sum < bestSum {
			bestRow, bestSum = row, sum
		}
	}
	if bestRow < 0 {
		return -1 // every valid slot is reserved by queued insertions
	}
	r.evictRow = bestRow
	r.evictMask = 0
	for off := 0; off < f.SegsPerRow(); off++ {
		slot := bestRow*f.SegsPerRow() + off
		if f.entry(slot).valid && !f.IsReserved(slot) {
			r.evictMask |= 1 << uint(off)
		}
	}
	r.draining = true
	slot, _ := r.lowestMarked(f)
	return slot
}

// lowestMarked returns the marked slot of the draining row with the lowest
// individual benefit and clears its bit.
func (r *replacer) lowestMarked(f *FTS) (int, bool) {
	best, bestBenefit := -1, int(^uint(0)>>1)
	for off := 0; off < f.SegsPerRow(); off++ {
		if r.evictMask&(1<<uint(off)) == 0 {
			continue
		}
		slot := r.evictRow*f.SegsPerRow() + off
		e := f.entry(slot)
		if !e.valid || f.IsReserved(slot) {
			// Already evicted or claimed by a queued insertion since
			// the mask was built; drop the mark.
			r.evictMask &^= 1 << uint(off)
			continue
		}
		if int(e.benefit) < bestBenefit {
			best, bestBenefit = slot, int(e.benefit)
		}
	}
	if best < 0 {
		return 0, false
	}
	r.evictMask &^= 1 << uint(best%f.SegsPerRow())
	return best, true
}

// splitmix64 is a tiny deterministic PRNG (public-domain algorithm) used
// for the Random replacement policy and workload generation.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
