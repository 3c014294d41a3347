package memctrl

import (
	"repro/internal/dram"
	"repro/internal/ev"
)

// Request is one cache-block memory request queued at a channel's memory
// controller.
type Request struct {
	Addr    uint64        // physical byte address (block aligned)
	Loc     dram.Location // decoded location in the channel
	IsWrite bool
	Arrive  int64 // bus cycle the request entered the queue
	CoreID  int   // originating core, for per-core statistics

	// OnComplete, unless zero, is the event token the controller hands to
	// its scheduler once a read's last data beat has arrived (tCL + tBL
	// after its column command), stamped with that bus cycle. Only reads
	// carry one; write-backs pass the zero token. A write's completion,
	// tCWL + tBL after its command, would come due ahead of a read issued
	// a cycle earlier, out of the order of the system's memory event
	// lane.
	OnComplete ev.Token

	// ServiceLoc is where the request is actually served: either Loc, or
	// the in-DRAM cache location the cache hook redirected it to.
	ServiceLoc dram.Location
	// CacheHit marks requests served from the in-DRAM cache.
	CacheHit bool
	// noInsert suppresses cache insertion for this request (set by the
	// cache hook when the insertion policy declines the segment).
	noInsert bool

	// bank and bankID cache the ServiceLoc's bank resolution at enqueue
	// time: the FR-FCFS scheduler consults them for every queued request
	// on every tick, and the dense-index multiply chain adds up.
	bank   *dram.Bank
	bankID int
	// seq is the request's queue push sequence number: a strictly
	// increasing per-queue stamp that totally orders queued requests by
	// age. The per-bank buckets keep only bank-local order; FR-FCFS
	// arbitration across banks compares seq.
	seq int64
}

// queue holds the pending requests of one kind (read or write) bucketed
// by dense bank ID, each bucket in arrival order. FR-FCFS consults the
// queue per bank — "which bank has work, and what is the oldest request
// for it" — so bucketing bounds every scheduling scan by the bank count
// (16) instead of the queue depth (64): a deep write queue being drained
// no longer pays a whole-queue rescan per issued command. Global age
// order across buckets is recovered from Request.seq.
type queue struct {
	byBank [][]*Request
	// occupied lists the bank IDs with a non-empty bucket, ordered by
	// the age (push sequence) of each bucket's head — the queue's
	// incrementally tracked "oldest request per bank" index — and heads
	// mirrors it with the head requests themselves, so the scheduler's
	// per-bank walk dereferences one pointer instead of chasing
	// byBank[bank][0]. pos[bank] is the bank's index in occupied, -1
	// when absent. The order is maintained on push (a newly occupied
	// bank's head is the youngest request, so it appends) and on head
	// removal (the new head is younger, so the bank shifts right).
	// Scheduling scans iterate occupied front-to-back and get banks in
	// exactly the order the old whole-queue age scan discovered them, at
	// a cost bounded by min(queued requests, banks) instead of the
	// queue depth.
	occupied []int
	heads    []*Request
	pos      []int
	count    int
	cap      int
	seq      int64
}

func newQueue(capacity, banks int) *queue {
	q := &queue{
		byBank:   make([][]*Request, banks),
		occupied: make([]int, 0, banks),
		heads:    make([]*Request, 0, banks),
		pos:      make([]int, banks),
		cap:      capacity,
	}
	// Pre-size each bucket to the queue capacity (the per-bank worst
	// case: every queued request targets one bank), so bucket growth
	// never allocates mid-run no matter how skewed the traffic. All
	// buckets share one backing block, three-index-sliced so an append
	// past one bucket's capacity can never bleed into its neighbor.
	bucketBacking := make([]*Request, banks*capacity)
	for i := range q.byBank {
		q.byBank[i] = bucketBacking[i*capacity : i*capacity : (i+1)*capacity]
	}
	for i := range q.pos {
		q.pos[i] = -1
	}
	return q
}

func (q *queue) full() bool  { return q.count >= q.cap }
func (q *queue) empty() bool { return q.count == 0 }
func (q *queue) size() int   { return q.count }

// push appends r to its bank's bucket. The caller must have resolved
// r.bankID (Enqueue does).
func (q *queue) push(r *Request) {
	r.seq = q.seq
	q.seq++
	b := r.bankID
	if len(q.byBank[b]) == 0 {
		q.pos[b] = len(q.occupied)
		q.occupied = append(q.occupied, b)
		q.heads = append(q.heads, r)
	}
	q.byBank[b] = append(q.byBank[b], r)
	q.count++
}

// reset drops every queued request (releasing the pointers for GC),
// returning the queue to its constructed state. Bucket storage is kept,
// so restore refills the queue without reallocating.
func (q *queue) reset() {
	for i, b := range q.occupied {
		bucket := q.byBank[b]
		for j := range bucket {
			bucket[j] = nil
		}
		q.byBank[b] = bucket[:0]
		q.pos[b] = -1
		q.heads[i] = nil
	}
	q.occupied = q.occupied[:0]
	q.heads = q.heads[:0]
	q.count = 0
	q.seq = 0
}

// remove deletes the i-th request of bankID's bucket, preserving arrival
// order within the bank and the head-age order of occupied.
func (q *queue) remove(bankID, i int) {
	b := q.byBank[bankID]
	copy(b[i:], b[i+1:])
	b[len(b)-1] = nil
	b = b[:len(b)-1]
	q.byBank[bankID] = b
	q.count--
	if len(b) == 0 {
		// Bank drained: delete it from occupied/heads, preserving order.
		idx := q.pos[bankID]
		copy(q.occupied[idx:], q.occupied[idx+1:])
		copy(q.heads[idx:], q.heads[idx+1:])
		last := len(q.occupied) - 1
		q.occupied = q.occupied[:last]
		q.heads[last] = nil
		q.heads = q.heads[:last]
		for j := idx; j < last; j++ {
			q.pos[q.occupied[j]] = j
		}
		q.pos[bankID] = -1
		return
	}
	if i == 0 {
		// Head removed: the new head is younger, so the bank may belong
		// further right in occupied. Shift it past banks with older heads.
		idx := q.pos[bankID]
		hseq := b[0].seq
		j := idx
		for j+1 < len(q.occupied) && q.heads[j+1].seq < hseq {
			q.occupied[j] = q.occupied[j+1]
			q.heads[j] = q.heads[j+1]
			q.pos[q.occupied[j]] = j
			j++
		}
		q.occupied[j] = bankID
		q.heads[j] = b[0]
		q.pos[bankID] = j
	}
}
