package memctrl

import (
	"slices"

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
}

// queue holds the pending requests of one kind (read or write) in
// arrival order, oldest first: the order FR-FCFS walks them in.
type queue struct {
	reqs []*Request
	cap  int
}

func newQueue(capacity int) *queue {
	return &queue{reqs: make([]*Request, 0, capacity), cap: capacity}
}

func (q *queue) full() bool  { return len(q.reqs) >= q.cap }
func (q *queue) empty() bool { return len(q.reqs) == 0 }
func (q *queue) size() int   { return len(q.reqs) }

func (q *queue) push(r *Request) { q.reqs = append(q.reqs, r) }

// remove deletes the i-th oldest request, keeping the others in arrival
// order.
func (q *queue) remove(i int) { q.reqs = slices.Delete(q.reqs, i, i+1) }

// reset drops every queued request (releasing the pointers for GC).
func (q *queue) reset() {
	clear(q.reqs)
	q.reqs = q.reqs[:0]
}
