package memctrl

import (
	"slices"

	"repro/internal/dram"
)

// Request is one cache-block memory request queued at a channel's memory
// controller. A read completes when its last data beat arrives: the
// controller reports its address and that bus cycle (see
// Controller.Tick).
type Request struct {
	Addr    uint64        // physical byte address (block aligned)
	Loc     dram.Location // decoded location in the channel
	IsWrite bool
	Arrive  int64 // bus cycle the request entered the queue

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
