package sim

import "repro/internal/ev"

// event is a deferred action in CPU-cycle time. The action is an
// ev.Token rather than a closure so pending events can be written to a
// checkpoint and restored verbatim (see internal/ev).
type event struct {
	at  int64
	seq int64 // tie-breaker for deterministic ordering
	tok ev.Token
}

// eventQueue is a deterministic priority queue of events, split into a
// min-heap plus any number of FIFO lanes. The heap is hand-rolled rather
// than built on container/heap: events fire several times per simulated
// memory access, and the interface boxing of heap.Push/Pop allocates on
// every call. Lanes exist because the hottest event sources — fixed-
// latency cache completions — schedule with one constant delay each, so
// their due times arrive in non-decreasing order and an append/advance
// ring replaces a heap push/pop pair per event. Ordering is identical to
// a single heap: every event still gets a global sequence number, and
// firing always picks the minimum (at, seq) across the heap top and all
// lane heads.
type eventQueue struct {
	items []event
	seq   int64
	lanes []eventLane
	// nextDue is the earliest pending at across heap and lanes — the O(1)
	// fast path that lets the per-cycle fireDue probe skip the source scan
	// entirely. Exact after every fireDue (which recomputes it when the
	// due events are drained) and only ever lowered by schedules in
	// between; the zero value conservatively forces a scan.
	nextDue int64
}

// eventLane is one monotonic FIFO of events: head is the index of the
// next undelivered event; the slice is compacted whenever it drains.
type eventLane struct {
	items []event
	head  int
}

// newLane registers a new FIFO lane and returns its index. Lanes live for
// the queue's lifetime, so the per-cache-level schedulers bound at System
// construction stay valid for the whole run.
func (q *eventQueue) newLane() int {
	q.lanes = append(q.lanes, eventLane{})
	return len(q.lanes) - 1
}

// scheduleLane adds a token at absolute CPU cycle at on a FIFO lane.
// The caller promises non-decreasing at per lane; a violation falls back
// to the heap so correctness never depends on the promise.
func (q *eventQueue) scheduleLane(lane int, at int64, tok ev.Token) {
	l := &q.lanes[lane]
	if n := len(l.items); n > l.head && l.items[n-1].at > at {
		q.schedule(at, tok)
		return
	}
	if l.head == len(l.items) {
		// Drained: restart the ring so the backing array is reused instead
		// of growing without bound.
		l.items = l.items[:0]
		l.head = 0
	}
	q.seq++
	l.items = append(l.items, event{at: at, seq: q.seq, tok: tok})
	if at < q.nextDue {
		q.nextDue = at
	}
}

func (q *eventQueue) less(i, j int) bool {
	if q.items[i].at != q.items[j].at {
		return q.items[i].at < q.items[j].at
	}
	return q.items[i].seq < q.items[j].seq
}

func (q *eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *eventQueue) down(i int) {
	n := len(q.items)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && q.less(right, left) {
			least = right
		}
		if !q.less(least, i) {
			break
		}
		q.items[i], q.items[least] = q.items[least], q.items[i]
		i = least
	}
}

// schedule adds a token at absolute CPU cycle at.
func (q *eventQueue) schedule(at int64, tok ev.Token) {
	q.seq++
	q.items = append(q.items, event{at: at, seq: q.seq, tok: tok})
	q.up(len(q.items) - 1)
	if at < q.nextDue {
		q.nextDue = at
	}
}

// neverDue marks an empty queue in nextDue.
const neverDue = int64(1<<63 - 1)

// scanNext computes the earliest pending at across the heap and every
// lane by inspection.
func (q *eventQueue) scanNext() (at int64, ok bool) {
	if len(q.items) > 0 {
		at, ok = q.items[0].at, true
	}
	for i := range q.lanes {
		l := &q.lanes[i]
		if l.head < len(l.items) && (!ok || l.items[l.head].at < at) {
			at, ok = l.items[l.head].at, true
		}
	}
	return at, ok
}

// nextAt returns the time of the earliest pending event. O(1) off the
// nextDue cache and small enough to inline into the run loop, which
// consults it every executed cycle; the cache's zero value (a new or
// restored queue, before the first fireDue) is ambiguous and takes the
// out-of-line scan.
func (q *eventQueue) nextAt() (at int64, ok bool) {
	if q.nextDue == 0 {
		return q.nextAtSlow()
	}
	return q.nextDue, q.nextDue != neverDue
}

// nextAtSlow resolves the ambiguous zero nextDue by scanning, and caches
// the answer so subsequent nextAt calls stay on the fast path.
func (q *eventQueue) nextAtSlow() (int64, bool) {
	at, ok := q.scanNext()
	if !ok {
		q.nextDue = neverDue
		return 0, false
	}
	q.nextDue = at
	return at, true
}

// fireDue runs all events due at or before now. Ordering is
// deterministic, source-major: heap events in (at, seq) order first, then
// each lane in registration order, repeated until a full sweep fires
// nothing — so events a firing callback schedules at or before now fire
// in the same call. Per-source draining keeps the cost per event at one
// heap pop or one ring advance; a strict cross-source (at, seq) merge was
// measured to cost more than the heap traffic it replaced. Both engines
// share this discipline, so dense/skip bit-equality is unaffected. The
// nextDue probe makes the per-cycle nothing-due case O(1); when events do
// fire, the exact next due time is recomputed on the way out.
func (q *eventQueue) fireDue(now int64, d ev.Dispatcher) {
	if now < q.nextDue {
		return
	}
	for {
		for len(q.items) > 0 && q.items[0].at <= now {
			tok := q.items[0].tok
			n := len(q.items) - 1
			q.items[0] = q.items[n]
			q.items[n] = event{}
			q.items = q.items[:n]
			if n > 1 {
				q.down(0)
			}
			d.Dispatch(tok, now)
		}
		for i := range q.lanes {
			l := &q.lanes[i]
			if l.head == len(l.items) {
				continue
			}
			for l.head < len(l.items) {
				e := &l.items[l.head]
				if e.at > now {
					break
				}
				tok := e.tok
				*e = event{}
				l.head++
				d.Dispatch(tok, now)
			}
		}
		// One scan both recomputes the nextDue cache and decides whether a
		// firing callback scheduled more work at or before now (rare): the
		// termination check is the bookkeeping, not an extra sweep.
		next, ok := q.scanNext()
		if !ok {
			q.nextDue = neverDue
			return
		}
		q.nextDue = next
		if next > now {
			return
		}
	}
}
