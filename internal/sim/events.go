package sim

import (
	"fmt"

	"repro/internal/ev"
)

// event is a deferred action in CPU-cycle time. The action is an
// ev.Token rather than a closure so pending events can be written to a
// checkpoint and restored verbatim (see internal/ev).
type event struct {
	at  int64
	tok ev.Token
}

// eventQueue holds the pending events in FIFO lanes, one per fixed
// event delay of Table 1's machine: a DRAM read's tCL + tBL, and each
// cache level's lookup latency. Every event on a lane is due at its
// source's clock plus the lane's delay, so a lane's due times arrive in
// order and firing one is a ring advance. Lanes are registered at
// construction, the memory lane first, and fire in that order.
type eventQueue struct {
	lanes []eventLane
	// nextDue is the earliest pending due time over every lane, or
	// maxInt64 when nothing is pending. New, Restore and fireDue leave it
	// exact and schedule only lowers it, so the run loop reads the next
	// event time off it directly.
	nextDue int64
}

// eventLane is one lane's pending events in firing order: n events from
// ring[head] on, wrapping around the ring, whose length is a power of
// two that doubles only when the ring is full.
type eventLane struct {
	ring  []event
	head  int
	n     int
	delay int64 // CPU cycles from schedule to due
}

// newLane registers a lane for events delay cycles after their source's
// clock and returns its index. Lanes live for the queue's lifetime, so
// the schedulers bound at System construction stay valid for the run.
func (q *eventQueue) newLane(delay int64) int {
	q.lanes = append(q.lanes, eventLane{ring: make([]event, 16), delay: delay})
	return len(q.lanes) - 1
}

// schedule adds a token due at absolute CPU cycle at to a lane. A due
// time below the lane's last pending one breaks the lane's order, which
// firing relies on, so it panics.
func (q *eventQueue) schedule(lane int, at int64, tok ev.Token) {
	l := &q.lanes[lane]
	if l.n > 0 {
		if last := l.ring[(l.head+l.n-1)&(len(l.ring)-1)].at; at < last {
			panic(fmt.Sprintf("sim: event lane %d: due cycle %d below the lane's last, %d", lane, at, last))
		}
	}
	if l.n == len(l.ring) {
		ring := make([]event, 2*len(l.ring))
		copy(ring[copy(ring, l.ring[l.head:]):], l.ring[:l.head])
		l.ring, l.head = ring, 0
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = event{at: at, tok: tok}
	l.n++
	if at < q.nextDue {
		q.nextDue = at
	}
}

// fireDue runs every event due at or before now: lane by lane in
// registration order, each lane in FIFO order, until nothing due is
// left. Both engines share this order, so dense/skip bit-equality is
// unaffected. The per-cycle nothing-due case is one compare.
func (q *eventQueue) fireDue(now int64, d ev.Dispatcher) {
	for now >= q.nextDue {
		for i := range q.lanes {
			l := &q.lanes[i]
			for l.n > 0 {
				e := l.ring[l.head]
				if e.at > now {
					break
				}
				l.head = (l.head + 1) & (len(l.ring) - 1)
				l.n--
				d.Dispatch(e.tok, now)
			}
		}
		q.nextDue = maxInt64
		for i := range q.lanes {
			if l := &q.lanes[i]; l.n > 0 && l.ring[l.head].at < q.nextDue {
				q.nextDue = l.ring[l.head].at
			}
		}
	}
}
