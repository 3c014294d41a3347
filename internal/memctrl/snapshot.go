package memctrl

import (
	"math"

	"repro/internal/dram"
	"repro/internal/ev"
	"repro/internal/fgss"
)

func snapLoc(w *fgss.Writer, l dram.Location) {
	w.Int(l.Rank)
	w.Int(l.Group)
	w.Int(l.Bank)
	w.Int(l.Row)
	w.Int(l.Block)
	w.Bool(l.CacheRow)
}

func restoreLoc(r *fgss.Reader) dram.Location {
	var l dram.Location
	l.Rank = r.Int()
	l.Group = r.Int()
	l.Bank = r.Int()
	l.Row = r.Int()
	l.Block = r.Int()
	l.CacheRow = r.Bool()
	return l
}

// SnapshotRequest appends one request's full payload: everything but
// the bank resolution (recomputed from ServiceLoc on restore) travels
// in the snapshot.
func SnapshotRequest(w *fgss.Writer, r *Request) {
	w.U64(r.Addr)
	snapLoc(w, r.Loc)
	w.Bool(r.IsWrite)
	w.I64(r.Arrive)
	ev.WriteToken(w, r.OnComplete)
	snapLoc(w, r.ServiceLoc)
	w.Bool(r.CacheHit)
	w.Bool(r.noInsert)
}

// RestoreRequest reads back what SnapshotRequest wrote into r and
// re-resolves the bank cache against ch. The bytes come from disk, so a
// location or service location naming no bank of ch, a completion
// token checkTok refuses, and a write carrying a completion token
// (only reads complete; see Request.OnComplete) are decode errors
// (fgss.Reader.Reject) rather than a panic at the bank lookup, at
// dispatch or at the scheduler. The zero token that write-backs carry
// is never checked.
func RestoreRequest(rd *fgss.Reader, r *Request, ch *dram.Channel, checkTok func(ev.Token) error) {
	r.Addr = rd.U64()
	r.Loc = restoreLoc(rd)
	r.IsWrite = rd.Bool()
	r.Arrive = rd.I64()
	r.OnComplete = ev.ReadToken(rd)
	r.ServiceLoc = restoreLoc(rd)
	r.CacheHit = rd.Bool()
	r.noInsert = rd.Bool()
	if !ch.Geo.HasBank(r.Loc) || !ch.Geo.HasBank(r.ServiceLoc) {
		rd.Reject("memctrl: request %#x: location %v or service location %v names no bank of the channel", r.Addr, r.Loc, r.ServiceLoc)
		return
	}
	if !r.OnComplete.IsZero() {
		if r.IsWrite {
			rd.Reject("memctrl: request %#x: a write carries a completion token (kind %d); only reads complete", r.Addr, r.OnComplete.Kind)
			return
		}
		if err := checkTok(r.OnComplete); err != nil {
			rd.Reject("memctrl: request %#x: %v", r.Addr, err)
			return
		}
	}
	r.bankID = r.ServiceLoc.BankID(ch.Geo)
	r.bank = ch.BankByID(r.bankID)
}

// snapshot appends the queue's request count and its requests, oldest
// first.
func (q *queue) snapshot(w *fgss.Writer) {
	w.Int(len(q.reqs))
	for _, r := range q.reqs {
		SnapshotRequest(w, r)
	}
}

// restore reads back what snapshot wrote into the read queue (writes
// false) or the write queue (writes true), dropping any currently
// queued requests first. checkTok vets each request's completion token.
// The bytes come from disk, so a request of the other kind, or more
// requests than the queue holds, is a decode error
// (fgss.Reader.Reject).
func (q *queue) restore(rd *fgss.Reader, ch *dram.Channel, writes bool, checkTok func(ev.Token) error) {
	q.reset()
	kind := "read"
	if writes {
		kind = "write"
	}
	n := rd.Len(math.MaxInt, "memctrl: queued requests")
	for i := 0; i < n && rd.Err() == nil; i++ {
		r := &Request{}
		RestoreRequest(rd, r, ch, checkTok)
		if rd.Err() != nil {
			return
		}
		switch {
		case r.IsWrite != writes:
			rd.Reject("memctrl: %s queue: request %#x: write=%v in the other kind's queue", kind, r.Addr, r.IsWrite)
			return
		case q.full():
			rd.Reject("memctrl: %s queue: request %#x: more than the queue's %d entries", kind, r.Addr, q.cap)
			return
		}
		q.push(r)
	}
}

// Snapshot appends the controller's full mutable state: both request
// queues, the write-drain mode, the per-bank quiet-window registers, the
// statistics counters, and the latency reservoir. The queued insertions
// are the hook's, which the system layer checkpoints.
func (c *Controller) Snapshot(w *fgss.Writer) {
	c.readQ.snapshot(w)
	c.writeQ.snapshot(w)
	w.Bool(c.writing)
	w.Int(len(c.lastColumn))
	for _, v := range c.lastColumn {
		w.I64(v)
	}
	w.I64(c.NumReads)
	w.I64(c.NumWrites)
	w.I64(c.CacheHits)
	w.I64(c.CacheMisses)
	w.I64(c.ReadLatencySum)
	w.I64(c.Inserted)
	c.latSamples.Snapshot(w)
}

// Restore reads back what Snapshot wrote, and rebuilds the mask of banks
// with queued insertions from the hook, which must be restored first.
// Queued requests are rebuilt as fresh objects; the creator's pooling
// resumes as they are served and released. The receiver must be built
// over a channel with the snapshotted bank count (another count is a
// decode error). The bytes come from disk, so besides RestoreRequest's
// checks (checkTok vets the requests' completion tokens) the queues'
// own (see queue.restore) refuse what Snapshot never writes.
func (c *Controller) Restore(r *fgss.Reader, checkTok func(ev.Token) error) {
	c.readQ.restore(r, c.channel, false, checkTok)
	c.writeQ.restore(r, c.channel, true, checkTok)
	c.writing = r.Bool()
	if !r.Expect(len(c.lastColumn), "memctrl: last-column registers") {
		return
	}
	for i := range c.lastColumn {
		c.lastColumn[i] = r.I64()
	}
	c.NumReads = r.I64()
	c.NumWrites = r.I64()
	c.CacheHits = r.I64()
	c.CacheMisses = r.I64()
	c.ReadLatencySum = r.I64()
	c.Inserted = r.I64()
	c.latSamples.Restore(r)
	c.relocMask = 0
	for i := range c.lastColumn {
		if c.cache != nil && c.cache.Pending(i) {
			c.relocMask |= 1 << i
		}
	}
}
