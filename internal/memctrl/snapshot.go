package memctrl

import (
	"fmt"
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

func snapPlan(w *fgss.Writer, p *RelocPlan) {
	snapLoc(w, p.Loc)
	w.I64(p.Cost)
	w.Int(p.Blocks)
	w.Int(p.Hops)
	w.Bool(p.IsLISA)
	w.Bool(p.ChannelWide)
	w.Int(p.CommitBank)
	w.Int(p.CommitSlot)
	w.Int(p.CommitRow)
	w.Int(p.CommitSeg)
}

func restorePlan(r *fgss.Reader) *RelocPlan {
	p := &RelocPlan{}
	p.Loc = restoreLoc(r)
	p.Cost = r.I64()
	p.Blocks = r.Int()
	p.Hops = r.Int()
	p.IsLISA = r.Bool()
	p.ChannelWide = r.Bool()
	p.CommitBank = r.Int()
	p.CommitSlot = r.Int()
	p.CommitRow = r.Int()
	p.CommitSeg = r.Int()
	return p
}

// Snapshot appends the controller's full mutable state: both request
// queues, the write-drain mode, every deferred relocation plan, the
// per-bank quiet-window registers, the statistics counters, and the
// latency reservoir.
func (c *Controller) Snapshot(w *fgss.Writer) {
	c.readQ.snapshot(w)
	c.writeQ.snapshot(w)
	w.Bool(c.writing)
	w.Int(len(c.pendingRelocs))
	for _, plans := range c.pendingRelocs {
		w.Int(len(plans))
		for _, p := range plans {
			snapPlan(w, p)
		}
	}
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

// Restore reads back what Snapshot wrote, recomputing the derived
// mask of banks with relocation work. Queued requests are rebuilt as fresh
// objects; the creator's pooling resumes as they are served and
// released. The receiver must be built over a channel with the
// snapshotted bank count (another count is a decode error). The bytes come
// from disk, so besides RestoreRequest's checks (checkTok vets the
// requests' completion tokens) and the queues' own (see queue.restore),
// a relocation plan whose bank is not in
// the channel, or whose commit payload the hook refuses
// (CacheHook.CheckPlan) or that a controller without a hook holds, is a
// decode error rather than a panic when the plan is flushed.
func (c *Controller) Restore(r *fgss.Reader, checkTok func(ev.Token) error) {
	c.readQ.restore(r, c.channel, false, checkTok)
	c.writeQ.restore(r, c.channel, true, checkTok)
	c.writing = r.Bool()
	if !r.Expect(len(c.pendingRelocs), "memctrl: plan banks") {
		return
	}
	c.relocMask = 0
	for i := range c.pendingRelocs {
		c.pendingRelocs[i] = nil
		n := r.Len(math.MaxInt, "memctrl: bank plans")
		for j := 0; j < n && r.Err() == nil; j++ {
			p := restorePlan(r)
			if err := c.checkPlan(p); err != nil {
				r.Reject("memctrl: controller %d: relocation plan %d of bank %d: %v", c.ID, j, i, err)
				return
			}
			c.pendingRelocs[i] = append(c.pendingRelocs[i], p)
		}
		if len(c.pendingRelocs[i]) > 0 {
			c.relocMask |= 1 << i
		}
	}
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
}

// checkPlan reports why flushing a restored plan would fail, or nil.
func (c *Controller) checkPlan(p *RelocPlan) error {
	switch {
	case !c.channel.Geo.HasBank(p.Loc):
		return fmt.Errorf("location %v names no bank of the channel", p.Loc)
	case c.cache == nil:
		return fmt.Errorf("no in-DRAM cache to commit it")
	}
	return c.cache.CheckPlan(p)
}
