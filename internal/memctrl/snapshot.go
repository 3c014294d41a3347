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
	w.Int(r.CoreID)
	ev.WriteToken(w, r.OnComplete)
	snapLoc(w, r.ServiceLoc)
	w.Bool(r.CacheHit)
	w.Bool(r.noInsert)
	w.I64(r.seq)
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
	r.CoreID = rd.Int()
	r.OnComplete = ev.ReadToken(rd)
	r.ServiceLoc = restoreLoc(rd)
	r.CacheHit = rd.Bool()
	r.noInsert = rd.Bool()
	r.seq = rd.I64()
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

// snapshot appends the queue's push counter and every queued request,
// bucket by bucket in occupied (head-age) order — the walk order that
// lets restore rebuild occupied/heads/pos exactly.
func (q *queue) snapshot(w *fgss.Writer) {
	w.I64(q.seq)
	w.Int(len(q.occupied))
	for _, b := range q.occupied {
		bucket := q.byBank[b]
		w.Int(len(bucket))
		for _, r := range bucket {
			SnapshotRequest(w, r)
		}
	}
}

// restore reads back what snapshot wrote into the read queue (writes
// false) or the write queue (writes true), dropping any currently
// queued requests first. Requests are re-bucketed by their re-resolved
// bank ID in serialized order, which reproduces the occupied/heads/pos
// index byte-for-byte because snapshot walked buckets in head-age
// order. checkTok vets each request's completion token. The bytes come
// from disk, so a queue push never builds is a decode error
// (fgss.Reader.Reject): a request of the other kind, more requests than
// the queue holds, an occupied bank listed with no request, listed
// twice or with another bank's request, or push stamps that are not
// ascending within a bank, not ascending across the occupied banks'
// heads, or not below the push counter.
func (q *queue) restore(rd *fgss.Reader, ch *dram.Channel, writes bool, checkTok func(ev.Token) error) {
	q.reset()
	q.seq = rd.I64()
	kind := "read"
	if writes {
		kind = "write"
	}
	nOcc := rd.Int()
	if nOcc < 0 || nOcc > len(q.byBank) {
		rd.Reject("memctrl: %s queue lists %d occupied banks of %d", kind, nOcc, len(q.byBank))
		return
	}
	for i := 0; i < nOcc && rd.Err() == nil; i++ {
		n := rd.Len(math.MaxInt, "memctrl: bucket requests")
		if n == 0 && rd.Err() == nil {
			rd.Reject("memctrl: %s queue: occupied bank %d of %d lists no request", kind, i, nOcc)
		}
		bank := -1 // the listed bucket's bank, once its first request names it
		for j := 0; j < n && rd.Err() == nil; j++ {
			r := &Request{}
			RestoreRequest(rd, r, ch, checkTok)
			if rd.Err() != nil {
				return
			}
			if why := q.refuse(r, writes, bank); why != "" {
				rd.Reject("memctrl: %s queue: request %#x: %s", kind, r.Addr, why)
				return
			}
			b := r.bankID
			if bank < 0 {
				bank = b
				q.pos[b] = len(q.occupied)
				q.occupied = append(q.occupied, b)
				q.heads = append(q.heads, r)
			}
			q.byBank[b] = append(q.byBank[b], r)
			q.count++
		}
	}
}

// refuse reports why restore cannot append r to the queue rebuilt so
// far, as a request of bank's listed bucket (-1 for a bucket's first
// request), or "".
func (q *queue) refuse(r *Request, writes bool, bank int) string {
	bucket := q.byBank[r.bankID]
	switch {
	case r.IsWrite != writes:
		return fmt.Sprintf("write=%v in the other kind's queue", r.IsWrite)
	case q.count >= q.cap:
		return fmt.Sprintf("more than the queue's %d entries", q.cap)
	case bank < 0 && len(bucket) > 0:
		return fmt.Sprintf("bank %d is listed twice", r.bankID)
	case bank >= 0 && r.bankID != bank:
		return fmt.Sprintf("bank %d's request in bank %d's bucket", r.bankID, bank)
	case r.seq >= q.seq:
		return fmt.Sprintf("push stamp %d is not below the push counter %d", r.seq, q.seq)
	case len(bucket) > 0 && r.seq <= bucket[len(bucket)-1].seq:
		return fmt.Sprintf("push stamp %d is not above bank %d's previous %d", r.seq, r.bankID, bucket[len(bucket)-1].seq)
	case len(bucket) == 0 && len(q.heads) > 0 && r.seq <= q.heads[len(q.heads)-1].seq:
		return fmt.Sprintf("push stamp %d of bank %d's head is not above the previous head's %d", r.seq, r.bankID, q.heads[len(q.heads)-1].seq)
	}
	return ""
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
	clear(c.relocMask)
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
			c.relocMask[i>>6] |= 1 << (i & 63)
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
