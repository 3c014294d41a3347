package memctrl

import (
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

func snapToken(w *fgss.Writer, t ev.Token) {
	w.U64(uint64(t.Kind))
	w.I64(int64(t.ID))
	w.U64(t.Arg)
}

func restoreToken(r *fgss.Reader) ev.Token {
	kind := ev.Kind(r.U64())
	id := int32(r.I64())
	return ev.Token{Kind: kind, ID: id, Arg: r.U64()}
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
	snapToken(w, r.OnComplete)
	snapLoc(w, r.ServiceLoc)
	w.Bool(r.CacheHit)
	w.Bool(r.noInsert)
	w.I64(r.seq)
}

// RestoreRequest reads back what SnapshotRequest wrote into r and
// re-resolves the bank cache against ch.
func RestoreRequest(rd *fgss.Reader, r *Request, ch *dram.Channel) {
	r.Addr = rd.U64()
	r.Loc = restoreLoc(rd)
	r.IsWrite = rd.Bool()
	r.Arrive = rd.I64()
	r.CoreID = rd.Int()
	r.OnComplete = restoreToken(rd)
	r.ServiceLoc = restoreLoc(rd)
	r.CacheHit = rd.Bool()
	r.noInsert = rd.Bool()
	r.seq = rd.I64()
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

// restore reads back what snapshot wrote, dropping any currently
// queued requests first. Requests are re-bucketed by their re-resolved
// bank ID in serialized order, which reproduces the occupied/heads/pos
// index byte-for-byte because snapshot walked buckets in head-age
// order.
func (q *queue) restore(rd *fgss.Reader, ch *dram.Channel) {
	q.reset()
	q.seq = rd.I64()
	nOcc := rd.Int()
	if nOcc < 0 || nOcc > len(q.byBank) {
		return
	}
	for i := 0; i < nOcc && rd.Err() == nil; i++ {
		n := rd.Int()
		for j := 0; j < n && rd.Err() == nil; j++ {
			r := &Request{}
			RestoreRequest(rd, r, ch)
			if rd.Err() != nil {
				return
			}
			b := r.bankID
			if len(q.byBank[b]) == 0 {
				q.pos[b] = len(q.occupied)
				q.occupied = append(q.occupied, b)
				q.heads = append(q.heads, r)
			}
			q.byBank[b] = append(q.byBank[b], r)
			q.count++
		}
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
// per-bank quiet-window registers, the lazy write-drain tick register,
// the statistics counters, and the latency reservoir.
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
	w.I64(c.lastTick)
	w.I64(c.NumReads)
	w.I64(c.NumWrites)
	w.I64(c.CacheHits)
	w.I64(c.CacheMisses)
	w.I64(c.ReadLatencySum)
	w.I64(c.Inserted)
	w.I64(c.QueueFullStalls)
	w.Int(c.MaxReadQ)
	w.Int(c.MaxWriteQ)
	w.I64(c.WritingCycles)
	c.latSamples.Snapshot(w)
}

// Restore reads back what Snapshot wrote, recomputing the derived
// mask of banks with relocation work. Queued requests are rebuilt as fresh
// objects; the creator's pooling resumes as they are served and
// released. The receiver must be built over a channel with the
// snapshotted bank count (a mismatch stops decoding).
func (c *Controller) Restore(r *fgss.Reader) {
	c.readQ.restore(r, c.channel)
	c.writeQ.restore(r, c.channel)
	c.writing = r.Bool()
	if r.Int() != len(c.pendingRelocs) {
		return
	}
	clear(c.relocMask)
	for i := range c.pendingRelocs {
		c.pendingRelocs[i] = nil
		n := r.Int()
		for j := 0; j < n && r.Err() == nil; j++ {
			c.pendingRelocs[i] = append(c.pendingRelocs[i], restorePlan(r))
		}
		if len(c.pendingRelocs[i]) > 0 {
			c.relocMask[i>>6] |= 1 << (i & 63)
		}
	}
	if r.Int() != len(c.lastColumn) {
		return
	}
	for i := range c.lastColumn {
		c.lastColumn[i] = r.I64()
	}
	c.lastTick = r.I64()
	c.NumReads = r.I64()
	c.NumWrites = r.I64()
	c.CacheHits = r.I64()
	c.CacheMisses = r.I64()
	c.ReadLatencySum = r.I64()
	c.Inserted = r.I64()
	c.QueueFullStalls = r.I64()
	c.MaxReadQ = r.Int()
	c.MaxWriteQ = r.Int()
	c.WritingCycles = r.I64()
	c.latSamples.Restore(r)
}
