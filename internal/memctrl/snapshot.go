package memctrl

import (
	"math"

	"repro/internal/dram"
	"repro/internal/fgss"
)

// The cache hook's decision on a queued request, made at Enqueue, as a
// request record writes it.
const (
	decMiss     = 0 // a miss the hook may insert, or any request without a hook
	decDeclined = 1 // a miss whose insertion the hook declined
	decHit      = 2 // a hit, followed by its cache row and block
)

// ReadAddr reads a request's address and decodes it: everything else
// about a request follows from it. The bytes come from disk, so an
// address that is not block aligned or lies past the memory is a
// decode error (fgss.Reader.Reject): Decode would wrap it onto another
// block.
func (m *AddrMapper) ReadAddr(r *fgss.Reader) (addr uint64, channel int, loc dram.Location) {
	addr = r.U64()
	if r.Err() == nil && (addr&(uint64(m.geo.BlockBytes)-1) != 0 || addr >= uint64(m.TotalBytes())) {
		r.Reject("memctrl: request %#x is not a block of the %d-byte memory", addr, m.TotalBytes())
	}
	channel, loc = m.Decode(addr)
	return addr, channel, loc
}

// snapshot appends the queue's request count and its requests, oldest
// first, each as its address, arrival cycle and the hook's decision.
// The kind is the queue's, and the rest follows from the address and
// the decision (see restore).
func (q *queue) snapshot(w *fgss.Writer) {
	w.Int(len(q.reqs))
	for _, r := range q.reqs {
		w.U64(r.Addr)
		w.I64(r.Arrive)
		switch {
		case r.CacheHit:
			w.Int(decHit)
			w.Int(r.ServiceLoc.Row)
			w.Int(r.ServiceLoc.Block)
		case r.noInsert:
			w.Int(decDeclined)
		default:
			w.Int(decMiss)
		}
	}
}

// restore reads back what snapshot wrote into c's read queue q (writes
// false) or write queue (writes true), dropping any currently queued
// requests first. It decodes each address with m into the request's
// location; the service location is that location, or on a hit the
// cache row and block in the same bank. The bytes come from disk, so
// besides ReadAddr's checks it refuses (fgss.Reader.Reject) an address
// of another channel than c's, a read of a block for which outstanding
// reports no miss, an arrival before the request ahead of it (or before
// cycle 0), a hook decision on a controller without a hook, a hit
// outside its bank, and more requests than the queue holds.
func (c *Controller) restore(rd *fgss.Reader, q *queue, writes bool, m *AddrMapper, outstanding func(blk uint64) bool) {
	q.reset()
	geo := c.channel.Geo
	n := rd.Len(math.MaxInt, "memctrl: queued requests")
	for i, last := 0, int64(0); i < n && rd.Err() == nil; i++ {
		addr, ch, loc := m.ReadAddr(rd)
		r := &Request{Addr: addr, Loc: loc, IsWrite: writes, Arrive: rd.I64(), ServiceLoc: loc}
		switch dec := rd.Int(); {
		case rd.Err() != nil:
		case r.Arrive < last:
			rd.Reject("memctrl: request %#x arrives at bus cycle %d, before the request ahead of it (%d)", addr, r.Arrive, last)
		case ch != c.ID:
			rd.Reject("memctrl: controller %d: request %#x belongs to channel %d", c.ID, addr, ch)
		case !writes && !outstanding(addr):
			rd.Reject("memctrl: read %#x fetches a block the cache above has no miss outstanding for", addr)
		case dec != decMiss && c.cache == nil:
			rd.Reject("memctrl: request %#x: hook decision %d on a controller without an in-DRAM cache", addr, dec)
		case dec == decDeclined:
			r.noInsert = true
		case dec == decHit:
			row, block := rd.Int(), rd.Int()
			if rd.Err() == nil && (row < 0 || row >= geo.RowsPerBank() || block < 0 || block >= geo.BlocksPerRow()) {
				rd.Reject("memctrl: request %#x: hit on cache row %d block %d, outside the bank", addr, row, block)
			}
			r.CacheHit = true
			r.ServiceLoc.Row, r.ServiceLoc.Block, r.ServiceLoc.CacheRow = row, block, true
		case dec != decMiss:
			rd.Reject("memctrl: request %#x: unknown hook decision %d", addr, dec)
		}
		if rd.Err() == nil && q.full() {
			rd.Reject("memctrl: request %#x: more than the queue's %d entries", addr, q.cap)
		}
		if rd.Err() != nil {
			return
		}
		last = r.Arrive
		r.bankID = r.ServiceLoc.BankID(geo)
		r.bank = c.channel.BankByID(r.bankID)
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

// Restore reads back what Snapshot wrote, decoding the queued requests'
// addresses with m (see restore; outstanding reports the blocks a read
// may fetch), and rebuilds the mask of banks with queued insertions
// from the hook, which must be restored first. Queued requests are
// rebuilt as fresh objects; the creator's pooling resumes as they are
// served and released. The receiver must be built over a channel with
// the snapshotted bank count (another count is a decode error).
func (c *Controller) Restore(r *fgss.Reader, m *AddrMapper, outstanding func(blk uint64) bool) {
	c.restore(r, c.readQ, false, m, outstanding)
	c.restore(r, c.writeQ, true, m, outstanding)
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
