package dram

import "repro/internal/fgss"

// Snapshot appends the bank's mutable state: the open-row registers,
// every per-command timing window, and the command counters. The
// geometry and timing sets are configuration.
func (b *Bank) Snapshot(w *fgss.Writer) {
	w.Int(b.openRow)
	w.Bool(b.openCacheRow)
	w.I64(b.nextACT)
	w.I64(b.nextPRE)
	w.I64(b.nextRD)
	w.I64(b.nextWR)
	w.I64(b.NumACT)
	w.I64(b.NumACTFast)
	w.I64(b.NumPRE)
	w.I64(b.NumRD)
	w.I64(b.NumWR)
	w.I64(b.NumRELOC)
	w.I64(b.NumRBMHops)
	w.I64(b.RowHits)
	w.I64(b.RowMisses)
	w.I64(b.RowConflict)
}

// Restore reads back what Snapshot wrote.
func (b *Bank) Restore(r *fgss.Reader) {
	b.openRow = r.Int()
	b.openCacheRow = r.Bool()
	b.nextACT = r.I64()
	b.nextPRE = r.I64()
	b.nextRD = r.I64()
	b.nextWR = r.I64()
	b.NumACT = r.I64()
	b.NumACTFast = r.I64()
	b.NumPRE = r.I64()
	b.NumRD = r.I64()
	b.NumWR = r.I64()
	b.NumRELOC = r.I64()
	b.NumRBMHops = r.I64()
	b.RowHits = r.I64()
	b.RowMisses = r.I64()
	b.RowConflict = r.I64()
}

// Snapshot appends the channel's full timing state: every bank, the
// per-rank ACT history and refresh phase, the data-bus turnaround
// registers, the tCCD windows, and the channel counters. The command
// trace is debug-only state and is not checkpointed; sim runs never
// enable it.
func (c *Channel) Snapshot(w *fgss.Writer) {
	w.Int(len(c.banks))
	for i := range c.banks {
		c.banks[i].Snapshot(w)
	}
	w.Int(len(c.actTimes))
	for r := range c.actTimes {
		w.Int(len(c.actTimes[r]))
		for _, at := range c.actTimes[r] {
			w.I64(at)
		}
		w.I64(c.lastACT[r])
		w.I64(c.nextREF[r])
		w.Bool(c.refPending[r])
	}
	w.Int(int(c.lastColType))
	w.I64(c.lastColEnd)
	w.I64(c.colReadyS)
	w.Int(len(c.colReadyL))
	for _, v := range c.colReadyL {
		w.I64(v)
	}
	w.I64(c.NumREF)
	w.I64(c.RelocBusy)
}

// Restore reads back what Snapshot wrote. The receiver must have the
// snapshotted rank/bank shape: another bank, rank or tCCD_L window
// count is a decode error, and so is a tFAW history longer than the
// channel keeps.
func (c *Channel) Restore(r *fgss.Reader) {
	if !r.Expect(len(c.banks), "dram: banks") {
		return
	}
	for i := range c.banks {
		c.banks[i].Restore(r)
	}
	if !r.Expect(len(c.actTimes), "dram: ranks") {
		return
	}
	for rank := range c.actTimes {
		n := r.Len(actHistory, "dram: tFAW history")
		c.actTimes[rank] = c.actTimes[rank][:0]
		for i := 0; i < n && r.Err() == nil; i++ {
			c.actTimes[rank] = append(c.actTimes[rank], r.I64())
		}
		c.lastACT[rank] = r.I64()
		c.nextREF[rank] = r.I64()
		c.refPending[rank] = r.Bool()
	}
	c.lastColType = CmdType(r.Int())
	c.lastColEnd = r.I64()
	c.colReadyS = r.I64()
	if !r.Expect(len(c.colReadyL), "dram: tCCD_L windows") {
		return
	}
	for i := range c.colReadyL {
		c.colReadyL[i] = r.I64()
	}
	c.NumREF = r.I64()
	c.RelocBusy = r.I64()
}
