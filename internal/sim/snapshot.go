package sim

import (
	"io"

	"repro/internal/core"
	"repro/internal/ev"
	"repro/internal/fgss"
	"repro/internal/memctrl"
)

// Section tags of the FGSS stream, one per simulation layer, in the
// fixed order Snapshot writes and Restore demands them.
const (
	snapSecSystem   = 1 // clock, controller wake registers
	snapSecEvents   = 2 // event queue: heap and FIFO lanes
	snapSecCores    = 3 // per-core execution state
	snapSecTraces   = 4 // per-core workload source positions
	snapSecCaches   = 5 // SRAM hierarchy, node-ID order
	snapSecChannels = 6 // DRAM channels: banks, timing windows
	snapSecCtrls    = 7 // memory controllers: queues, relocations
	snapSecHooks    = 8 // in-DRAM cache hooks (FIGCache / LISA-VILLA)
	snapSecAdapter  = 9 // requests buffered between hierarchy and controllers
)

// Hook kind markers inside snapSecHooks.
const (
	hookNone     = 0
	hookFIGCache = 1
	hookLISA     = 2
)

// snapshotter is the optional checkpoint interface of a workload trace
// reader. Both workload.Generator and workload.Replayer implement it;
// a reader that does not cannot travel in a snapshot and is marked
// absent in the stream.
type snapshotter interface {
	Snapshot(*fgss.Writer)
	Restore(*fgss.Reader)
}

func snapEvent(w *fgss.Writer, e event) {
	w.I64(e.at)
	w.I64(e.seq)
	w.U64(uint64(e.tok.Kind))
	w.I64(int64(e.tok.ID))
	w.U64(e.tok.Arg)
}

func restoreEvent(r *fgss.Reader) event {
	var e event
	e.at = r.I64()
	e.seq = r.I64()
	e.tok.Kind = ev.Kind(r.U64())
	e.tok.ID = int32(r.I64())
	e.tok.Arg = r.U64()
	return e
}

// snapshot appends the queue's pending events: the heap in array order
// (a valid heap round-trips as-is) and each lane's undelivered suffix.
// The global sequence counter travels too, so post-restore scheduling
// continues the uninterrupted run's tie-break order exactly.
func (q *eventQueue) snapshot(w *fgss.Writer) {
	w.I64(q.seq)
	w.Int(len(q.items))
	for _, e := range q.items {
		snapEvent(w, e)
	}
	w.Int(len(q.lanes))
	for i := range q.lanes {
		l := &q.lanes[i]
		w.Int(len(l.items) - l.head)
		for _, e := range l.items[l.head:] {
			snapEvent(w, e)
		}
	}
}

// restore reads back what snapshot wrote, dropping any currently
// pending events. Lane registrations are construction-time bindings and
// must already exist (a count mismatch stops decoding). nextDue is left
// at its ambiguous zero, which forces the next nextAt to rescan.
func (q *eventQueue) restore(r *fgss.Reader) {
	q.seq = r.I64()
	clear(q.items)
	q.items = q.items[:0]
	n := r.Int()
	for i := 0; i < n && r.Err() == nil; i++ {
		q.items = append(q.items, restoreEvent(r))
	}
	if r.Int() != len(q.lanes) {
		return
	}
	for i := range q.lanes {
		l := &q.lanes[i]
		clear(l.items)
		l.items = l.items[:0]
		l.head = 0
		n := r.Int()
		for j := 0; j < n && r.Err() == nil; j++ {
			l.items = append(l.items, restoreEvent(r))
		}
	}
	q.nextDue = 0
}

// Snapshot writes the complete mutable simulation state as one FGSS
// stream: every layer's state in a tagged section, under a header that
// pins the engine version and the configuration fingerprint. A restore
// into the same build and configuration resumes the run bit-identically
// (TestEngineEquivalence's checkpoint cases); anything else is refused
// at the header.
func (s *System) Snapshot(out io.Writer) error {
	w := fgss.NewWriter(out, uint32(EngineVersion), [32]byte(s.cfg.Fingerprint()))

	w.Begin(snapSecSystem)
	w.I64(s.clock)
	w.Int(len(s.ctrlWake))
	for _, v := range s.ctrlWake {
		w.I64(v)
	}
	w.End()

	w.Begin(snapSecEvents)
	s.events.snapshot(w)
	w.End()

	w.Begin(snapSecCores)
	w.Int(len(s.cores))
	for _, c := range s.cores {
		c.Snapshot(w)
	}
	w.End()

	w.Begin(snapSecTraces)
	w.Int(len(s.cores))
	for _, c := range s.cores {
		if sn, ok := c.TraceReader().(snapshotter); ok {
			w.Int(1)
			sn.Snapshot(w)
		} else {
			w.Int(0)
		}
	}
	w.End()

	w.Begin(snapSecCaches)
	s.hier.Snapshot(w)
	w.End()

	w.Begin(snapSecChannels)
	w.Int(len(s.channels))
	for _, ch := range s.channels {
		ch.Snapshot(w)
	}
	w.End()

	w.Begin(snapSecCtrls)
	w.Int(len(s.ctrls))
	for _, c := range s.ctrls {
		c.Snapshot(w)
	}
	w.End()

	w.Begin(snapSecHooks)
	w.Int(len(s.hooks))
	for _, h := range s.hooks {
		if fc := FIGCacheOf(h); fc != nil {
			w.Int(hookFIGCache)
			fc.Snapshot(w)
		} else if lv, ok := h.(*core.LISAVilla); ok {
			w.Int(hookLISA)
			lv.Snapshot(w)
		} else {
			w.Int(hookNone)
		}
	}
	w.End()

	w.Begin(snapSecAdapter)
	w.Int(len(s.adapter.pending))
	for _, p := range s.adapter.pending {
		w.Int(p.channel)
		memctrl.SnapshotRequest(w, p.req)
	}
	w.End()

	return w.Flush()
}

// Restore replaces the System's mutable state with a snapshot written
// by Snapshot. The receiver must be built by New for the same
// configuration: the FGSS header refuses a mismatched EngineVersion or
// config fingerprint, and with both pinned every structural dimension
// below — core count, window sizes, hierarchy shape, bank counts, hook
// kinds — matches by construction. Run (or RunUntilRetired) may be
// called immediately after; the continuation is bit-identical to the
// uninterrupted run.
func (s *System) Restore(in io.Reader) error {
	r, err := fgss.NewReader(in, uint32(EngineVersion), [32]byte(s.cfg.Fingerprint()))
	if err != nil {
		return err
	}

	r.Section(snapSecSystem)
	s.clock = r.I64()
	if nw := r.Int(); nw == 0 {
		for i := range s.ctrlWake {
			s.ctrlWake[i] = 0
		}
	} else if nw == len(s.ctrls) {
		if s.ctrlWake == nil {
			s.ctrlWake = make([]int64, len(s.ctrls))
		}
		for i := range s.ctrlWake {
			s.ctrlWake[i] = r.I64()
		}
	}
	// The wake tournament tree is derived state: re-point it at the (possibly
	// freshly allocated) leaf slice and rebuild the internal nodes.
	if s.ctrlWake != nil {
		s.wake.init(s.ctrlWake)
	}
	// Every run settles its parked cores on exit, so a snapshot is taken
	// with none parked; the restored cores start running.
	for i := range s.parkedAt {
		s.parkedAt[i] = -1
	}
	r.EndSection()

	r.Section(snapSecEvents)
	s.events.restore(r)
	r.EndSection()

	r.Section(snapSecCores)
	if r.Int() == len(s.cores) {
		for _, c := range s.cores {
			c.Restore(r)
		}
	}
	r.EndSection()

	r.Section(snapSecTraces)
	if r.Int() == len(s.cores) {
		for _, c := range s.cores {
			present := r.Int()
			sn, ok := c.TraceReader().(snapshotter)
			if present == 1 && ok {
				sn.Restore(r)
			}
		}
	}
	r.EndSection()

	r.Section(snapSecCaches)
	s.hier.Restore(r)
	r.EndSection()

	r.Section(snapSecChannels)
	if r.Int() == len(s.channels) {
		for _, ch := range s.channels {
			ch.Restore(r)
		}
	}
	r.EndSection()

	r.Section(snapSecCtrls)
	if r.Int() == len(s.ctrls) {
		for _, c := range s.ctrls {
			c.Restore(r)
		}
	}
	r.EndSection()

	r.Section(snapSecHooks)
	if r.Int() == len(s.hooks) {
		for _, h := range s.hooks {
			kind := r.Int()
			switch {
			case kind == hookFIGCache && FIGCacheOf(h) != nil:
				FIGCacheOf(h).Restore(r)
			case kind == hookLISA:
				if lv, ok := h.(*core.LISAVilla); ok {
					lv.Restore(r)
				}
			}
		}
	}
	r.EndSection()

	r.Section(snapSecAdapter)
	for i := range s.adapter.pending {
		s.adapter.release(s.adapter.pending[i].req)
		s.adapter.pending[i] = pendingReq{}
	}
	s.adapter.pending = s.adapter.pending[:0]
	np := r.Int()
	for i := 0; i < np && r.Err() == nil; i++ {
		ch := r.Int()
		if ch < 0 || ch >= len(s.channels) {
			break
		}
		req := s.adapter.alloc()
		memctrl.RestoreRequest(r, req, s.channels[ch])
		s.adapter.pending = append(s.adapter.pending, pendingReq{channel: ch, req: req})
	}
	r.EndSection()

	if err := r.Err(); err != nil {
		return err
	}
	return r.Close()
}
