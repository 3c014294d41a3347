package sim

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/ev"
	"repro/internal/fgss"
	"repro/internal/memctrl"
)

// Section tags of the FGSS stream, one per simulation layer, in the
// fixed order Snapshot writes and Restore demands them.
const (
	snapSecSystem   = 1 // clock
	snapSecEvents   = 2 // event queue: one FIFO lane per event delay
	snapSecCores    = 3 // per-core execution state and trace cursor
	snapSecCaches   = 4 // SRAM hierarchy, node-ID order
	snapSecChannels = 5 // DRAM channels: banks, timing windows
	snapSecHooks    = 6 // in-DRAM cache hooks (FIGCache / LISA-VILLA): tags, queued insertions
	snapSecCtrls    = 7 // memory controllers: request queues
	snapSecAdapter  = 8 // requests buffered between hierarchy and controllers
)

// Hook kind markers inside snapSecHooks.
const (
	hookNone     = 0
	hookFIGCache = 1
	hookLISA     = 2
)

// snapshot appends each lane's pending events in firing order, as
// (due cycle, token) pairs.
func (q *eventQueue) snapshot(w *fgss.Writer) {
	w.Int(len(q.lanes))
	for i := range q.lanes {
		l := &q.lanes[i]
		w.Int(l.n)
		for j := range l.n {
			e := l.ring[(l.head+j)&(len(l.ring)-1)]
			w.I64(e.at)
			ev.WriteToken(w, e.tok)
		}
	}
}

// restore reads back what snapshot wrote, dropping any currently
// pending events, and leaves nextDue exact. Lanes are construction-time
// bindings and must already exist (another lane count is a decode
// error). Each lane's events must be due in order, none before the
// restored clock (the run has fired those) and none more than the
// lane's delay after it: every later schedule on the lane is due at
// least that late, so the restored run cannot reach schedule's order
// panic. Every token must pass checkTok with its lane, or the snapshot
// is rejected before a bad token reaches Dispatch.
func (q *eventQueue) restore(r *fgss.Reader, clock int64, checkTok func(lane int, t ev.Token) error) {
	q.nextDue = maxInt64
	if !r.Expect(len(q.lanes), "sim: event lanes") {
		return
	}
	for i := range q.lanes {
		l := &q.lanes[i]
		l.head, l.n = 0, 0
		n := r.Len(math.MaxInt, "sim: lane events")
		for j, last := 0, clock; j < n && r.Err() == nil; j++ {
			at, tok := r.I64(), ev.ReadToken(r)
			if r.Err() != nil {
				break
			}
			switch {
			case at < clock:
				r.Reject("sim: lane %d event %d due at cycle %d, before the clock %d", i, j, at, clock)
			case at < last:
				r.Reject("sim: lane %d event %d due at cycle %d, before its predecessor at cycle %d", i, j, at, last)
			case at > clock+l.delay:
				r.Reject("sim: lane %d event %d due at cycle %d, more than the lane's delay %d after the clock %d", i, j, at, l.delay, clock)
			default:
				if err := checkTok(i, tok); err != nil {
					r.Reject("event at cycle %d: %v", at, err)
				} else {
					q.schedule(i, at, tok)
					last = at
				}
			}
		}
	}
}

// tokenHolder returns the cache node that holds a token until it fires
// — in an MSHR's waiter list, or as an event on the lane of the node's
// lookup latency — or -1 for the memory side, whose events wait on the
// memory lane. A core's slot completion is held by the core's L1, which
// completes it on a hit or a fill; a node's MSHRStart by the node; and
// a node's MSHRFill by the level below, which fetches the block: for
// the LLC, the memory side. It reports why a restored token cannot be
// dispatched on this System instead: its kind must be one Dispatch
// executes, its ID a core (CoreSlot) or hierarchy node (MSHRStart,
// MSHRFill) of this System, and a CoreSlot's slot inside the core's
// window.
func (s *System) tokenHolder(t ev.Token) (int32, error) {
	switch t.Kind {
	case ev.CoreSlot:
		if t.ID < 0 || int(t.ID) >= len(s.cores) {
			return 0, fmt.Errorf("core slot token names core %d of %d", t.ID, len(s.cores))
		}
		if t.Arg >= cpu.WindowSize {
			return 0, fmt.Errorf("core slot token names slot %d of core %d's %d-entry window", t.Arg, t.ID, cpu.WindowSize)
		}
		return s.hier.L1s[t.ID].NodeID(), nil
	case ev.MSHRStart, ev.MSHRFill:
		if n := len(s.hier.Nodes()); t.ID < 0 || int(t.ID) >= n {
			return 0, fmt.Errorf("MSHR token (kind %d) names cache node %d of %d", t.Kind, t.ID, n)
		}
		if t.Kind == ev.MSHRStart {
			return t.ID, nil
		}
		return s.hier.Below(t.ID), nil
	default:
		return 0, fmt.Errorf("unknown event token kind %d", t.Kind)
	}
}

// holderName names a token holder: a cache level, or the memory side.
func (s *System) holderName(holder int32) string {
	if holder < 0 {
		return "memory"
	}
	return s.hier.Node(holder).Config().Name
}

// laneOf returns the event lane of a token holder: the memory lane, or
// the lane of the cache level's lookup latency.
func (s *System) laneOf(holder int32) int {
	if holder < 0 {
		return memLane
	}
	return s.latencyLanes[s.hier.Node(holder).Config().Latency].lane
}

// checkEvent reports why a restored event on lane cannot fire on this
// System, or nil: its token must be one Dispatch executes, on the lane
// of its holder (tokenHolder).
func (s *System) checkEvent(lane int, t ev.Token) error {
	holder, err := s.tokenHolder(t)
	if err == nil && lane != s.laneOf(holder) {
		err = fmt.Errorf("token (kind %d, ID %d) is held by %s, on lane %d, not lane %d", t.Kind, t.ID, s.holderName(holder), s.laneOf(holder), lane)
	}
	return err
}

// checkWaiter reports why a restored waiter of cache node's MSHR on
// block blk cannot be dispatched on this System, or nil: its token must
// be one Dispatch executes, and its holder (tokenHolder) the node. A
// waiter is a load's slot completion or an upper level's fill of the
// same block; an MSHRStart is only ever an event.
func (s *System) checkWaiter(node int32, blk uint64, t ev.Token) error {
	holder, err := s.tokenHolder(t)
	switch {
	case err != nil:
	case holder != node:
		err = fmt.Errorf("token (kind %d, ID %d) is held by %s, not %s", t.Kind, t.ID, s.holderName(holder), s.holderName(node))
	case t.Kind == ev.MSHRStart:
		err = fmt.Errorf("MSHRStart token for block %#x of cache node %d waits on a fill", t.Arg, t.ID)
	case t.Kind == ev.MSHRFill && t.Arg != blk:
		err = fmt.Errorf("MSHRFill token for block %#x of cache node %d waits on block %#x", t.Arg, t.ID, blk)
	}
	return err
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

	w.Begin(snapSecCaches)
	s.hier.Snapshot(w)
	w.End()

	w.Begin(snapSecChannels)
	w.Int(len(s.channels))
	for _, ch := range s.channels {
		ch.Snapshot(w)
	}
	w.End()

	w.Begin(snapSecHooks)
	w.Int(len(s.hooks))
	for _, h := range s.hooks {
		w.Int(hookKind(h))
		if fc := FIGCacheOf(h); fc != nil {
			fc.Snapshot(w)
		} else if lv, ok := h.(*core.LISAVilla); ok {
			lv.Snapshot(w)
		}
	}
	w.End()

	w.Begin(snapSecCtrls)
	w.Int(len(s.ctrls))
	for _, c := range s.ctrls {
		c.Snapshot(w)
	}
	w.End()

	w.Begin(snapSecAdapter)
	w.Int(len(s.adapter.pending))
	for _, p := range s.adapter.pending {
		w.U64(p.req.Addr)
		w.Bool(p.req.IsWrite)
	}
	w.End()

	return w.Flush()
}

// hookKind returns the marker of an in-DRAM cache hook's kind.
func hookKind(h memctrl.CacheHook) int {
	if FIGCacheOf(h) != nil {
		return hookFIGCache
	}
	if _, ok := h.(*core.LISAVilla); ok {
		return hookLISA
	}
	return hookNone
}

// Restore replaces the System's mutable state with a snapshot written
// by Snapshot. The receiver must be built by New for the same
// configuration: the FGSS header refuses a mismatched EngineVersion or
// config fingerprint, and with both pinned every structural dimension
// below — core count, window sizes, hierarchy shape, bank counts, hook
// kinds — matches by construction, so a count or kind that does not
// match this System is a decode error. Run (or RunUntilRetired) may be
// called immediately after; the continuation is bit-identical to the
// uninterrupted run.
//
// Every event token the snapshot holds, queued or an MSHR waiter, must
// sit where its holder keeps it (checkEvent, checkWaiter). A memory
// request is its address: the controllers and the adapter decode it
// with the System's AddrMapper into the request's channel and location,
// and a read completes the LLC's miss on its block.
//
// Each miss a cache node has outstanding waits on exactly one fetch in
// flight: its MSHRStart, the MSHRFill token the level below holds, or,
// for the LLC, a read in the memory system. So an MSHRStart or MSHRFill
// token, and a read, must name a miss its cache node (the LLC) has
// outstanding, and no miss may have a second fetch, or Cache.Fill would
// find no MSHR; nor may a miss have none, or it never completes. The
// misses are known only once the caches section is read, so the tokens
// are checked then, the reads as they are read, and a failure names the
// section that held the fetch.
func (s *System) Restore(in io.Reader) error {
	r, err := fgss.NewReader(in, uint32(EngineVersion), [32]byte(s.cfg.Fingerprint()))
	if err != nil {
		return err
	}
	type heldToken struct {
		sec uint32
		tok ev.Token
	}
	var mshrToks []heldToken
	held := func(sec uint32, err error, t ev.Token) error {
		if err == nil && t.Kind != ev.CoreSlot {
			mshrToks = append(mshrToks, heldToken{sec, t})
		}
		return err
	}
	type miss struct {
		node int32
		blk  uint64
	}
	fetched := map[miss]bool{}
	inFlight := make([]int, len(s.hier.Nodes())) // fetches per node
	fetch := func(sec uint32, node int32, blk uint64) {
		if m := (miss{node, blk}); fetched[m] {
			r.RejectIn(sec, "a second fetch fills block %#x of cache node %d", blk, node)
		} else {
			fetched[m] = true
			inFlight[node]++
		}
	}
	llc := s.hier.LLC
	read := func(sec uint32, blk uint64) bool {
		if !llc.Outstanding(blk) {
			return false
		}
		fetch(sec, llc.NodeID(), blk)
		return true
	}

	r.Section(snapSecSystem)
	s.clock = r.I64()
	// The skip engine's controller wake registers are not machine state:
	// as New does at cycle 0, they force a tick of every controller at
	// the first bus boundary at or after the clock. The dense loop ticks
	// every controller at every boundary, so a tick that is not due is a
	// no-op. Every run settles its parked cores on exit, so a snapshot is
	// taken with none parked; the restored cores start running.
	for i := range s.ctrlWake {
		s.ctrlWake[i] = (s.clock + cpuPerBus - 1) / cpuPerBus
	}
	for i := range s.parkedAt {
		s.parkedAt[i] = -1
	}
	r.EndSection()

	r.Section(snapSecEvents)
	s.events.restore(r, s.clock, func(lane int, t ev.Token) error {
		return held(snapSecEvents, s.checkEvent(lane, t), t)
	})
	r.EndSection()

	r.Section(snapSecCores)
	if r.Expect(len(s.cores), "sim: cores") {
		for _, c := range s.cores {
			c.Restore(r)
		}
	}
	r.EndSection()

	r.Section(snapSecCaches)
	s.hier.Restore(r, func(node int32, blk uint64, t ev.Token) error {
		return held(snapSecCaches, s.checkWaiter(node, blk, t), t)
	})
	r.EndSection()
	for _, h := range mshrToks {
		if !s.hier.Node(h.tok.ID).Outstanding(h.tok.Arg) {
			r.RejectIn(h.sec, "MSHR token (kind %d) names block %#x, which cache node %d has no miss outstanding for",
				h.tok.Kind, h.tok.Arg, h.tok.ID)
		}
		fetch(h.sec, h.tok.ID, h.tok.Arg)
	}

	r.Section(snapSecChannels)
	if r.Expect(len(s.channels), "sim: channels") {
		for _, ch := range s.channels {
			ch.Restore(r)
		}
	}
	r.EndSection()

	// The hooks come before the controllers, whose masks of banks with
	// queued insertions are derived from them.
	r.Section(snapSecHooks)
	if r.Expect(len(s.hooks), "sim: hooks") {
		for _, h := range s.hooks {
			if !r.Expect(hookKind(h), "sim: hook kind") {
				break
			}
			if fc := FIGCacheOf(h); fc != nil {
				fc.Restore(r)
			} else if lv, ok := h.(*core.LISAVilla); ok {
				lv.Restore(r)
			}
		}
	}
	r.EndSection()

	r.Section(snapSecCtrls)
	if r.Expect(len(s.ctrls), "sim: controllers") {
		for _, c := range s.ctrls {
			c.Restore(r, s.mapper, func(blk uint64) bool { return read(snapSecCtrls, blk) })
		}
	}
	r.EndSection()

	r.Section(snapSecAdapter)
	for i := range s.adapter.pending {
		s.adapter.release(s.adapter.pending[i].req)
		s.adapter.pending[i] = pendingReq{}
	}
	s.adapter.pending = s.adapter.pending[:0]
	np := r.Len(math.MaxInt, "sim: buffered requests")
	for i := 0; i < np && r.Err() == nil; i++ {
		addr, _, _ := s.mapper.ReadAddr(r)
		isWrite := r.Bool()
		if r.Err() == nil && !isWrite && !read(snapSecAdapter, addr) {
			r.Reject("sim: buffered read %#x fetches a block the LLC has no miss outstanding for", addr)
		}
		if r.Err() == nil {
			s.adapter.Request(addr, isWrite, ev.Token{})
		}
	}
	r.EndSection()
	for i, c := range s.hier.Nodes() {
		if n := c.OutstandingMisses(); inFlight[i] != n {
			r.RejectIn(snapSecCaches, "cache %s: %d outstanding misses, %d fetches in flight to fill them", c.Config().Name, n, inFlight[i])
		}
	}

	if err := r.Err(); err != nil {
		return err
	}
	return r.Close()
}
