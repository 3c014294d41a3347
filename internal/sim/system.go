package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/ev"
	"repro/internal/memctrl"
	"repro/internal/workload"
)

// System is one fully assembled simulated machine.
type System struct {
	cfg    Config
	clock  int64
	events eventQueue
	// dense selects the reference cycle-by-cycle loop in place of the
	// cycle-skipping engine. The two are bit-identical
	// (TestEngineEquivalence), so only the package's tests set it.
	dense bool

	cores    []*cpu.Core
	hier     *cache.Hierarchy
	mapper   *memctrl.AddrMapper //fglint:preserved address-decode tables derived from config; Decode only reads them
	ctrls    []*memctrl.Controller
	channels []*dram.Channel
	hooks    []memctrl.CacheHook
	adapter  *memAdapter

	// busSched puts a controller's read completions, due at a bus cycle,
	// on the memory lane in CPU cycles. Bound once at construction so the
	// per-tick calls do not evaluate a fresh closure on the hot path.
	busSched func(at int64, tok ev.Token)
	// ctrlWake[i] is the next-work bus cycle controller i reported at its
	// most recent tick; zero forces a tick at the first bus boundary, and
	// Restore forces one at the first boundary after the restored clock.
	// Built by New with one entry per controller and owned by the skip
	// engine; kept on the System so resumed engine runs (RunSlice,
	// RunUntilRetired) do not re-tick idle controllers.
	ctrlWake []int64
	// parkedAt[i] is the cycle at whose wake scan runSkipping parked core
	// i — put it to sleep, fully blocked or batchable — and stopped
	// ticking it, or -1 while the core runs. Dispatch wakes a core on the
	// only two events that can change its state (see unpark), runSkipping
	// wakes a batching core when its batch ends, and every exit of
	// runSkipping wakes the rest, so outside the run loop every entry is
	// -1.
	parkedAt []int64
	// wakeAt[i] is the cycle of a sleeping core's next full Tick: the
	// cycle after its batch, or maxInt64 for a blocked core.
	wakeAt []int64 //fglint:preserved read only while parkedAt[i] >= 0, and Restore resets parkedAt
	// awake holds the cores runSkipping ticks and scans: bit i is set
	// while parkedAt[i] < 0. done holds the cores past their target, so
	// the run is over when it equals all, the bit of every core (one
	// word: Config.normalize refuses more than 64 cores). coreNext is
	// the earliest wakeAt over the sleeping cores, stale once the core
	// holding it wakes, until the next wake scan recomputes it.
	// runSkipping's multi-core loop rebuilds these fields on entry, when
	// every core runs, so only it reads them; runSolo, the one-core
	// loop, does not keep them.
	awake    uint64 //fglint:preserved rebuilt on entry to runSkipping
	done     uint64 //fglint:preserved rebuilt on entry to runSkipping
	all      uint64
	coreNext int64 //fglint:preserved rebuilt on entry to runSkipping
	// nextStale marks coreNext as held by a core that has woken.
	nextStale bool //fglint:preserved rebuilt on entry to runSkipping
	// l1Core maps a hierarchy node ID to the core whose L1 it is, or -1
	// for a shared level: an MSHRFill for a parked core's L1 unparks it.
	l1Core []int32

	// latencyLanes maps a fixed cache-level latency to its FIFO lane
	// scheduler (see levelScheduler); lanes are bound once at construction.
	//fglint:preserved lane bindings are config-determined; the event queue's snapshot carries the lanes' contents
	latencyLanes map[int64]*laneScheduler
}

// New builds a system for the configuration.
func New(cfg Config) (*System, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg}
	s.events.nextDue = maxInt64

	geo := cfg.geometry()
	slow := dram.DDR4()
	fast := slow.Fast(dram.PaperFastScale())
	allFast := cfg.Preset == LLDRAM

	mapper, err := memctrl.NewAddrMapper(geo, cfg.Channels)
	if err != nil {
		return nil, err
	}
	s.mapper = mapper

	// A read's data ends tCL + tBL after its column command on every
	// subarray (fast ones shorten only tRCD, tRP and tRAS), so the memory
	// lane has a fixed delay too. It is registered before the cache
	// levels' lanes and fires first.
	memLane := s.events.newLane(int64(slow.ReadLatency()) * cpuPerBus)
	s.busSched = func(at int64, tok ev.Token) {
		s.events.schedule(memLane, at*cpuPerBus, tok)
	}
	// The hierarchy comes before the channels: it refuses a memory its
	// tags cannot reach before anything sized by the channel count is
	// built.
	s.adapter = &memAdapter{sys: s}
	hier, err := cache.NewHierarchy(cfg.hierarchyConfig(), uint64(mapper.TotalBytes()), s.adapter, s.levelScheduler)
	if err != nil {
		return nil, err
	}
	s.hier = hier

	for ch := 0; ch < cfg.Channels; ch++ {
		channel, err := dram.NewChannel(geo, slow, fast, allFast)
		if err != nil {
			return nil, err
		}
		hook, err := cfg.buildHook(geo)
		if err != nil {
			return nil, err
		}
		s.channels = append(s.channels, channel)
		s.hooks = append(s.hooks, hook)
		s.ctrls = append(s.ctrls, memctrl.NewController(ch, memctrl.Config{ImmediateReloc: cfg.ImmediateReloc}, channel, hook))
	}

	s.adapter.blocked = make([]bool, cfg.Channels)
	s.adapter.enqueued = make([]bool, cfg.Channels)
	// Seed the request pool to its structural bound — every controller
	// queue slot full plus a drain buffer's worth in flight — so the pool
	// never grows mid-run: high-water-mark creep under bursty relocation
	// traffic would otherwise allocate long past warm-up.
	poolCap := cfg.Channels*(memctrl.ReadQueueDepth+memctrl.WriteQueueDepth) + 64
	backing := make([]memctrl.Request, poolCap) // one block: one GC object, not poolCap
	s.adapter.free = make([]*memctrl.Request, poolCap)
	for i := range s.adapter.free {
		s.adapter.free[i] = &backing[i]
	}
	for _, ctrl := range s.ctrls {
		ctrl.Release = s.adapter.release
	}

	if err := s.initCores(); err != nil {
		return nil, err
	}
	s.ctrlWake = make([]int64, len(s.ctrls))
	s.parkedAt = make([]int64, len(s.cores))
	s.wakeAt = make([]int64, len(s.cores))
	s.all = 1<<len(s.cores) - 1
	for i := range s.parkedAt {
		s.parkedAt[i] = -1
	}
	s.l1Core = make([]int32, len(hier.Nodes()))
	for i := range s.l1Core {
		s.l1Core[i] = -1
	}
	for i, l1 := range hier.L1s {
		s.l1Core[l1.NodeID()] = int32(i)
	}
	return s, nil
}

// Dispatch implements ev.Dispatcher: execute one event token. This is
// the single point where a deferred action — a due event, a fill's
// synchronous waiter — turns back into the method call it stands for.
func (s *System) Dispatch(t ev.Token, now int64) {
	switch t.Kind {
	case ev.CoreSlot:
		s.unpark(int(t.ID))
		s.cores[t.ID].CompleteSlot(int(t.Arg))
	case ev.MSHRStart:
		s.hier.Node(t.ID).StartFetch(t.Arg)
	case ev.MSHRFill:
		if c := s.l1Core[t.ID]; c >= 0 {
			s.unpark(int(c))
		}
		s.hier.Node(t.ID).Fill(t.Arg)
	}
}

// unpark wakes a core the skip engine put to sleep. A blocked core's
// skipped ticks were no-ops in the dense loop — a full window returns at
// once, and a refused L1 access changes nothing — so it only rejoins
// the awake set. A batching core replays the ticks the dense loop would
// have executed for it, one per cycle after the sleeping cycle up to
// the current one, exclusive (the current cycle's tick still runs): it
// applies its bubble batch up to that point, whole or cut short, before
// the waking event's handler runs, because a CompleteSlot must find the
// window the batch left. It reads s.clock rather than a dispatch time,
// because Cache.Fill dispatches its waiters with now = 0.
func (s *System) unpark(i int) {
	at := s.parkedAt[i]
	if at < 0 {
		return
	}
	s.parkedAt[i] = -1
	s.awake |= bit(i)
	if s.wakeAt[i] == maxInt64 {
		return
	}
	c := s.cores[i]
	c.AdvanceBatch(at, s.clock-1-at)
	s.noteDone(i, c)
	if s.wakeAt[i] == s.coreNext {
		s.nextStale = true
	}
}

// sleep parks running core i at the current cycle until cycle wake.
func (s *System) sleep(i int, wake int64) {
	s.parkedAt[i], s.wakeAt[i] = s.clock, wake
	s.awake &^= bit(i)
	if wake < s.coreNext {
		s.coreNext = wake
	}
}

// noteDone adds core i to the done set once it has reached its target.
func (s *System) noteDone(i int, c *cpu.Core) {
	if c.Done() {
		s.done |= bit(i)
	}
}

// wakeAll resets the skip engine's core sets for a loop in which every
// core runs: all awake, none sleeping, done as the cores report.
func (s *System) wakeAll() {
	s.awake, s.done = s.all, 0
	for i, c := range s.cores {
		s.noteDone(i, c)
	}
	s.coreNext, s.nextStale = maxInt64, false
}

// bit returns core i's bit in a core set; i < 64 (Config.normalize).
func bit(i int) uint64 { return 1 << (i & 63) }

// initCores builds the per-core trace generators and cores for s.cfg.
// Cores get equal disjoint address windows (or one shared window for
// multithreaded workloads). Each workload source opens a generator
// through workload.Source.Open, which scatters the spec's footprint
// across the whole window (mimicking OS page placement across banks and
// subarrays).
func (s *System) initCores() error {
	cfg := s.cfg
	geo := cfg.geometry()
	span := uint64(s.mapper.TotalBytes())
	if !cfg.SharedFootprint {
		span = floorPow2(uint64(s.mapper.TotalBytes()) / uint64(len(cfg.Mix.Apps)))
	}
	for i, src := range cfg.Mix.Apps {
		base := uint64(0)
		if !cfg.SharedFootprint {
			base = uint64(i) * span
		}
		footprint := src.FootprintBytes()
		if uint64(footprint) > span {
			return fmt.Errorf("sim: %s footprint %d exceeds its %d-byte window",
				src.Name(), footprint, span)
		}
		// The generator needs the distance between two rows of the same
		// bank under this system's interleaving, so hot conflict groups
		// land in one bank across different rows (Section 8.1). Threads of
		// a multithreaded workload share one layout seed so their logical
		// segments resolve to the same physical addresses.
		layout := workload.Layout{
			RowStrideBytes: uint64(geo.RowBytes) * uint64(cfg.Channels) *
				uint64(geo.BanksPerRank()) * uint64(geo.Ranks),
		}
		if cfg.SharedFootprint {
			layout.LayoutSeed = cfg.Seed + 0x51ed270b
		}
		gen, err := src.Open(cfg.Seed+uint64(i)*1315423911, base, span, layout)
		if err != nil {
			return err
		}
		c, err := cpu.New(i, gen, s.hier.L1s[i], cfg.TargetInsts)
		if err != nil {
			return err
		}
		s.cores = append(s.cores, c)
	}
	return nil
}

// levelScheduler is the scheduler cache.NewHierarchy gives each cache
// level: a FIFO lane of the event queue, one lane per distinct lookup
// latency. A fixed delay makes a lane's due times monotonic no matter
// how many caches feed it, so the lane count stays at the number of
// distinct latencies (three for the Table 1 hierarchy) instead of
// growing with the core count: fireDue visits every lane.
func (s *System) levelScheduler(latency int64) cache.Scheduler {
	if sched, ok := s.latencyLanes[latency]; ok {
		return sched
	}
	if s.latencyLanes == nil {
		s.latencyLanes = make(map[int64]*laneScheduler)
	}
	sched := &laneScheduler{sys: s, lane: s.events.newLane(latency)}
	s.latencyLanes[latency] = sched
	return sched
}

// laneScheduler defers tokens onto one FIFO lane of the system's event
// queue, each due the lane's delay after the current cycle: the clock
// never goes back, so the lane's due times never do either.
type laneScheduler struct {
	sys  *System
	lane int
}

func (l *laneScheduler) After(tok ev.Token) {
	q := &l.sys.events
	q.schedule(l.lane, l.sys.clock+q.lanes[l.lane].delay, tok)
}

// Dispatch forwards token execution, a fill's waiters among them, to
// the System.
func (l *laneScheduler) Dispatch(t ev.Token, now int64) { l.sys.Dispatch(t, now) }

// floorPow2 rounds v down to a power of two.
func floorPow2(v uint64) uint64 {
	p := uint64(1)
	for p<<1 <= v {
		p <<= 1
	}
	return p
}

// Clock returns the current CPU cycle.
func (s *System) Clock() int64 { return s.clock }

// Config returns the normalized run configuration (defaults filled in).
func (s *System) Config() Config { return s.cfg }

// Cores exposes the simulated cores.
func (s *System) Cores() []*cpu.Core { return s.cores }

// Hierarchy exposes the SRAM hierarchy.
func (s *System) Hierarchy() *cache.Hierarchy { return s.hier }

// Controllers exposes the per-channel memory controllers.
func (s *System) Controllers() []*memctrl.Controller { return s.ctrls }

// Hooks exposes the per-channel in-DRAM cache hooks (nil entries for
// configurations without one).
func (s *System) Hooks() []memctrl.CacheHook { return s.hooks }

// memAdapter bridges the SRAM hierarchy to the memory controllers: it
// decodes addresses, buffers requests that do not fit in the controller
// queues, and converts completion times between clock domains.
type memAdapter struct {
	sys     *System
	pending []pendingReq
	blocked []bool // per-channel head-of-line marker, reused across drains
	// enqueued[ch] reports whether the latest drain handed channel ch a
	// new request; the cycle-skipping engine must tick that controller
	// even if its next-work probe says it would otherwise stay idle.
	enqueued []bool
	// free recycles Request objects the controllers have retired
	// (Controller.Release points here), so the steady-state access path
	// allocates nothing: the pool grows to the peak number of in-flight
	// requests and is reused from then on.
	free []*memctrl.Request
}

type pendingReq struct {
	channel int
	req     *memctrl.Request
}

// Request implements cache.Backend.
func (m *memAdapter) Request(addr uint64, isWrite bool, coreID int, onDone ev.Token) {
	ch, loc := m.sys.mapper.Decode(addr)
	req := m.alloc()
	req.Addr, req.Loc, req.IsWrite, req.CoreID = addr, loc, isWrite, coreID
	// The controller hands OnComplete to busSched, which converts bus
	// cycles to CPU cycles, so the token fires in CPU time and can be
	// passed through directly.
	req.OnComplete = onDone
	m.pending = append(m.pending, pendingReq{channel: ch, req: req})
}

// alloc pops a recycled request or allocates a fresh one.
func (m *memAdapter) alloc() *memctrl.Request {
	if n := len(m.free); n > 0 {
		r := m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
		return r
	}
	return new(memctrl.Request)
}

// release implements memctrl.Controller.Release: the request has been
// fully served (its completion callback scheduled), so it is zeroed and
// reused by the next access.
func (m *memAdapter) release(r *memctrl.Request) {
	*r = memctrl.Request{}
	m.free = append(m.free, r)
}

// drain moves buffered requests into controller queues in arrival order.
// Order is preserved per channel: once one request for a channel is
// blocked (its controller queue is full), every later request for that
// channel stalls behind it, even if it targets the other queue — a
// blocked write must not let a younger read to the same channel jump
// ahead. Kept requests are compacted in place (no per-element splicing).
func (m *memAdapter) drain(busNow int64) {
	for i := range m.blocked {
		m.blocked[i] = false
		m.enqueued[i] = false
	}
	if len(m.pending) == 0 {
		return
	}
	kept := m.pending[:0]
	for _, p := range m.pending {
		if !m.blocked[p.channel] && m.sys.ctrls[p.channel].CanAccept(p.req.IsWrite) {
			m.sys.ctrls[p.channel].Enqueue(p.req, busNow)
			m.enqueued[p.channel] = true
			continue
		}
		m.blocked[p.channel] = true
		kept = append(kept, p)
	}
	for i := len(kept); i < len(m.pending); i++ {
		m.pending[i] = pendingReq{} // release dropped requests for GC
	}
	m.pending = kept
}

// Run executes the system until every core reaches its instruction target
// (or MaxCycles elapse) and returns the collected results. It uses the
// cycle-skipping engine, which is bit-identical to the reference
// cycle-by-cycle loop (TestEngineEquivalence).
func (s *System) Run() (Result, error) {
	if c := s.run(s.cfg.MaxCycles); c != nil {
		return Result{}, fmt.Errorf("sim: core %d retired only %d/%d instructions in %d cycles",
			c.ID, c.Retired, c.TargetInsts, s.clock)
	}
	return s.collect(), nil
}

// RunSlice advances the run by at most `cycles` CPU cycles and reports
// whether the run is complete (every core reached its target, or the
// MaxCycles safety net expired). It is the one pause primitive: both
// engines pause on the same cycle boundary in the dense loop's exact
// state, so slices resumed until one reports true execute
// bit-identically to one uninterrupted Run, and a snapshot taken
// between slices holds the same bytes under either engine
// (TestEngineEquivalence's sliced and checkpoint cases,
// TestEngineHierarchyState). A finished System executes nothing more:
// once RunSlice reports true, Run returns the run's Result, and a
// further RunSlice reports true again.
func (s *System) RunSlice(cycles int64) bool {
	return s.run(min(s.clock+cycles, s.cfg.MaxCycles)) == nil || s.clock >= s.cfg.MaxCycles
}

// totalRetired sums the retired instruction count across all cores.
func (s *System) totalRetired() int64 {
	var total int64
	for _, c := range s.cores {
		total += c.Retired
	}
	return total
}

// RunUntilRetired executes the system until the total retired
// instruction count across all cores reaches target (or every core
// finishes, or MaxCycles elapse). It is the checkpoint stop-point: the
// run pauses after the first cycle at whose end the total reaches
// target, a Snapshot taken here captures the complete machine state,
// and calling Run afterwards — on this System or on a fresh one
// restored from the snapshot — finishes the run bit-identically to an
// uninterrupted Run. It is a loop of RunSlice calls: a core retires at
// most cpu.Width instructions a cycle, so a slice of
// ⌈remaining / (cores × cpu.Width)⌉ cycles cannot pass the first
// cycle boundary at which the total reaches target, and both engines
// pause on the dense loop's cycle. A target already reached executes
// nothing.
func (s *System) RunUntilRetired(target int64) {
	perCycle := int64(len(s.cores) * cpu.Width)
	for {
		remaining := target - s.totalRetired()
		if remaining <= 0 || s.RunSlice((remaining+perCycle-1)/perCycle) {
			return
		}
	}
}

// run advances the engine System.dense selects until every core is
// done or the clock reaches maxCycles (exclusive). It returns the first
// core still short of its target, or nil once every core has finished;
// a System whose cores have all finished executes no further cycle.
func (s *System) run(maxCycles int64) *cpu.Core {
	if s.unfinished() == nil {
		return nil
	}
	if s.dense {
		s.runDense(maxCycles)
	} else {
		s.runSkipping(maxCycles)
	}
	return s.unfinished()
}

// unfinished returns the first core still short of its target, or nil.
func (s *System) unfinished() *cpu.Core {
	for _, c := range s.cores {
		if !c.Done() {
			return c
		}
	}
	return nil
}

// runDense is the reference engine: advance the clock one CPU cycle at a
// time, ticking the memory system every bus cycle and every core every
// CPU cycle. Splitting the loop at any cycle boundary is trivially
// bit-identical.
func (s *System) runDense(maxCycles int64) {
	for ; s.clock < maxCycles; s.clock++ {
		s.events.fireDue(s.clock, s)
		if s.clock%cpuPerBus == 0 {
			busNow := s.clock / cpuPerBus
			s.adapter.drain(busNow)
			for _, ctrl := range s.ctrls {
				ctrl.Tick(busNow, s.busSched)
			}
		}
		allDone := true
		for _, c := range s.cores {
			c.Tick(s.clock)
			if !c.Done() {
				allDone = false
			}
		}
		if allDone {
			s.clock++
			break
		}
	}
}

// runSkipping is the cycle-skipping engine. Each executed cycle performs
// exactly what the dense loop would (events, bus tick on bus-cycle
// boundaries, core ticks, in the same order); the difference is that the
// clock then jumps directly to the next cycle at which anything
// *unpredictable* can happen:
//
//   - the next scheduled event (cache latencies, fills, DRAM completions),
//   - the next cycle a core must execute a full Tick: immediately while
//     it can touch the cache, or after the bubble run it can execute in
//     closed form (cpu.Core.BatchableCycles),
//   - the next bus cycle a controller could change state (the next-work
//     probe returned by memctrl.Controller.Tick), and
//   - the next bus boundary while the adapter holds requests waiting for
//     controller queue space.
//
// Cycles in between are either provably no-ops in the dense loop — a
// blocked core's tick changes nothing and it only unblocks through
// scheduler events, and DRAM timing windows only move when a command
// issues — or pure bubble issue/retire cycles whose dense effect
// cpu.Core.AdvanceBatch replays arithmetically, so jumping over them is
// bit-identical.
//
// A core the wake scan finds fully blocked or batchable sleeps: it is
// neither ticked nor scanned again until it wakes. A blocked core wakes
// only when Dispatch delivers one of the two events that can change its
// state — a CoreSlot completion for it, or an MSHRFill for its L1 — and
// a batching core also wakes at wakeAt, the cycle after its batch, so it
// sleeps through its bubble run even while other cores need every
// cycle. unpark replays what a batching core missed, its batch up to the
// waking cycle; a blocked core missed nothing. Every exit wakes the cores
// still asleep, so at every pause — the clock bound RunSlice passes, in
// RunUntilRetired's slices too — the machine holds exactly the dense
// loop's state at the same cycle, and a Snapshot taken there writes the
// dense loop's bytes. ctrlWake, which the dense loop never reads, is not
// in the snapshot.
//
// A System with one core runs runSolo instead, the same loop without the
// core sets.
func (s *System) runSkipping(maxCycles int64) {
	if len(s.cores) == 1 {
		s.runSolo(maxCycles)
		return
	}
	s.wakeAll()
	for s.clock < maxCycles {
		s.events.fireDue(s.clock, s)
		if s.clock%cpuPerBus == 0 {
			s.busTick(s.clock / cpuPerBus)
		}
		// A core finishes only in its own Tick or when it wakes, so the
		// done set tracks Done for every core, asleep or not.
		for word := s.awake; word != 0; word &= word - 1 {
			i := bits.TrailingZeros64(word)
			c := s.cores[i]
			c.Tick(s.clock)
			s.noteDone(i, c)
		}
		if s.done == s.all {
			s.clock++
			break
		}

		// The wake scan: every running core either needs the next cycle,
		// or sleeps — blocked until an event, or through the closed-form
		// bubble run starting at the next cycle, its next full Tick due
		// only after the batch. coreNext is the earliest such Tick over
		// the sleeping cores. A batch caps at the cycle the core reaches
		// its target, so a sleeping core cannot finish before it wakes.
		if s.nextStale {
			s.coreNext, s.nextStale = s.earliestWake(), false
		}
		next := maxCycles
		for word := s.awake; word != 0; word &= word - 1 {
			i := bits.TrailingZeros64(word)
			c := s.cores[i]
			wake := c.NextWake(s.clock)
			if wake == maxInt64 {
				s.sleep(i, maxInt64)
				continue
			}
			n := c.BatchableCycles()
			if n == 0 {
				next = wake // the next cycle
				continue
			}
			s.sleep(i, wake+n)
		}
		coreNext := s.coreNext
		if coreNext < next {
			next = coreNext
		}
		if next > s.clock+1 {
			// Only consult the event queue and the memory system when
			// every core is asleep: due events have already fired, so
			// neither source can be earlier than clock+1.
			//
			// Memory-only fast path: while the earliest thing anywhere in
			// the machine is controller work — strictly before the next
			// event and the next core wake — run those bus boundaries in
			// place instead of surfacing each one to this loop. The dense
			// loop's cycles in between are core no-ops (every core is
			// asleep: blocked cores' ticks change nothing, and batching
			// cores apply their batch when they wake or when the loop
			// exits) and fire no events, so the only dense effects are the
			// bus ticks themselves. Completions scheduled along the way
			// can only pull nextDue earlier, never invalidate work done at
			// earlier bus cycles: each lands after the bus cycle that
			// issued it, and nextDue is read before every tick. The loop
			// stays for a measured end-to-end win over surfacing every bus
			// boundary (ARCHITECTURE.md, "Performance engineering").
			bus := s.nextBusWork()
			for bus < next && bus < s.events.nextDue {
				s.busTick(bus / cpuPerBus)
				bus = s.nextBusWork()
			}
			next = min(next, s.events.nextDue, bus)
		}
		if next <= s.clock {
			next = s.clock + 1
		}
		s.clock = next
		if next == coreNext {
			// Wake the cores whose batch ends here, before any event at
			// this cycle fires. A batch can carry a core across its
			// instruction target on its last cycle, next-1, after which
			// the dense loop stops: the clock already reads the dense
			// clock after its last executed cycle.
			for word := s.all &^ s.awake; word != 0; word &= word - 1 {
				if i := bits.TrailingZeros64(word); s.wakeAt[i] == next {
					s.unpark(i)
				}
			}
			if s.done == s.all {
				break
			}
		}
	}
	// Wake the cores still asleep: the dense loop ticks every core each
	// cycle up to the last executed one (s.clock-1 on every exit path),
	// so a batching core applies its batch up to there.
	for word := s.all &^ s.awake; word != 0; word &= word - 1 {
		s.unpark(bits.TrailingZeros64(word))
	}
}

// runSolo is runSkipping for a System with one core, cycle for cycle:
// the same core and controller calls in the same order, so it pauses on
// the same cycle in the same state. The core's sleep state is
// parkedAt[0] and wakeAt[0], so the loop keeps no awake or done set,
// and its next batch wake is wakeAt[0] while it sleeps. It stays a loop
// of its own because runSkipping with a count of sleeping batchers in
// place of the earliestWake recompute measured slower on one core
// (ARCHITECTURE.md, "Core sleep").
func (s *System) runSolo(maxCycles int64) {
	c := s.cores[0]
	for s.clock < maxCycles {
		s.events.fireDue(s.clock, s)
		if s.clock%cpuPerBus == 0 {
			s.busTick(s.clock / cpuPerBus)
		}
		// A running core ticks, then the wake scan: it needs the next
		// cycle, or sleeps blocked, or sleeps through its batch.
		next, coreNext := maxCycles, int64(maxInt64)
		if s.parkedAt[0] < 0 {
			c.Tick(s.clock)
			if c.Done() {
				s.clock++
				break
			}
			if wake := c.NextWake(s.clock); wake == maxInt64 {
				s.parkedAt[0], s.wakeAt[0] = s.clock, maxInt64
			} else if n := c.BatchableCycles(); n == 0 {
				next = wake
			} else {
				s.parkedAt[0], s.wakeAt[0] = s.clock, wake+n
			}
		}
		if s.parkedAt[0] >= 0 {
			coreNext = s.wakeAt[0]
			next = min(next, coreNext)
		}
		if next > s.clock+1 {
			// As in runSkipping: the core sleeps, so the event queue and
			// the memory-only loop decide the next cycle.
			bus := s.nextBusWork()
			for bus < next && bus < s.events.nextDue {
				s.busTick(bus / cpuPerBus)
				bus = s.nextBusWork()
			}
			next = min(next, s.events.nextDue, bus)
		}
		if next <= s.clock {
			next = s.clock + 1
		}
		s.clock = next
		if next == coreNext {
			// The batch ends here: wake the core before this cycle's
			// events fire. A batch that carried it across its target
			// ends the run, the clock already past its last cycle.
			s.unpark(0)
			if c.Done() {
				break
			}
		}
	}
	// Settle a core still asleep, as runSkipping's exit does.
	s.unpark(0)
}

const maxInt64 = int64(1<<63 - 1)

// earliestWake returns the earliest wakeAt over the sleeping cores, or
// maxInt64 when none sleeps through a batch.
func (s *System) earliestWake() int64 {
	next := int64(maxInt64)
	for word := s.all &^ s.awake; word != 0; word &= word - 1 {
		if at := s.wakeAt[bits.TrailingZeros64(word)]; at < next {
			next = at
		}
	}
	return next
}

// busTick executes one bus boundary exactly as the dense loop would:
// drain buffered requests into the controller queues, then tick every
// controller that is either due (its next-work probe has arrived) or
// freshly fed by the drain, in ID order. Ticking the others would be a
// no-op in the dense loop too, so skipping them is bit-identical.
func (s *System) busTick(busNow int64) {
	s.adapter.drain(busNow)
	for i, ctrl := range s.ctrls {
		if s.ctrlWake[i] > busNow && !s.adapter.enqueued[i] {
			continue
		}
		s.ctrlWake[i] = ctrl.Tick(busNow, s.busSched)
	}
}

// nextBusWork returns the next CPU cycle at which the memory system needs
// a bus tick: the earliest controller next-work probe, or the very next
// bus boundary while the adapter still buffers requests that must retry
// entering a full controller queue.
func (s *System) nextBusWork() int64 {
	next := maxInt64
	for _, w := range s.ctrlWake {
		if w < next {
			next = w
		}
	}
	if next != maxInt64 {
		next *= cpuPerBus
	}
	if len(s.adapter.pending) > 0 {
		if b := (s.clock/cpuPerBus + 1) * cpuPerBus; b < next {
			next = b
		}
	}
	return next
}
