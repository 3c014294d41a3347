package memctrl

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/ev"
)

// benchDrain fills the write queue with locs and ticks the controller
// (driven densely, as a busy system's completion events would) until the
// queue is empty, b.N times, each on a freshly built channel and
// controller. Construction is untimed, and the drain itself allocates
// nothing: the fresh channel's per-rank tFAW histories are carved at
// construction, so its first activates do not grow them.
func benchDrain(b *testing.B, locs func(i int, geo dram.Geometry) dram.Location) {
	geo := dram.Default()
	slow := dram.DDR4()
	fast := slow.Fast(dram.PaperFastScale())
	cfg := DefaultConfig()
	sched := func(at int64, tok ev.Token) {}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		ch, err := dram.NewChannel(geo, slow, fast, false)
		if err != nil {
			b.Fatal(err)
		}
		c := NewController(0, cfg, ch, nil)
		reqs := make([]*Request, cfg.WriteQueueDepth)
		for i := range reqs {
			reqs[i] = &Request{IsWrite: true, Loc: locs(i, geo)}
		}
		b.StartTimer()
		now := int64(0)
		for _, r := range reqs {
			c.Enqueue(r, now)
		}
		for c.PendingWrites() > 0 {
			c.Tick(now, sched)
			now++
		}
	}
}

// BenchmarkWriteDrainDeepQueue measures the FR-FCFS scheduling cost of
// draining a full 64-entry write queue — the deep-queue scan the ROADMAP
// profiled as the remaining scheduler lever — with writes spread over
// every bank (several rows per bank, so drains mix row hits, conflicts
// and activates).
func BenchmarkWriteDrainDeepQueue(b *testing.B) {
	benchDrain(b, func(i int, geo dram.Geometry) dram.Location {
		return dram.Location{
			Group: i % geo.BankGroups,
			Bank:  (i / geo.BankGroups) % geo.BanksPerGroup,
			Row:   (i / (geo.BankGroups * geo.BanksPerGroup)) * 7,
			Block: i % 128,
		}
	})
}

// BenchmarkWriteDrainHotBank drains a queue dominated by a sequential
// burst to one hot row — the pattern that made the former whole-queue
// scan quadratic: on every tick that issues nothing, each queued request
// to the open hot row re-priced the identical column command, so a
// 64-deep burst paid 64 CanIssue calls per tick. The per-bank candidate
// walk prices one.
func BenchmarkWriteDrainHotBank(b *testing.B) {
	benchDrain(b, func(i int, geo dram.Geometry) dram.Location {
		if i%8 == 7 { // a few strays keep several banks occupied
			return dram.Location{Group: i % geo.BankGroups, Bank: 1, Row: 3, Block: i % 128}
		}
		return dram.Location{Group: 0, Bank: 0, Row: 9, Block: i % 128}
	})
}
