package memctrl

import (
	"testing"

	"repro/internal/dram"
)

// benchDrain fills the write queue with locs and ticks the controller
// (driven densely, as a busy system's completion events would) until the
// queue is empty, b.N times, each on a freshly built channel and
// controller. Construction is untimed, and the drain itself allocates
// nothing: the fresh channel's per-rank tFAW histories are made at
// their full length at construction, so its first activates do not grow
// them.
func benchDrain(b *testing.B, locs func(i int, geo dram.Geometry) dram.Location) {
	geo := dram.Default()
	slow := dram.DDR4()
	fast := slow.Fast(dram.PaperFastScale())
	sched := func(int64, uint64) {}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		ch, err := dram.NewChannel(geo, slow, fast, false)
		if err != nil {
			b.Fatal(err)
		}
		c := NewController(0, Config{}, ch, nil)
		reqs := make([]*Request, WriteQueueDepth)
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
// draining a full 64-entry write queue, with writes spread over every
// bank (several rows per bank, so drains mix row hits, conflicts and
// activates). No benchmark workload queues this deep; the benchmark
// bounds what the oldest-first walk costs at the queue's full depth.
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
// burst to one hot row. On a tick that issues nothing, the walk visits
// every queued request, but prices the hot row's column command once,
// for its oldest request, not once per request.
func BenchmarkWriteDrainHotBank(b *testing.B) {
	benchDrain(b, func(i int, geo dram.Geometry) dram.Location {
		if i%8 == 7 { // a few strays keep several banks occupied
			return dram.Location{Group: i % geo.BankGroups, Bank: 1, Row: 3, Block: i % 128}
		}
		return dram.Location{Group: 0, Bank: 0, Row: 9, Block: i % 128}
	})
}
