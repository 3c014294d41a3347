// Sidechannel: the second Section 6 security use-case. The DRAMA-style
// attack observes row-buffer hit/miss timing differences to learn when a
// victim accesses data co-located in the attacker's bank: an attacker
// probe is fast (row hit) when the victim did not disturb the row, and
// slow (row conflict: PRECHARGE + ACTIVATE) when it did. The timing gap
// leaks each victim access.
//
// FIGCache breaks the channel by caching the frequently-probed segments:
// once both the attacker's and the victim's hot segments live in in-DRAM
// cache rows, the attacker's probe latency no longer tracks the victim's
// source-row activity, so the hit/miss signal degrades.
//
// This example measures the probe-latency distributions with the victim
// idle and active, on conventional DRAM and with FIGCache, and reports
// the distinguishability gap the attacker relies on.
//
// Run with: go run ./examples/sidechannel
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
)

const (
	attackerRow = 7000 // attacker's probe data
	victimRow   = 7001 // victim data in the same bank
)

// probes keeps the demo re-scalable: the CI smoke test runs it at a tiny
// probe count so the example keeps executing, not just compiling.
var probes = flag.Int("probes", 400, "attacker probe count")

func main() {
	flag.Parse()
	fmt.Println("--- DRAMA-style row-buffer side channel (Section 6) ---")
	idleBase := probeLatency(false, false)
	activeBase := probeLatency(true, false)
	fmt.Printf("conventional DRAM: probe latency %5.1f ns (victim idle) vs %5.1f ns (victim active)\n",
		idleBase, activeBase)
	gapBase := activeBase - idleBase

	idleFig := probeLatency(false, true)
	activeFig := probeLatency(true, true)
	fmt.Printf("with FIGCache:     probe latency %5.1f ns (victim idle) vs %5.1f ns (victim active)\n",
		idleFig, activeFig)
	gapFig := activeFig - idleFig

	fmt.Printf("\nattacker's timing signal (active - idle): %.1f ns -> %.1f ns\n", gapBase, gapFig)
	if gapBase > 0 {
		fmt.Printf("signal reduction: %.0f%%\n", (1-gapFig/gapBase)*100)
	}
	fmt.Println("FIGCache serves the attacker's probes from an in-DRAM cache row, so the")
	fmt.Println("victim's activity on the source rows no longer perturbs the probe timing.")
}

// probeLatency replays an attacker probe loop, optionally interleaved
// with victim accesses to a conflicting row, and returns the mean probe
// read latency in nanoseconds.
func probeLatency(victimActive, withFIGCache bool) float64 {
	geo := dram.Default()
	geo.FastSubarrays = 2
	slow := dram.DDR4()
	channel, err := dram.NewChannel(geo, slow, slow.Fast(dram.PaperFastScale()), false)
	if err != nil {
		log.Fatal(err)
	}
	var hook memctrl.CacheHook
	if withFIGCache {
		fc, err := core.NewFIGCache(core.DefaultFIGCacheConfig(), geo)
		if err != nil {
			log.Fatal(err)
		}
		hook = fc
	}
	ctrl := memctrl.NewController(0, memctrl.Config{}, channel, hook)

	// The controller reports each read's data-end cycle; the replay loop
	// counts the reads whose data has arrived.
	var pending []int64
	step := 0
	issued, completed := 0, 0
	total := *probes
	if victimActive {
		total = *probes * 2
	}
	for now := int64(0); completed < total && now < int64(total)*600; now++ {
		for i := 0; i < len(pending); {
			if pending[i] <= now {
				completed++
				pending = append(pending[:i], pending[i+1:]...)
			} else {
				i++
			}
		}
		if issued == completed && issued < total && ctrl.CanAccept(false) {
			row := attackerRow
			if victimActive && step%2 == 1 {
				row = victimRow // victim access between attacker probes
			}
			step++
			ctrl.Enqueue(&memctrl.Request{Loc: dram.Location{Row: row, Block: (step / 2) % 16}}, now)
			issued++
		}
		ctrl.Tick(now, func(at int64, _ uint64) {
			pending = append(pending, at)
		})
	}
	// Per-probe latency from the controller's read-latency accounting.
	return ctrl.AvgReadLatencyNS()
}
