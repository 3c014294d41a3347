// Rowhammer: the Section 6 security use-case. RowHammer induces bit
// flips by repeatedly opening and closing DRAM rows in the same bank;
// every ACTIVATE of an aggressor row disturbs its physical neighbours.
// FIGCache mitigates the access pattern's effect on victim rows: the
// frequently-accessed segments of the aggressor rows are relocated into a
// shared in-DRAM cache row, so the repeated accesses stop re-activating
// the aggressor rows (and hammering their neighbours) and instead hit a
// single cache row.
//
// This example drives the DRAM timing model with a classic double-sided
// hammering pattern and counts per-row activations with and without
// FIGCache — the quantity RowHammer vulnerability scales with.
//
// Run with: go run ./examples/rowhammer
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
	aggressorA = 5000 // two aggressor rows sandwiching the victim
	aggressorB = 5002
	victim     = 5001
)

// rounds keeps the demo re-scalable: the CI smoke test runs it at a tiny
// hammer count so the example keeps executing, not just compiling.
var rounds = flag.Int("rounds", 2000, "double-sided hammer rounds")

func main() {
	flag.Parse()
	fmt.Println("--- double-sided RowHammer pattern: A, B, A, B, ... ---")
	baseActs := hammer(nil)
	fmt.Printf("conventional DRAM: aggressor activations A=%d B=%d (victim neighbours disturbed %d times)\n",
		baseActs[aggressorA], baseActs[aggressorB], baseActs[aggressorA]+baseActs[aggressorB])

	geo := dram.Default()
	geo.FastSubarrays = 2
	cache, err := core.NewFIGCache(core.DefaultFIGCacheConfig(), geo)
	if err != nil {
		log.Fatal(err)
	}
	figActs := hammer(cache)
	fmt.Printf("with FIGCache:     aggressor activations A=%d B=%d (disturbances %d)\n",
		figActs[aggressorA], figActs[aggressorB], figActs[aggressorA]+figActs[aggressorB])

	reduction := 1 - float64(figActs[aggressorA]+figActs[aggressorB])/
		float64(baseActs[aggressorA]+baseActs[aggressorB])
	fmt.Printf("\naggressor-row activation reduction: %.1f%%\n", reduction*100)
	fmt.Println("FIGCache redirects the hammering accesses to an in-DRAM cache row after")
	fmt.Println("the first miss to each aggressor segment, so the aggressor wordlines —")
	fmt.Println("and the victim between them — stop being hammered (Section 6).")
}

// hammer replays the alternating aggressor pattern through a memory
// controller and returns per-row ACTIVATE counts for the aggressors'
// regular-row space.
func hammer(cache memctrl.CacheHook) map[int]int64 {
	geo := dram.Default()
	geo.FastSubarrays = 2
	slow := dram.DDR4()
	channel, err := dram.NewChannel(geo, slow, slow.Fast(dram.PaperFastScale()), false)
	if err != nil {
		log.Fatal(err)
	}
	channel.TraceOn = true
	ctrl := memctrl.NewController(0, memctrl.Config{}, channel, cache)

	// The controller reports each read's data-end cycle; the replay loop
	// counts the reads whose data has arrived.
	var pending []int64
	completed := 0
	issued := 0
	nextRow := aggressorA
	for now := int64(0); completed < 2**rounds && now < int64(*rounds)*500; now++ {
		for i := 0; i < len(pending); {
			if pending[i] <= now {
				completed++
				pending = append(pending[:i], pending[i+1:]...)
			} else {
				i++
			}
		}
		// The attacker alternates rows and waits for each access to finish
		// (maximizing activations, as a real RowHammer loop does).
		if issued == completed && issued < 2**rounds && ctrl.CanAccept(false) {
			row := nextRow
			if nextRow == aggressorA {
				nextRow = aggressorB
			} else {
				nextRow = aggressorA
			}
			ctrl.Enqueue(&memctrl.Request{Loc: dram.Location{Row: row, Block: (issued / 2) % 16}}, now)
			issued++
		}
		ctrl.Tick(now, func(at int64, _ uint64) {
			pending = append(pending, at)
		})
	}

	acts := make(map[int]int64)
	for _, tr := range channel.Trace {
		if tr.Cmd.Type == dram.CmdACT && !tr.Cmd.Loc.CacheRow {
			acts[tr.Cmd.Loc.Row]++
		}
	}
	return acts
}
