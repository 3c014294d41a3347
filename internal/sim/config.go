package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/workload"
)

// Preset selects one of the six evaluated system configurations of
// Section 8.
type Preset int

const (
	// Base: conventional DDR4 without in-DRAM caching.
	Base Preset = iota
	// LISAVilla: the state-of-the-art baseline — 16 fast subarrays per
	// bank, whole-row caching, distance-dependent relocation.
	LISAVilla
	// FIGCacheSlow: FIGCache with 64 reserved rows in one slow subarray
	// (conventional homogeneous DRAM; Figure 2c).
	FIGCacheSlow
	// FIGCacheFast: FIGCache with two 32-row fast subarrays per bank
	// (Figure 2b).
	FIGCacheFast
	// FIGCacheIdeal: FIGCacheFast with zero-latency relocation (an
	// idealized upper bound for the insertion cost).
	FIGCacheIdeal
	// LLDRAM: every subarray is fast (idealized low-latency DRAM).
	LLDRAM

	numPresets
)

var presetNames = [numPresets]string{
	"Base", "LISA-VILLA", "FIGCache-Slow", "FIGCache-Fast", "FIGCache-Ideal", "LL-DRAM",
}

func (p Preset) String() string {
	if p < 0 || int(p) >= len(presetNames) {
		return fmt.Sprintf("Preset(%d)", int(p))
	}
	return presetNames[p]
}

// Presets returns the realistic and idealized configurations in the order
// the paper's figures plot them.
func Presets() []Preset {
	return []Preset{Base, LISAVilla, FIGCacheSlow, FIGCacheFast, FIGCacheIdeal, LLDRAM}
}

// Config describes one simulation run.
type Config struct {
	Preset Preset
	// Mix assigns one workload source per core, a synthetic benchmark
	// generator (see workload.Source).
	Mix workload.Mix
	// Channels: Table 1 uses 1 channel for single-core and 4 for
	// eight-core runs. Zero selects that default.
	Channels int
	// TargetInsts is the per-core retire target at which IPC is recorded.
	TargetInsts int64
	// MaxCycles bounds the run as a safety net (0 = 400x TargetInsts).
	MaxCycles int64
	// Seed perturbs trace generation, so different runs of the same mix
	// can be averaged.
	Seed uint64

	// SharedFootprint makes all cores address one window (multithreaded
	// workloads); otherwise each core gets a disjoint window.
	SharedFootprint bool

	// FIG overrides the FIGCache parameters for the FIGCache presets
	// (sensitivity studies of Section 9). Nil selects the paper default.
	// Under FIGCacheFast and FIGCacheIdeal its CacheRowsPerBank also
	// sizes the fast subarrays (Figure 12's capacity sweep).
	FIG *core.FIGCacheConfig

	// ImmediateReloc makes the memory controller execute insertion
	// relocations at miss time instead of deferring them to row close
	// (the design-choice ablation in the benchmark harness).
	ImmediateReloc bool
}

// DefaultConfig returns a run configuration for the preset and mix with
// Table 1 parameters and a laptop-scale instruction budget.
func DefaultConfig(p Preset, mix workload.Mix) Config {
	return Config{
		Preset:      p,
		Mix:         mix,
		TargetInsts: 200_000,
		Seed:        1,
	}
}

// normalize fills defaults and validates.
func (c *Config) normalize() error {
	if len(c.Mix.Apps) == 0 {
		return fmt.Errorf("sim: mix %q has no applications", c.Mix.Name)
	}
	if n := len(c.Mix.Apps); n > maxCores {
		return fmt.Errorf("sim: mix %q has %d applications, above the %d-core bound", c.Mix.Name, n, maxCores)
	}
	if c.Channels == 0 {
		if len(c.Mix.Apps) == 1 {
			c.Channels = 1
		} else {
			c.Channels = 4
		}
	}
	if c.TargetInsts <= 0 {
		return fmt.Errorf("sim: target instructions must be positive")
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 400 * c.TargetInsts
	}
	if c.Preset < 0 || c.Preset >= numPresets {
		return fmt.Errorf("sim: unknown preset %d", int(c.Preset))
	}
	return nil
}

// maxCores bounds a System's core count: the skip engine keeps its core
// sets in one 64-bit word. Table 1's machines have one core or eight.
const maxCores = 64

// cpuPerBus is Table 1's CPU-to-DRAM-bus clock ratio: 3.2 GHz cores on
// an 800 MHz DDR4-1600 bus.
const cpuPerBus int64 = 4

// fastSubarrays returns the number of 32-row fast subarrays per bank of
// a FIGCacheFast or FIGCacheIdeal geometry: two (Table 1), or with a FIG
// override enough to hold its cache rows.
func (c *Config) fastSubarrays() int {
	if c.FIG == nil {
		return 2
	}
	rows := dram.Default().RowsPerFastSubarray
	return (c.FIG.CacheRowsPerBank + rows - 1) / rows
}

// geometry returns the per-channel DRAM geometry for the preset.
func (c *Config) geometry() dram.Geometry {
	geo := dram.Default()
	switch c.Preset {
	case FIGCacheFast, FIGCacheIdeal:
		geo.FastSubarrays = c.fastSubarrays()
	case LISAVilla:
		geo.FastSubarrays = 16
	}
	return geo
}

// buildHook constructs the in-DRAM cache hook for one channel, or nil for
// configurations without one.
func (c *Config) buildHook(geo dram.Geometry) (memctrl.CacheHook, error) {
	switch c.Preset {
	case Base, LLDRAM:
		return nil, nil
	case LISAVilla:
		return core.NewLISAVilla(geo)
	case FIGCacheSlow, FIGCacheFast, FIGCacheIdeal:
		fcfg := core.DefaultFIGCacheConfig()
		if c.FIG != nil {
			fcfg = *c.FIG
		}
		hook, err := core.NewFIGCache(fcfg, geo)
		if err != nil {
			return nil, err
		}
		if c.Preset == FIGCacheIdeal {
			return &idealHook{hook}, nil
		}
		return hook, nil
	default:
		return nil, fmt.Errorf("sim: unhandled preset %v", c.Preset)
	}
}

// idealHook is FIGCache with every relocation cost zeroed: the
// FIGCache-Ideal configuration of Section 8. A flush of a closed bank
// still pays the controller's ACTIVATE per insertion.
type idealHook struct{ *core.FIGCache }

func (h *idealHook) Flush(ch *dram.Channel, bank int) memctrl.RelocBurst {
	b := h.FIGCache.Flush(ch, bank)
	b.Cost = 0
	return b
}

// FIGCacheOf extracts the FIGCache from a hook, unwrapping the ideal
// wrapper; nil if the hook is not FIGCache-based.
func FIGCacheOf(h memctrl.CacheHook) *core.FIGCache {
	switch v := h.(type) {
	case *core.FIGCache:
		return v
	case *idealHook:
		return v.FIGCache
	default:
		return nil
	}
}

// hierarchyConfig returns Table 1's SRAM hierarchy for the mix size.
func (c *Config) hierarchyConfig() cache.HierarchyConfig {
	return cache.DefaultHierarchyConfig(len(c.Mix.Apps))
}
