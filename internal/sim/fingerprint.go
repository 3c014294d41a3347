package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
)

// EngineVersion stamps the generation of the timing model. It is folded
// into every Config fingerprint, so results persisted by internal/expcache
// are invalidated wholesale whenever a change to the simulator can alter
// what a run produces (core model, cache hierarchy, controller scheduling,
// DRAM timing, workload generation, result collection). Bump it on any
// such change; leaving it stale lets a warm result cache serve numbers the
// current engine would no longer compute.
const EngineVersion = 3

// Fingerprint is a canonical, deterministic identity for one simulation
// run: equal fingerprints imply bit-identical sim.Results (same engine
// version, same configuration, same seed). It keys the harness's
// in-memory result cache and the content-addressed on-disk store.
type Fingerprint [sha256.Size]byte

// String returns the fingerprint as lowercase hex (the on-disk filename).
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Fingerprint returns the run's canonical identity: a stable hash over
// the normalized configuration (defaults filled in, so a zero Channels
// field hashes identically to its explicit default), every workload
// parameter of the mix, the FIG override, and EngineVersion.
func (c Config) Fingerprint() Fingerprint {
	// Normalization can fail only for configs sim.New would reject; those
	// never produce a Result, so hashing the partially-defaulted state is
	// harmless (the fingerprint is still deterministic).
	norm := c
	_ = norm.normalize()

	// The clock ratio, the fast-subarray count (2 for the presets without
	// a derived one), the benefit counter width (5), the reserved
	// subarray (-1; the geometry decides it) and the Random policy's
	// seed (1) are fixed, but their fields keep the hash of every cached
	// result.
	fastsub := 2
	if norm.Preset == FIGCacheFast || norm.Preset == FIGCacheIdeal {
		fastsub = norm.fastSubarrays()
	}
	h := sha256.New()
	fmt.Fprintf(h, "engine=%d\n", EngineVersion)
	fmt.Fprintf(h, "preset=%d channels=%d insts=%d maxcycles=%d cpb=%d seed=%d shared=%t fastsub=%d immreloc=%t\n",
		int(norm.Preset), norm.Channels, norm.TargetInsts, norm.MaxCycles,
		cpuPerBus, norm.Seed, norm.SharedFootprint, fastsub,
		norm.ImmediateReloc)
	fmt.Fprintf(h, "mix=%q intensive=%d\n", norm.Mix.Name, norm.Mix.IntensivePercent)
	for _, a := range norm.Mix.Apps {
		// Every workload-source parameter: two mixes that differ only in
		// a spec field (sensitivity studies mutate them) must not collide.
		// Synthetic sources serialize the exact pre-Source line layout, so
		// results cached before the Source refactor stay addressable;
		// trace sources serialize their *content* hash (sha256 of the
		// trace file, cached by workload.LoadTrace), so a run's identity
		// moves exactly when the replayed records can change — never with
		// a rename or copy of the file. Pinned by
		// TestFingerprintGoldenSynthetic and TestFingerprintTraceContent.
		a.WriteCanonical(h)
	}
	if f := norm.FIG; f != nil {
		fmt.Fprintf(h, "fig=%d,%d,%d,%d,5,-1,%d,1\n",
			f.SegmentBlocks, f.CacheRowsPerBank, int(f.Replacement), f.InsertThreshold,
			int(f.Substrate))
	} else {
		io.WriteString(h, "fig=default\n")
	}
	// LISA-VILLA has one configuration; the line keeps the hash of every
	// cached result.
	io.WriteString(h, "lisa=default\n")

	var fp Fingerprint
	h.Sum(fp[:0])
	return fp
}

// Describe returns a short human-readable run identity for error messages
// and logs (not a cache key; Fingerprint is the identity).
func (c Config) Describe() string {
	return fmt.Sprintf("%v/%s@%d", c.Preset, c.Mix.Name, c.TargetInsts)
}
