package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
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
// parameter of the mix, the FIG override, and EngineVersion. It makes
// no allocation for configs of up to eight cores: the canonical text is
// appended into a stack buffer and hashed in one call.
func (c Config) Fingerprint() Fingerprint {
	var buf [canonicalBuf]byte
	return sha256.Sum256(c.appendCanonical(buf[:0]))
}

// canonicalBuf holds an eight-core config's canonical text (about 1 kB)
// with room to spare; a longer text spills to the heap.
const canonicalBuf = 2048

// appendCanonical appends the text Fingerprint hashes to dst. The layout
// is the persisted identity of every cached result and MUST NOT change
// by a byte without an EngineVersion bump. It is the fmt layout
//
//	engine=%d
//	preset=%d channels=%d insts=%d maxcycles=%d cpb=%d seed=%d shared=%t fastsub=%d immreloc=%t
//	mix=%q intensive=%d
//	<one workload.Source.AppendCanonical line per core>
//	fig=%d,%d,%d,%d,5,-1,%d,1   (or fig=default)
//	lisa=default
//
// spelled with strconv; FuzzFingerprintLayout holds it to the fmt
// spelling, and TestFingerprintGoldenSynthetic pins one hash per preset.
func (c Config) appendCanonical(dst []byte) []byte {
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
	dst = append(dst, "engine="...)
	dst = strconv.AppendInt(dst, EngineVersion, 10)
	dst = append(dst, "\npreset="...)
	dst = strconv.AppendInt(dst, int64(norm.Preset), 10)
	dst = append(dst, " channels="...)
	dst = strconv.AppendInt(dst, int64(norm.Channels), 10)
	dst = append(dst, " insts="...)
	dst = strconv.AppendInt(dst, norm.TargetInsts, 10)
	dst = append(dst, " maxcycles="...)
	dst = strconv.AppendInt(dst, norm.MaxCycles, 10)
	dst = append(dst, " cpb="...)
	dst = strconv.AppendInt(dst, cpuPerBus, 10)
	dst = append(dst, " seed="...)
	dst = strconv.AppendUint(dst, norm.Seed, 10)
	dst = append(dst, " shared="...)
	dst = strconv.AppendBool(dst, norm.SharedFootprint)
	dst = append(dst, " fastsub="...)
	dst = strconv.AppendInt(dst, int64(fastsub), 10)
	dst = append(dst, " immreloc="...)
	dst = strconv.AppendBool(dst, norm.ImmediateReloc)
	dst = append(dst, "\nmix="...)
	dst = strconv.AppendQuote(dst, norm.Mix.Name)
	dst = append(dst, " intensive="...)
	dst = strconv.AppendInt(dst, int64(norm.Mix.IntensivePercent), 10)
	dst = append(dst, '\n')
	for _, a := range norm.Mix.Apps {
		// Every workload-source parameter: two mixes that differ only in
		// a spec field (sensitivity studies mutate them) must not collide.
		// Sources serialize the exact pre-Source line layout, so results
		// cached before the Source refactor stay addressable.
		dst = a.AppendCanonical(dst)
	}
	if f := norm.FIG; f != nil {
		dst = append(dst, "fig="...)
		dst = strconv.AppendInt(dst, int64(f.SegmentBlocks), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(f.CacheRowsPerBank), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(f.Replacement), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(f.InsertThreshold), 10)
		dst = append(dst, ",5,-1,"...)
		dst = strconv.AppendInt(dst, int64(f.Substrate), 10)
		dst = append(dst, ",1\n"...)
	} else {
		dst = append(dst, "fig=default\n"...)
	}
	// LISA-VILLA has one configuration; the line keeps the hash of every
	// cached result.
	return append(dst, "lisa=default\n"...)
}

// Describe returns a short human-readable run identity for error messages
// and logs (not a cache key; Fingerprint is the identity).
func (c Config) Describe() string {
	return fmt.Sprintf("%v/%s@%d", c.Preset, c.Mix.Name, c.TargetInsts)
}
