package sim

import (
	"runtime"
	"testing"
)

// allocated returns the bytes and the allocations one call of f makes,
// averaged over runs calls after a warm-up call, counted as
// testing.AllocsPerRun counts allocations.
func allocated(runs int, f func()) (bytes, allocs uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs), (after.Mallocs - before.Mallocs) / uint64(runs)
}

// TestNewFootprint is the machine-state footprint gate: it bounds what
// New allocates for Table 1's largest System, FIGCache-Fast on eight
// cores and four channels, and for a one-core Base System, a few percent
// above their sizes. Most of the bytes are the SRAM caches' set arrays
// (two 32-bit words per line) and the FIGCache tag stores (16-byte
// entries, one backing array per kind and channel), so a widened line
// or a per-bank allocation shows here. The bounds are megabyte-scale,
// so a stray small allocation elsewhere in the process cannot fail it.
func TestNewFootprint(t *testing.T) {
	for _, tc := range []struct {
		name                string
		cfg                 Config
		maxBytes, maxAllocs uint64
	}{
		// 3,862,000 bytes in 326 allocations with go1.24.
		{"FIGCache-Fast mix-100-0", DefaultConfig(FIGCacheFast, eightCoreMix(t, 100)), 4_000_000, 400},
		// 401,400 bytes in 81 allocations.
		{"Base mcf", DefaultConfig(Base, smallMix(t, "mcf")), 420_000, 100},
	} {
		bytes, allocs := allocated(3, func() {
			if _, err := New(tc.cfg); err != nil {
				t.Fatal(err)
			}
		})
		if bytes > tc.maxBytes || allocs > tc.maxAllocs {
			t.Errorf("%s: New allocates %d bytes in %d allocations, want at most %d in %d",
				tc.name, bytes, allocs, tc.maxBytes, tc.maxAllocs)
		}
	}
}

// TestNewRefusesMemoryPastTagReach checks that New refuses a memory the
// SRAM tags cannot reach — 8192 channels of 4 GiB, twice the 16 TiB the
// L1's 30-bit tags name — with the hierarchy's error, and does so before
// it builds anything sized by the channel count.
func TestNewRefusesMemoryPastTagReach(t *testing.T) {
	cfg := DefaultConfig(Base, smallMix(t, "mcf"))
	cfg.Channels = 8192
	const want = "cache L1: 30-bit tags reach 17592186044416 bytes, short of the 35184372088832-byte memory"
	if _, err := New(cfg); err == nil || err.Error() != want {
		t.Fatalf("New error = %v, want %q", err, want)
	}
	if bytes, _ := allocated(3, func() { New(cfg) }); bytes > 64<<10 {
		t.Errorf("refusing New allocated %d bytes, want at most 64 KiB", bytes)
	}
}
