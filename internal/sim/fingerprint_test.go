package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func fpConfig(t *testing.T) Config {
	t.Helper()
	return DefaultConfig(FIGCacheFast, smallMix(t, "mcf"))
}

func TestFingerprintDeterministic(t *testing.T) {
	cfg := fpConfig(t)
	if cfg.Fingerprint() != cfg.Fingerprint() {
		t.Error("two fingerprints of the same config differ")
	}
	copyCfg := cfg
	if cfg.Fingerprint() != copyCfg.Fingerprint() {
		t.Error("a copied config fingerprints differently")
	}
}

// TestFingerprintGoldenSynthetic pins the exact fingerprints of three
// representative synthetic configurations to the values the
// pre-workload.Source implementation computed. These hashes are the
// on-disk identities of every previously cached synthetic result: if
// this test fails, the refactor you are making orphans existing result
// caches, which is only acceptable together with a sim.EngineVersion
// bump (and then these constants must be re-pinned).
func TestFingerprintGoldenSynthetic(t *testing.T) {
	mcf, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	single := DefaultConfig(FIGCacheFast, workload.Mix{Name: "mcf", Apps: workload.Sources(mcf), IntensivePercent: 100})
	single.TargetInsts = 20_000
	eight := DefaultConfig(Base, workload.EightCoreMixes()[0])
	eight.TargetInsts = 5_000
	mt := DefaultConfig(LISAVilla, workload.MultithreadedWorkloads()[0])
	mt.SharedFootprint = true

	golden := []struct {
		name string
		cfg  Config
		want string
	}{
		{"single", single, "ba153cdb4573acad00593b7047af729533c9bb0c6fec0ac3c098a1b324f121c2"},
		{"eight", eight, "fa2a9ec55498df7929c5f29315440ff409cd1f046e12a14893ab0fe78234e0b0"},
		{"multithreaded", mt, "cf3cbeac2cac91b6675da78172f847daa9278d2c1bd49f0a0592bb872819a082"},
	}
	for _, g := range golden {
		if got := g.cfg.Fingerprint().String(); got != g.want {
			t.Errorf("%s fingerprint drifted:\n got  %s\n want %s\n(cached synthetic results are orphaned; see comment above)", g.name, got, g.want)
		}
	}
}

// TestFingerprintNormalizes checks that implicit defaults and their
// explicit spellings share an identity: a zero Channels field and the
// normalized value must not cache-split the same run.
func TestFingerprintNormalizes(t *testing.T) {
	implicit := fpConfig(t)
	explicit := implicit
	explicit.Channels = 1 // single-core default
	explicit.MaxCycles = 400 * explicit.TargetInsts
	if implicit.Fingerprint() != explicit.Fingerprint() {
		t.Error("normalized defaults fingerprint differently from implicit zeros")
	}
}

// TestFingerprintSensitivity mutates every result-affecting knob and
// checks each one moves the fingerprint — a collision here would let the
// cache serve one experiment's result for another.
func TestFingerprintSensitivity(t *testing.T) {
	base := fpConfig(t)
	ref := base.Fingerprint()
	mutations := map[string]func(*Config){
		"preset":       func(c *Config) { c.Preset = Base },
		"insts":        func(c *Config) { c.TargetInsts *= 2 },
		"maxcycles":    func(c *Config) { c.MaxCycles = 100 * c.TargetInsts },
		"seed":         func(c *Config) { c.Seed++ },
		"shared":       func(c *Config) { c.SharedFootprint = true },
		"immreloc":     func(c *Config) { c.ImmediateReloc = true },
		"mix-name":     func(c *Config) { c.Mix.Name = "other" },
		"app-bubbles":  func(c *Config) { c.Mix.Apps[0].Synth.Bubbles++ },
		"app-hotfrac":  func(c *Config) { c.Mix.Apps[0].Synth.HotFraction += 0.01 },
		"fig-override": func(c *Config) { f := core.DefaultFIGCacheConfig(); c.FIG = &f },
	}
	seen := map[Fingerprint]string{ref: "base"}
	for name, mutate := range mutations {
		cfg := base
		cfg.Mix.Apps = append([]workload.Source(nil), base.Mix.Apps...)
		mutate(&cfg)
		fp := cfg.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[fp] = name
	}
}

// TestFingerprintFIGByValue checks that FIG overrides hash by value: two
// distinct pointers to equal configs must share a fingerprint (the sweep
// builders allocate a fresh override per call).
func TestFingerprintFIGByValue(t *testing.T) {
	a := fpConfig(t)
	figA := core.DefaultFIGCacheConfig()
	a.FIG = &figA
	b := fpConfig(t)
	figB := core.DefaultFIGCacheConfig()
	b.FIG = &figB
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("equal FIG overrides behind distinct pointers fingerprint differently")
	}
}
