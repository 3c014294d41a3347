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
