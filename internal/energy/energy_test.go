package energy

import (
	"math"
	"testing"

	"repro/internal/dram"
	"repro/internal/sim"
)

func sampleResult() sim.Result {
	return sim.Result{
		Cycles:      3_200_000, // 1 ms at 3.2 GHz
		TotalInsts:  1_000_000,
		L1Accesses:  400_000,
		L2Accesses:  60_000,
		LLCAccesses: 50_000,
		MemReads:    30_000,
		MemWrites:   10_000,
		DRAM: dram.Stats{
			ACT: 20_000, PRE: 20_000, RD: 30_000, WR: 10_000, REF: 120,
		},
	}
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := DefaultParams()
	bad.CPUFreqHz = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero frequency")
	}
	bad = DefaultParams()
	bad.ActPreJ = -1
	if err := bad.Validate(); err == nil {
		t.Error("accepted negative energy")
	}
}

func TestComputeBreakdownPositive(t *testing.T) {
	b := Compute(DefaultParams(), sampleResult(), 1, 1)
	for name, v := range map[string]float64{
		"CPU": b.CPU, "L1L2": b.L1L2, "LLC": b.LLC, "OffChip": b.OffChip, "DRAM": b.DRAM,
	} {
		if v <= 0 {
			t.Errorf("%s energy = %g, want positive", name, v)
		}
	}
	if b.Total() <= b.CPU {
		t.Error("total not greater than CPU component")
	}
}

func TestBreakdownProportionsResembleFigure11(t *testing.T) {
	// Figure 11 for Base: CPU is the largest component; DRAM is a
	// substantial share.
	b := Compute(DefaultParams(), sampleResult(), 1, 1)
	total := b.Total()
	if b.CPU/total < 0.3 {
		t.Errorf("CPU share = %.2f, want >= 0.3", b.CPU/total)
	}
	if b.DRAM/total < 0.1 || b.DRAM/total > 0.6 {
		t.Errorf("DRAM share = %.2f, want 0.1..0.6", b.DRAM/total)
	}
}

func TestShorterRunLessStaticEnergy(t *testing.T) {
	r := sampleResult()
	fast := r
	fast.Cycles = r.Cycles / 2
	b1 := Compute(DefaultParams(), r, 1, 1)
	b2 := Compute(DefaultParams(), fast, 1, 1)
	if b2.Total() >= b1.Total() {
		t.Errorf("halving runtime did not reduce energy: %g vs %g", b2.Total(), b1.Total())
	}
}

func TestFewerActivationsLessDRAMEnergy(t *testing.T) {
	// The paper's first energy-reduction source: improved row-buffer hit
	// rate amortises ACT/PRE energy (Section 8.2).
	r := sampleResult()
	amortized := r
	amortized.DRAM.ACT = r.DRAM.ACT / 2
	b1 := Compute(DefaultParams(), r, 1, 1)
	b2 := Compute(DefaultParams(), amortized, 1, 1)
	if b2.DRAM >= b1.DRAM {
		t.Errorf("halving ACTs did not reduce DRAM energy: %g vs %g", b2.DRAM, b1.DRAM)
	}
}

func TestFastACTCheaperThanSlow(t *testing.T) {
	r := sampleResult()
	fastActs := r
	fastActs.DRAM.ACT = 0
	fastActs.DRAM.ACTFast = r.DRAM.ACT
	b1 := Compute(DefaultParams(), r, 1, 1)
	b2 := Compute(DefaultParams(), fastActs, 1, 1)
	if b2.DRAM >= b1.DRAM {
		t.Error("fast-subarray activations not cheaper than slow ones")
	}
}

func TestRelocAndRBMEnergyCounted(t *testing.T) {
	r := sampleResult()
	r.DRAM.RELOC = 100_000
	r.Preset = sim.FIGCacheFast
	withReloc := Compute(DefaultParams(), r, 1, 1)
	r.DRAM.RELOC = 0
	without := Compute(DefaultParams(), r, 1, 1)
	if withReloc.DRAM <= without.DRAM {
		t.Error("RELOC energy not accounted")
	}
	r.DRAM.RBMHops = 50_000
	withRBM := Compute(DefaultParams(), r, 1, 1)
	r.DRAM.RBMHops = 0
	if withRBM.DRAM <= Compute(DefaultParams(), r, 1, 1).DRAM {
		t.Error("RBM energy not accounted")
	}
}

// TestFTSPowerIncludedWhenPresent checks that exactly the three
// FIGCache presets, which keep a FIGCache tag store, are charged its
// static power over the run.
func TestFTSPowerIncludedWhenPresent(t *testing.T) {
	r := sampleResult()
	without := Compute(DefaultParams(), r, 1, 1)
	fts := DefaultParams().FTSW * float64(r.Cycles) / DefaultParams().CPUFreqHz
	for _, p := range sim.Presets() {
		r.Preset = p
		got := Compute(DefaultParams(), r, 1, 1).DRAM - without.DRAM
		want := 0.0
		if p == sim.FIGCacheSlow || p == sim.FIGCacheFast || p == sim.FIGCacheIdeal {
			want = fts
		}
		if math.Abs(got-want) > 1e-6*fts {
			t.Errorf("%v: DRAM energy above Base's by %g J, want %g J of FTS power", p, got, want)
		}
	}
}

func TestRelocOpEnergyScale(t *testing.T) {
	// Section 4.2 estimates 0.03 uJ for a standalone one-block relocation
	// using the Micron power calculator; our per-command constants land
	// in the same order of magnitude.
	j := RelocOpJ(DefaultParams())
	if j < 5e-9 || j > 100e-9 {
		t.Errorf("standalone relocation energy = %g J, want tens of nJ", j)
	}
}
