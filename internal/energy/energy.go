package energy

import (
	"fmt"

	"repro/internal/sim"
)

// Params holds the per-operation energies (joules) and static powers
// (watts) of the model.
type Params struct {
	CPUFreqHz float64

	// CPU cores.
	CoreStaticW  float64 // per core
	CoreDynPerOp float64 // per retired instruction

	// SRAM caches.
	L1AccessJ  float64
	L2AccessJ  float64
	LLCAccessJ float64
	LLCStaticW float64 // whole LLC

	// Off-chip interconnect: per 64-byte transfer between LLC and DRAM.
	OffChipPerReqJ float64

	// DRAM per-command energies.
	ActPreJ     float64 // one ACTIVATE+PRECHARGE pair, slow subarray
	ActPreFastJ float64 // one ACTIVATE+PRECHARGE pair, fast subarray
	ReadBurstJ  float64 // one RD burst incl. I/O
	WriteBurstJ float64 // one WR burst incl. I/O
	RefreshJ    float64 // one all-bank REF
	RelocColJ   float64 // one FIGARO RELOC column operation
	RBMHopJ     float64 // one LISA row-buffer-movement hop (full row)
	DRAMStaticW float64 // background power per channel

	// FTS (FIGCache tag store) power, from the paper's CACTI analysis
	// (Section 8.3: 0.187 mW on average).
	FTSW float64
}

// DefaultParams returns the model constants. DRAM command energies are
// derived from DDR4 IDD-based estimates for a rank of eight x8 chips;
// CPU/cache constants are representative 22 nm values.
func DefaultParams() Params {
	return Params{
		CPUFreqHz:      3.2e9,
		CoreStaticW:    2.5,
		CoreDynPerOp:   0.25e-9,
		L1AccessJ:      0.02e-9,
		L2AccessJ:      0.06e-9,
		LLCAccessJ:     0.30e-9,
		LLCStaticW:     0.5,
		OffChipPerReqJ: 5.1e-9, // ~10 pJ/bit x 512 bits
		ActPreJ:        20e-9,
		ActPreFastJ:    12e-9, // short bitlines restore less charge
		ReadBurstJ:     13e-9,
		WriteBurstJ:    13e-9,
		RefreshJ:       250e-9,
		RelocColJ:      1.2e-9, // column copy through the GRB
		RBMHopJ:        9e-9,   // an entire row moved one subarray
		DRAMStaticW:    0.15,
		FTSW:           0.187e-3,
	}
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.CPUFreqHz <= 0 {
		return fmt.Errorf("energy: CPU frequency must be positive")
	}
	vals := []float64{
		p.CoreStaticW, p.CoreDynPerOp, p.L1AccessJ, p.L2AccessJ, p.LLCAccessJ,
		p.LLCStaticW, p.OffChipPerReqJ, p.ActPreJ, p.ActPreFastJ, p.ReadBurstJ,
		p.WriteBurstJ, p.RefreshJ, p.RelocColJ, p.RBMHopJ, p.DRAMStaticW, p.FTSW,
	}
	for i, v := range vals {
		if v < 0 {
			return fmt.Errorf("energy: parameter %d negative", i)
		}
	}
	return nil
}

// Breakdown is the per-component energy of one run, in joules, matching
// the stacks of Figure 11.
type Breakdown struct {
	CPU     float64
	L1L2    float64
	LLC     float64
	OffChip float64
	DRAM    float64
}

// Total returns the summed system energy.
func (b Breakdown) Total() float64 { return b.CPU + b.L1L2 + b.LLC + b.OffChip + b.DRAM }

// Compute derives the energy breakdown of a run from its statistics.
// channels is the number of memory channels, cores the core count. The
// three FIGCache presets keep a FIGCache tag store (FTS) in the memory
// controller, whose static power the DRAM component carries.
func Compute(p Params, r sim.Result, cores, channels int) Breakdown {
	seconds := float64(r.Cycles) / p.CPUFreqHz
	var b Breakdown

	b.CPU = float64(cores)*p.CoreStaticW*seconds + float64(r.TotalInsts)*p.CoreDynPerOp
	b.L1L2 = float64(r.L1Accesses)*p.L1AccessJ + float64(r.L2Accesses)*p.L2AccessJ
	b.LLC = float64(r.LLCAccesses)*p.LLCAccessJ + p.LLCStaticW*seconds
	b.OffChip = float64(r.MemReads+r.MemWrites) * p.OffChipPerReqJ

	d := r.DRAM
	b.DRAM = float64(d.ACT)*p.ActPreJ +
		float64(d.ACTFast)*p.ActPreFastJ +
		float64(d.RD)*p.ReadBurstJ +
		float64(d.WR)*p.WriteBurstJ +
		float64(d.REF)*p.RefreshJ +
		float64(d.RELOC)*p.RelocColJ +
		float64(d.RBMHops)*p.RBMHopJ +
		float64(channels)*p.DRAMStaticW*seconds
	switch r.Preset {
	case sim.FIGCacheSlow, sim.FIGCacheFast, sim.FIGCacheIdeal:
		b.DRAM += p.FTSW * seconds
	}
	return b
}

// RelocOpJ returns the modelled energy of one standalone single-column
// FIGARO relocation (two ACTIVATEs, one RELOC, one PRECHARGE), comparable
// to the paper's 0.03 uJ estimate from the Micron power calculator
// (Section 4.2).
func RelocOpJ(p Params) float64 {
	return 2*p.ActPreJ + p.RelocColJ
}
