package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/workload"
)

// counters renders a Result's integer counters, per-core retired
// instructions and finish cycles last. It leaves out IPC and the mean
// read latency: a compiler may fuse a float multiply and add, so their
// last digits can differ between architectures while the run does not.
func counters(r Result) string {
	d := r.DRAM
	var b strings.Builder
	fmt.Fprintf(&b, "cyc=%d insts=%d act=%d/%d pre=%d rd=%d wr=%d ref=%d reloc=%d hops=%d busy=%d "+
		"rowhit=%d rowmiss=%d conf=%d idc=%d/%d ins=%d l1=%d l2=%d llc=%d/%d mem=%d/%d",
		r.Cycles, r.TotalInsts, d.ACT, d.ACTFast, d.PRE, d.RD, d.WR, d.REF, d.RELOC, d.RBMHops, d.RelocBusy,
		d.RowHits, d.RowMisses, d.RowConf, r.CacheHits, r.CacheMisses, r.Inserted,
		r.L1Accesses, r.L2Accesses, r.LLCMisses, r.LLCAccesses, r.MemReads, r.MemWrites)
	for _, c := range r.Cores {
		fmt.Fprintf(&b, " %d@%d", c.Insts, c.FinishedAt)
	}
	return b.String()
}

// TestResultCountersGolden pins the integer counters of 14 short runs:
// every preset on mcf (one core) and on mix-100-0 (eight cores),
// FIGCache-Fast on mix-100-0 with ImmediateReloc, and Base on lbm long
// enough to write back to DRAM. A change that alters any simulated
// number must bump EngineVersion and re-pin these, as it re-pins the
// harness's TestSweepFingerprintsGolden.
func TestResultCountersGolden(t *testing.T) {
	type run struct {
		name string
		cfg  Config
	}
	mix := func(name string) workload.Mix {
		m, _, err := workload.FindMix(name)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	var runs []run
	for _, p := range Presets() {
		cfg := DefaultConfig(p, mix("mcf"))
		cfg.TargetInsts = 100_000
		runs = append(runs, run{p.String() + "/mcf", cfg})
	}
	for _, p := range Presets() {
		cfg := DefaultConfig(p, mix("mix-100-0"))
		cfg.TargetInsts = 20_000
		runs = append(runs, run{p.String() + "/mix-100-0", cfg})
	}
	imm := DefaultConfig(FIGCacheFast, mix("mix-100-0"))
	imm.TargetInsts = 20_000
	imm.ImmediateReloc = true
	lbm := DefaultConfig(Base, mix("lbm"))
	lbm.TargetInsts = 1_000_000
	runs = append(runs, run{"FIGCache-Fast/mix-100-0/immediate", imm}, run{"Base/lbm", lbm})

	golden := map[string]string{
		"Base/mcf":                          "cyc=187310 insts=100001 act=2731/0 pre=2716 rd=2724 wr=0 ref=7 reloc=0 hops=0 busy=0 rowhit=2724 rowmiss=2731 conf=2612 idc=0/0 ins=0 l1=2739 l2=3007 llc=2728/2731 mem=2724/0 100001@187309",
		"LISA-VILLA/mcf":                    "cyc=190693 insts=100001 act=2730/0 pre=2597 rd=2722 wr=0 ref=7 reloc=0 hops=251 busy=3121 rowhit=2722 rowmiss=2730 conf=2596 idc=0/2725 ins=125 l1=2739 l2=3007 llc=2728/2731 mem=2722/0 100001@190692",
		"FIGCache-Slow/mcf":                 "cyc=288230 insts=100001 act=2627/0 pre=68 rd=2725 wr=0 ref=11 reloc=40848 hops=0 busy=97014 rowhit=2725 rowmiss=2627 conf=1968 idc=126/2600 ins=2553 l1=2739 l2=3007 llc=2728/2731 mem=2725/0 100001@288229",
		"FIGCache-Fast/mcf":                 "cyc=254070 insts=100001 act=2603/23 pre=23 rd=2725 wr=0 ref=10 reloc=41584 hops=0 busy=75371 rowhit=2725 rowmiss=2626 conf=1975 idc=126/2600 ins=2599 l1=2739 l2=3007 llc=2728/2731 mem=2725/0 100001@254069",
		"FIGCache-Ideal/mcf":                "cyc=178042 insts=100001 act=2605/23 pre=25 rd=2725 wr=0 ref=7 reloc=41584 hops=0 busy=0 rowhit=2725 rowmiss=2628 conf=2071 idc=126/2600 ins=2599 l1=2739 l2=3007 llc=2728/2731 mem=2725/0 100001@178041",
		"LL-DRAM/mcf":                       "cyc=107547 insts=100001 act=0/2727 pre=2711 rd=2723 wr=0 ref=4 reloc=0 hops=0 busy=0 rowhit=2723 rowmiss=2727 conf=2649 idc=0/0 ins=0 l1=2739 l2=3007 llc=2728/2731 mem=2723/0 100001@107546",
		"Base/mix-100-0":                    "cyc=42269 insts=305320 act=2191/0 pre=2129 rd=5789 wr=0 ref=4 reloc=0 hops=0 busy=0 rowhit=5789 rowmiss=2191 conf=2069 idc=0/0 ins=0 l1=5823 l2=6057 llc=5822/5822 mem=5789/0 38352@23132 44764@18441 20002@42268 41076@19788 39338@21086 50041@17093 39554@20602 32193@27153",
		"LISA-VILLA/mix-100-0":              "cyc=45593 insts=285808 act=1988/35 pre=626 rd=5423 wr=0 ref=4 reloc=0 hops=2755 busy=34443 rowhit=5423 rowmiss=2023 conf=1503 idc=56/5399 ins=1384 l1=5460 l2=5674 llc=5458/5458 mem=5423/0 28425@29236 40037@19495 20002@45592 41488@21820 41719@22198 49354@19021 38217@24482 26566@31710",
		"FIGCache-Slow/mix-100-0":           "cyc=63569 insts=350423 act=2409/0 pre=171 rd=6588 wr=0 ref=8 reloc=35664 hops=0 busy=84702 rowhit=6588 rowmiss=2409 conf=1652 idc=140/6470 ins=2235 l1=6614 l2=6960 llc=6612/6612 mem=6588/0 38468@32016 55285@19533 20002@63568 50645@22368 47568@25010 58248@20634 48048@29250 32159@39561",
		"FIGCache-Fast/mix-100-0":           "cyc=54197 insts=327623 act=2204/75 pre=121 rd=6148 wr=0 ref=8 reloc=34336 hops=0 busy=62234 rowhit=6148 rowmiss=2279 conf=1561 idc=159/6015 ins=2155 l1=6178 l2=6467 llc=6177/6177 mem=6148/0 36147@28992 51472@18676 20002@54196 47138@22600 44163@22706 56367@18849 43175@27542 29159@35341",
		"FIGCache-Ideal/mix-100-0":          "cyc=39673 insts=312502 act=2200/49 pre=108 rd=5936 wr=0 ref=4 reloc=33984 hops=0 busy=0 rowhit=5936 rowmiss=2249 conf=1604 idc=95/5855 ins=2137 l1=5958 l2=6214 llc=5956/5956 mem=5936/0 37192@21824 46858@16019 20002@39672 43958@19132 41015@18650 48949@16449 41230@20274 33298@23109",
		"LL-DRAM/mix-100-0":                 "cyc=27501 insts=218695 act=0/1753 pre=1726 rd=4248 wr=0 ref=4 reloc=0 hops=0 busy=0 rowhit=4248 rowmiss=1753 conf=1664 idc=0/0 ins=0 l1=4287 l2=4389 llc=4282/4282 mem=4248/0 28425@18632 29715@16911 20002@27500 27541@19003 30831@16946 30517@17889 27001@19365 24663@22249",
		"FIGCache-Fast/mix-100-0/immediate": "cyc=44618 insts=229941 act=2577/508 pre=1348 rd=4421 wr=0 ref=4 reloc=27216 hops=0 busy=49329 rowhit=4421 rowmiss=3085 conf=1309 idc=1046/3396 ins=1701 l1=4454 l2=4571 llc=4450/4450 mem=4421/0 22729@38376 36735@23155 22772@40284 29859@28443 33474@27330 35983@23386 28389@31337 20000@44617",
		"Base/lbm":                          "cyc=751876 insts=1000001 act=4866/0 pre=4858 rd=20634 wr=168 ref=30 reloc=0 hops=0 busy=0 rowhit=20802 rowmiss=4866 conf=4434 idc=0/0 ins=0 l1=23521 l2=32599 llc=20636/31125 mem=20634/168 1000001@751875",
	}
	for _, r := range runs {
		s, err := New(r.cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		want, ok := golden[r.name]
		if got := counters(res); !ok || got != want {
			t.Errorf("%s counters drifted:\n got  %q\n want %q", r.name, got, want)
		}
	}
}
