package dram

import (
	"testing"
	"testing/quick"
)

func testChannel(t *testing.T, fastSubarrays int, allFast bool) *Channel {
	t.Helper()
	geo := Default()
	geo.FastSubarrays = fastSubarrays
	slow := DDR4()
	ch, err := NewChannel(geo, slow, slow.Fast(PaperFastScale()), allFast)
	if err != nil {
		t.Fatalf("NewChannel: %v", err)
	}
	return ch
}

func TestDefaultGeometry(t *testing.T) {
	g := Default()
	if err := g.Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	if got := g.BanksPerRank(); got != 16 {
		t.Errorf("BanksPerRank = %d, want 16", got)
	}
	if got := g.RowsPerBank(); got != 32768 {
		t.Errorf("RowsPerBank = %d, want 32768", got)
	}
	if got := g.BlocksPerRow(); got != 128 {
		t.Errorf("BlocksPerRow = %d, want 128", got)
	}
	// Table 1: 4 GB capacity per channel.
	if got := g.ChannelBytes(); got != 4<<30 {
		t.Errorf("ChannelBytes = %d, want %d", got, int64(4)<<30)
	}
}

func TestGeometryValidateRejectsBad(t *testing.T) {
	cases := []func(*Geometry){
		func(g *Geometry) { g.Ranks = 0 },
		func(g *Geometry) { g.BankGroups = -1 },
		func(g *Geometry) { g.SubarraysPerBank = 0 },
		func(g *Geometry) { g.RowBytes = 100 }, // not a multiple of 64
		func(g *Geometry) { g.FastSubarrays = -1 },
		func(g *Geometry) { g.FastSubarrays = 2; g.RowsPerFastSubarray = 0 },
	}
	for i, mutate := range cases {
		g := Default()
		mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid geometry %+v", i, g)
		}
	}
}

func TestTimingValidate(t *testing.T) {
	if err := DDR4().Validate(); err != nil {
		t.Fatalf("DDR4 timing invalid: %v", err)
	}
	bad := DDR4()
	bad.RCD = 0
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted tRCD=0")
	}
	bad = DDR4()
	bad.RC = 1
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted tRC < tRAS+tRP")
	}
}

func TestFastTimingReductions(t *testing.T) {
	slow := DDR4()
	fast := slow.Fast(PaperFastScale())
	// Table 1: tRCD/tRP/tRAS reduced by 45.5% / 38.2% / 62.9%.
	if fast.RCD >= slow.RCD || fast.RP >= slow.RP || fast.RAS >= slow.RAS {
		t.Fatalf("fast timings not reduced: %+v vs %+v", fast, slow)
	}
	wantRCD := int(float64(slow.RCD)*(1-0.455) + 0.5)
	if fast.RCD != wantRCD {
		t.Errorf("fast tRCD = %d, want %d", fast.RCD, wantRCD)
	}
	if fast.RC != fast.RAS+fast.RP {
		t.Errorf("fast tRC = %d, want tRAS+tRP = %d", fast.RC, fast.RAS+fast.RP)
	}
	if err := fast.Validate(); err != nil {
		t.Errorf("fast timing invalid: %v", err)
	}
}

func TestTimingNSAndCyclesRoundTrip(t *testing.T) {
	tm := DDR4()
	if got := tm.NS(4); got != 5.0 {
		t.Errorf("NS(4) = %g, want 5.0", got)
	}
	if got := tm.Cycles(35); got != 28 {
		t.Errorf("Cycles(35ns) = %d, want 28", got)
	}
	if got := tm.Cycles(1); got != 1 {
		t.Errorf("Cycles(1ns) = %d, want 1 (round up)", got)
	}
}

func TestBankActivateReadPrechargeSequence(t *testing.T) {
	ch := testChannel(t, 0, false)
	loc := Location{Row: 100, Block: 3}
	tm := ch.Slow

	// RD on a closed bank is structurally impossible.
	if _, ok := ch.CanIssue(&Command{Type: CmdRD, Loc: loc}, 0); ok {
		t.Fatal("CanIssue(RD) succeeded on closed bank")
	}
	at, ok := ch.CanIssue(&Command{Type: CmdACT, Loc: loc}, 0)
	if !ok || at != 0 {
		t.Fatalf("CanIssue(ACT) = (%d,%v), want (0,true)", at, ok)
	}
	ch.Issue(&Command{Type: CmdACT, Loc: loc}, 0)

	// Read must wait tRCD.
	at, ok = ch.CanIssue(&Command{Type: CmdRD, Loc: loc}, 0)
	if !ok || at != int64(tm.RCD) {
		t.Fatalf("RD ready at %d (ok=%v), want tRCD=%d", at, ok, tm.RCD)
	}
	end := ch.Issue(&Command{Type: CmdRD, Loc: loc}, at)
	if want := at + int64(tm.CL+tm.BL); end != want {
		t.Errorf("RD data end = %d, want %d", end, want)
	}

	// Precharge must wait max(tRAS, RD+tRTP).
	at, ok = ch.CanIssue(&Command{Type: CmdPRE, Loc: loc}, 0)
	if !ok {
		t.Fatal("CanIssue(PRE) structurally failed")
	}
	if want := int64(tm.RAS); at != want {
		t.Errorf("PRE ready at %d, want tRAS=%d", at, want)
	}
	ch.Issue(&Command{Type: CmdPRE, Loc: loc}, at)

	// Next ACT must wait tRP after PRE and tRC after first ACT.
	at2, ok := ch.CanIssue(&Command{Type: CmdACT, Loc: loc}, 0)
	if !ok {
		t.Fatal("CanIssue(ACT) structurally failed after PRE")
	}
	want := maxI64(at+int64(tm.RP), int64(tm.RC))
	if at2 != want {
		t.Errorf("second ACT ready at %d, want %d", at2, want)
	}
}

func TestBankWriteRecovery(t *testing.T) {
	ch := testChannel(t, 0, false)
	loc := Location{Row: 7}
	tm := ch.Slow
	ch.Issue(&Command{Type: CmdACT, Loc: loc}, 0)
	wrAt := int64(tm.RCD)
	end := ch.Issue(&Command{Type: CmdWR, Loc: loc}, wrAt)
	if want := wrAt + int64(tm.CWL+tm.BL); end != want {
		t.Fatalf("WR data end = %d, want %d", end, want)
	}
	at, ok := ch.CanIssue(&Command{Type: CmdPRE, Loc: loc}, 0)
	if !ok {
		t.Fatal("PRE structurally failed")
	}
	if want := end + int64(tm.WR); at != want {
		t.Errorf("PRE after WR ready at %d, want data end + tWR = %d", at, want)
	}
}

func TestRowConflictRequiresPrecharge(t *testing.T) {
	ch := testChannel(t, 0, false)
	a := Location{Row: 1}
	b := Location{Row: 2}
	ch.Issue(&Command{Type: CmdACT, Loc: a}, 0)
	// ACT to a different row of the open bank is structurally impossible.
	if _, ok := ch.CanIssue(&Command{Type: CmdACT, Loc: b}, 100); ok {
		t.Error("ACT allowed on bank with open row")
	}
	// RD to the non-open row is impossible too.
	if _, ok := ch.CanIssue(&Command{Type: CmdRD, Loc: b}, 100); ok {
		t.Error("RD allowed to closed row")
	}
}

func TestRankRRDAndFAW(t *testing.T) {
	ch := testChannel(t, 0, false)
	tm := ch.Slow
	// Activate four different banks back to back; each must be spaced by
	// tRRD_L, and the fifth by tFAW from the first.
	var issued []int64
	for i := 0; i < 5; i++ {
		loc := Location{Group: i % 4, Bank: i / 4, Row: 1}
		at, ok := ch.CanIssue(&Command{Type: CmdACT, Loc: loc}, 0)
		if !ok {
			t.Fatalf("ACT %d structurally failed", i)
		}
		ch.Issue(&Command{Type: CmdACT, Loc: loc}, at)
		issued = append(issued, at)
	}
	for i := 1; i < 4; i++ {
		if got := issued[i] - issued[i-1]; got < int64(tm.RRDL) {
			t.Errorf("ACT %d-%d spacing %d < tRRD %d", i-1, i, got, tm.RRDL)
		}
	}
	if got := issued[4] - issued[0]; got < int64(tm.FAW) {
		t.Errorf("five-ACT window %d < tFAW %d", got, tm.FAW)
	}
}

// TestFreshChannelActivatesAllocateNothing pins that a fresh channel's
// first activates allocate nothing: each rank's tFAW history is carved
// at construction. Sixteen ACT/PRE pairs are twice the history's length,
// so the history also fills and slides.
func TestFreshChannelActivatesAllocateNothing(t *testing.T) {
	const runs = 5
	chans := make([]*Channel, runs+1) // AllocsPerRun adds a warm-up run
	for i := range chans {
		chans[i] = testChannel(t, 0, false)
	}
	next := 0
	failed := false
	allocs := testing.AllocsPerRun(runs, func() {
		ch := chans[next]
		next++
		now := int64(0)
		for i := 0; i < 16; i++ {
			loc := Location{Group: i % 4, Bank: i / 4 % 4, Row: 1 + i}
			act := Command{Type: CmdACT, Loc: loc}
			at, actOK := ch.CanIssue(&act, now)
			ch.Issue(&act, at)
			pre := Command{Type: CmdPRE, Loc: loc}
			at, preOK := ch.CanIssue(&pre, at)
			ch.Issue(&pre, at)
			now = at
			failed = failed || !actOK || !preOK
		}
	})
	if failed {
		t.Fatal("an ACT or PRE was structurally refused")
	}
	if allocs != 0 {
		t.Errorf("a fresh channel's first 16 ACT/PRE pairs allocated %.1f times, want 0", allocs)
	}
	for _, ch := range chans {
		if h := ch.actTimes[0]; len(h) != actHistory || cap(h) != actHistory {
			t.Fatalf("ACT history len %d cap %d, want both %d", len(h), cap(h), actHistory)
		}
	}
}

func TestDataBusSerializesColumnBursts(t *testing.T) {
	ch := testChannel(t, 0, false)
	tm := ch.Slow
	locA := Location{Group: 0, Row: 1}
	locB := Location{Group: 1, Row: 1}
	ch.Issue(&Command{Type: CmdACT, Loc: locA}, 0)
	atB, _ := ch.CanIssue(&Command{Type: CmdACT, Loc: locB}, 0)
	ch.Issue(&Command{Type: CmdACT, Loc: locB}, atB)

	rdA, _ := ch.CanIssue(&Command{Type: CmdRD, Loc: locA}, 0)
	endA := ch.Issue(&Command{Type: CmdRD, Loc: locA}, rdA)
	rdB, ok := ch.CanIssue(&Command{Type: CmdRD, Loc: locB}, rdA)
	if !ok {
		t.Fatal("RD to bank B structurally failed")
	}
	// Bus occupancy: second read cannot start before the first burst ends,
	// and tCCD_S must separate the commands.
	if rdB < rdA+int64(tm.CCDS) {
		t.Errorf("second RD at %d violates tCCD_S after %d", rdB, rdA)
	}
	if rdB < endA && rdB+int64(tm.CL) < endA {
		t.Errorf("second RD at %d overlaps first burst ending %d", rdB, endA)
	}
}

func TestWriteToReadTurnaround(t *testing.T) {
	ch := testChannel(t, 0, false)
	tm := ch.Slow
	loc := Location{Row: 1}
	ch.Issue(&Command{Type: CmdACT, Loc: loc}, 0)
	wrAt, _ := ch.CanIssue(&Command{Type: CmdWR, Loc: loc}, 0)
	wrEnd := ch.Issue(&Command{Type: CmdWR, Loc: loc}, wrAt)
	rdAt, ok := ch.CanIssue(&Command{Type: CmdRD, Loc: loc}, wrAt+1)
	if !ok {
		t.Fatal("RD structurally failed")
	}
	if want := wrEnd + int64(tm.WTRL); rdAt < want {
		t.Errorf("RD after WR at %d, want >= %d (tWTR)", rdAt, want)
	}
}

func TestRefreshOccupiesAllBanks(t *testing.T) {
	ch := testChannel(t, 0, false)
	tm := ch.Slow
	rank, due := ch.RefreshDue(int64(tm.REFI))
	if !due || rank != 0 {
		t.Fatalf("RefreshDue = (%d,%v), want (0,true)", rank, due)
	}
	at, ok := ch.CanIssue(&Command{Type: CmdREF, Loc: Location{Rank: 0}}, int64(tm.REFI))
	if !ok {
		t.Fatal("REF structurally failed on idle rank")
	}
	end := ch.Issue(&Command{Type: CmdREF, Loc: Location{Rank: 0}}, at)
	if want := at + int64(tm.RFC); end != want {
		t.Errorf("REF end = %d, want %d", end, want)
	}
	// No ACT may issue to any bank until tRFC elapses.
	actAt, ok := ch.CanIssue(&Command{Type: CmdACT, Loc: Location{Row: 5}}, at)
	if !ok {
		t.Fatal("ACT structurally failed")
	}
	if actAt < end {
		t.Errorf("ACT during refresh: at %d < refresh end %d", actAt, end)
	}
	if _, due := ch.RefreshDue(at); due {
		t.Error("refresh still pending after issue")
	}
}

func TestRefreshBlockedByOpenRow(t *testing.T) {
	ch := testChannel(t, 0, false)
	ch.Issue(&Command{Type: CmdACT, Loc: Location{Row: 5}}, 0)
	if _, ok := ch.CanIssue(&Command{Type: CmdREF, Loc: Location{Rank: 0}}, 1000); ok {
		t.Error("REF allowed with an open row in the rank")
	}
}

func TestFastRowTimings(t *testing.T) {
	ch := testChannel(t, 2, false)
	fast := ch.Fast
	loc := Location{Row: 10, CacheRow: true}
	ch.Issue(&Command{Type: CmdACT, Loc: loc}, 0)
	at, ok := ch.CanIssue(&Command{Type: CmdRD, Loc: loc}, 0)
	if !ok {
		t.Fatal("RD to cache row failed")
	}
	if at != int64(fast.RCD) {
		t.Errorf("cache-row RD ready at %d, want fast tRCD=%d", at, fast.RCD)
	}
	preAt, _ := ch.CanIssue(&Command{Type: CmdPRE, Loc: loc}, 0)
	if preAt != int64(fast.RAS) {
		t.Errorf("cache-row PRE ready at %d, want fast tRAS=%d", preAt, fast.RAS)
	}
}

func TestFIGCacheSlowCacheRowsKeepSlowTimings(t *testing.T) {
	// With no fast subarrays (FIGCache-Slow), cache rows are reserved rows
	// of a slow subarray and must use slow timings.
	ch := testChannel(t, 0, false)
	loc := Location{Row: 3, CacheRow: true}
	ch.Issue(&Command{Type: CmdACT, Loc: loc}, 0)
	at, _ := ch.CanIssue(&Command{Type: CmdRD, Loc: loc}, 0)
	if at != int64(ch.Slow.RCD) {
		t.Errorf("FIGCache-Slow cache row RD at %d, want slow tRCD=%d", at, ch.Slow.RCD)
	}
}

func TestLLDRAMAllRowsFast(t *testing.T) {
	ch := testChannel(t, 0, true)
	loc := Location{Row: 1234}
	ch.Issue(&Command{Type: CmdACT, Loc: loc}, 0)
	at, _ := ch.CanIssue(&Command{Type: CmdRD, Loc: loc}, 0)
	if at != int64(ch.Fast.RCD) {
		t.Errorf("LL-DRAM RD at %d, want fast tRCD=%d", at, ch.Fast.RCD)
	}
}

func TestRelocCostDistanceIndependent(t *testing.T) {
	ch := testChannel(t, 2, false)
	// FIGARO's relocation cost depends only on the number of blocks, never
	// on which subarrays are involved (Section 4.1).
	c16 := ch.RelocCost(16, true)
	want := int64(16*ch.Slow.RELOC) + int64(ch.Fast.RCD) + int64(ch.Fast.RP)
	if c16 != want {
		t.Errorf("RelocCost(16) = %d, want %d", c16, want)
	}
	if c1 := ch.RelocCost(1, true); c1 >= c16 {
		t.Errorf("RelocCost(1)=%d not less than RelocCost(16)=%d", c1, c16)
	}
}

func TestRelocSingleColumnMatchesPaperLatency(t *testing.T) {
	// Section 4.2: relocating one column standalone takes two ACTIVATEs,
	// one RELOC and one PRECHARGE = 63.5 ns with slow subarrays. Our
	// discrete model: tRCD + tRELOC + tRCD + tRP cycles.
	ch := testChannel(t, 0, false)
	cost := ch.RelocStandaloneCost(1, false, false)
	ns := ch.Slow.NS(cost)
	if ns < 40 || ns > 70 {
		t.Errorf("standalone 1-column relocation = %.1f ns, want ~43-63.5 ns", ns)
	}
}

func TestRBMCostDistanceDependent(t *testing.T) {
	ch := testChannel(t, 16, false)
	if c1, c4 := ch.RBMCost(1, true), ch.RBMCost(4, true); c4 <= c1 {
		t.Errorf("LISA RBM cost not distance-dependent: 1 hop=%d, 4 hops=%d", c1, c4)
	}
}

func TestRelocateOccupiesBankAndCloses(t *testing.T) {
	ch := testChannel(t, 2, false)
	loc := Location{Row: 9}
	ch.Issue(&Command{Type: CmdACT, Loc: loc}, 0)
	cost := ch.RelocCost(16, true)
	end := ch.Relocate(loc, 100, cost, 16, false, 0)
	if end != 100+cost {
		t.Fatalf("Relocate end = %d, want %d", end, 100+cost)
	}
	// Bank must be closed and unavailable until end.
	if row, _ := ch.Bank(loc).Open(); row != -1 {
		t.Error("bank still open after relocation")
	}
	at, ok := ch.CanIssue(&Command{Type: CmdACT, Loc: loc}, 100)
	if !ok {
		t.Fatal("ACT structurally failed after relocation")
	}
	if at < end {
		t.Errorf("ACT allowed at %d during relocation (ends %d)", at, end)
	}
	if got := ch.CollectStats().RELOC; got != 16 {
		t.Errorf("RELOC count = %d, want 16", got)
	}
}

func TestStatsCollection(t *testing.T) {
	ch := testChannel(t, 0, false)
	loc := Location{Row: 1}
	ch.Issue(&Command{Type: CmdACT, Loc: loc}, 0)
	ch.Issue(&Command{Type: CmdRD, Loc: loc}, 20)
	preAt, _ := ch.CanIssue(&Command{Type: CmdPRE, Loc: loc}, 0)
	ch.Issue(&Command{Type: CmdPRE, Loc: loc}, preAt)
	s := ch.CollectStats()
	if s.ACT != 1 || s.RD != 1 || s.PRE != 1 {
		t.Errorf("stats = %+v, want 1 ACT / 1 RD / 1 PRE", s)
	}
	ch.ResetStats()
	if s := ch.CollectStats(); s.ACT != 0 || s.RD != 0 {
		t.Errorf("stats after reset = %+v", s)
	}
}

func TestLocationBankID(t *testing.T) {
	g := Default()
	seen := make(map[int]bool)
	for r := 0; r < g.Ranks; r++ {
		for grp := 0; grp < g.BankGroups; grp++ {
			for b := 0; b < g.BanksPerGroup; b++ {
				id := (Location{Rank: r, Group: grp, Bank: b}).BankID(g)
				if seen[id] {
					t.Fatalf("duplicate BankID %d", id)
				}
				seen[id] = true
				if id < 0 || id >= g.Ranks*g.BanksPerRank() {
					t.Fatalf("BankID %d out of range", id)
				}
			}
		}
	}
}

// Property: command timing windows are monotonic — issuing any legal
// command never moves a bank's earliest-issue times backwards.
func TestPropertyTimingMonotonic(t *testing.T) {
	f := func(rows []uint16) bool {
		ch := testChannel(t, 2, false)
		now := int64(0)
		for _, r := range rows {
			row := int(r) % ch.Geo.RowsPerBank()
			loc := Location{Row: row}
			bank := ch.Bank(loc)
			if open, _ := bank.Open(); open == -1 {
				at, ok := ch.CanIssue(&Command{Type: CmdACT, Loc: loc}, now)
				if !ok || at < now {
					return false
				}
				ch.Issue(&Command{Type: CmdACT, Loc: loc}, at)
				now = at
			} else {
				loc.Row = open
				rdAt, ok := ch.CanIssue(&Command{Type: CmdRD, Loc: loc}, now)
				if !ok || rdAt < now {
					return false
				}
				ch.Issue(&Command{Type: CmdRD, Loc: loc}, rdAt)
				preAt, ok := ch.CanIssue(&Command{Type: CmdPRE, Loc: loc}, rdAt)
				if !ok || preAt < rdAt {
					return false
				}
				ch.Issue(&Command{Type: CmdPRE, Loc: loc}, preAt)
				now = preAt
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the ACT->RD->PRE->ACT cycle of any row always costs at least
// tRC, for both slow and fast rows.
func TestPropertyRowCycleAtLeastTRC(t *testing.T) {
	f := func(row uint16, cache bool) bool {
		ch := testChannel(t, 2, false)
		loc := Location{Row: int(row) % 512, CacheRow: cache}
		tm := ch.Slow
		if cache {
			tm = ch.Fast
			loc.Row = int(row) % ch.Geo.CacheRowsPerBank()
		}
		a1, _ := ch.CanIssue(&Command{Type: CmdACT, Loc: loc}, 0)
		ch.Issue(&Command{Type: CmdACT, Loc: loc}, a1)
		p, _ := ch.CanIssue(&Command{Type: CmdPRE, Loc: loc}, a1)
		ch.Issue(&Command{Type: CmdPRE, Loc: loc}, p)
		a2, _ := ch.CanIssue(&Command{Type: CmdACT, Loc: loc}, p)
		return a2-a1 >= int64(tm.RAS+tm.RP) && a2-a1 >= int64(tm.RC)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPSMCostAndRelocateAll(t *testing.T) {
	ch := testChannel(t, 2, false)
	// PSM cost grows with block count and exceeds the FIGARO cost.
	c1, c16 := ch.PSMCost(1, true), ch.PSMCost(16, true)
	if c16 <= c1 {
		t.Errorf("PSM cost not increasing: %d vs %d", c1, c16)
	}
	if c16 <= ch.RelocCost(16, true) {
		t.Errorf("PSM (%d) not above FIGARO (%d) for 16 blocks", c16, ch.RelocCost(16, true))
	}
	// RelocateAll must block every bank in the channel.
	end := ch.RelocateAll(Location{Row: 3}, 50, c16, 16)
	for g := 0; g < ch.Geo.BankGroups; g++ {
		for b := 0; b < ch.Geo.BanksPerGroup; b++ {
			loc := Location{Group: g, Bank: b, Row: 1}
			at, ok := ch.CanIssue(&Command{Type: CmdACT, Loc: loc}, 50)
			if !ok {
				t.Fatalf("ACT structurally failed on bank %d.%d", g, b)
			}
			if at < end {
				t.Errorf("bank %d.%d usable at %d during PSM relocation (ends %d)", g, b, at, end)
			}
		}
	}
	if ch.NumPSMBlocks != 16 {
		t.Errorf("PSM blocks = %d, want 16", ch.NumPSMBlocks)
	}
}
