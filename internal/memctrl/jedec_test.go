package memctrl

import (
	"testing"

	"repro/internal/dram"
)

// streamReq is one request of a hand-built stream: a read or write to
// a location of rank 0, entering the controller at bus cycle at.
type streamReq struct {
	at                      int64
	write                   bool
	group, bank, row, block int
}

// runStream drives a controller over a fresh channel with the given
// timing until every request of reqs has been served, and returns the
// channel's command trace.
func runStream(t *testing.T, timing dram.Timing, reqs []streamReq) []dram.CommandTrace {
	t.Helper()
	ch, err := dram.NewChannel(dram.Default(), timing, timing.Fast(dram.PaperFastScale()), false)
	if err != nil {
		t.Fatal(err)
	}
	ch.TraceOn = true
	c := NewController(0, Config{}, ch, nil)
	served := 0
	c.Release = func(*Request) { served++ }
	next := 0
	for now := int64(0); served < len(reqs); now++ {
		if now > reqs[len(reqs)-1].at+1_000 {
			t.Fatalf("%d of %d requests served by cycle %d", served, len(reqs), now)
		}
		for ; next < len(reqs) && reqs[next].at == now; next++ {
			r := reqs[next]
			loc := dram.Location{Group: r.group, Bank: r.bank, Row: r.row, Block: r.block}
			c.Enqueue(&Request{Loc: loc, IsWrite: r.write}, now)
		}
		c.Tick(now, func(int64, uint64) {})
	}
	return ch.Trace
}

// TestValidatorCatchesWeakenedChannel proves that dram.ValidateTrace
// catches a broken channel, with no source mutated. Each row runs a
// controller over a channel whose timing has one parameter weakened, and
// the validator, given the nominal DDR4 timing, must report the rule the
// parameter sets. The row's request stream makes that parameter bind: on
// the unweakened channel a command issues exactly at its bound, which
// the test checks by validating that trace against the bound one cycle
// longer.
//
// The channel spaces every ACT pair by tRRD_L and every write-to-read
// turnaround by tWTR_L, across bank groups too, so tRRD_S and tWTR_S
// never bind on it; and with every ACT pair tRRD_L apart, four ACTs
// already span tFAW. Those three rows start from a channel that applies
// the _S value across bank groups, as DDR4 does, by setting its _L value
// to the _S value, and keep every ACT pair or turnaround of their stream
// in two bank groups.
func TestValidatorCatchesWeakenedChannel(t *testing.T) {
	rd := func(at int64, group, bank, row, block int) streamReq {
		return streamReq{at: at, group: group, bank: bank, row: row, block: block}
	}
	wr := func(at int64, group, bank, row int) streamReq {
		return streamReq{at: at, write: true, group: group, bank: bank, row: row}
	}
	sToL := func(t *dram.Timing) { t.RRDL = t.RRDS }
	// Four reads to one open row and a conflict: the last read pushes
	// the precharge past tRAS, so tRTP and then tRP bind.
	burstThenConflict := []streamReq{rd(0, 0, 0, 1, 0), rd(0, 0, 0, 1, 1), rd(0, 0, 0, 1, 2), rd(0, 0, 0, 1, 3), rd(0, 0, 0, 2, 0)}
	cases := []struct {
		rule   string
		param  func(*dram.Timing) *int // the bound rule checks
		base   func(*dram.Timing)      // the unweakened channel's change to DDR4, if any
		weaken func(*dram.Timing)
		reqs   []streamReq
	}{
		// Row hits in bank group 0 around one in group 1: the second hit
		// in group 0 waits tCCD_S after the group-1 read.
		{"tCCD_S", func(t *dram.Timing) *int { return &t.CCDS }, nil, func(t *dram.Timing) { t.CCDS-- },
			[]streamReq{rd(0, 0, 0, 1, 0), rd(0, 1, 0, 1, 0), rd(0, 0, 0, 1, 1)}},
		{"tCCD_L", func(t *dram.Timing) *int { return &t.CCDL }, nil, func(t *dram.Timing) { t.CCDL-- },
			[]streamReq{rd(0, 0, 0, 1, 0), rd(0, 0, 0, 1, 1)}},
		{"tRRD_S", func(t *dram.Timing) *int { return &t.RRDS }, sToL, func(t *dram.Timing) { t.RRDL-- },
			[]streamReq{rd(0, 0, 0, 1, 0), rd(0, 1, 0, 1, 0)}},
		{"tRRD_L", func(t *dram.Timing) *int { return &t.RRDL }, nil, func(t *dram.Timing) { t.RRDL-- },
			[]streamReq{rd(0, 0, 0, 1, 0), rd(0, 0, 1, 1, 0)}},
		// Five ACTs, one per bank group and a fifth back in group 0. The
		// third read issues at tFAW-1, ahead of any ACT, so the channel's
		// tFAW is cut by two cycles for the fifth ACT to move.
		{"tFAW", func(t *dram.Timing) *int { return &t.FAW }, sToL, func(t *dram.Timing) { t.FAW -= 2 },
			[]streamReq{rd(0, 0, 0, 1, 0), rd(0, 1, 0, 1, 0), rd(0, 2, 0, 1, 0), rd(0, 3, 0, 1, 0), rd(0, 0, 1, 1, 0)}},
		{"tRCD", func(t *dram.Timing) *int { return &t.RCD }, nil, func(t *dram.Timing) { t.RCD-- },
			[]streamReq{rd(0, 0, 0, 1, 0)}},
		{"tRP", func(t *dram.Timing) *int { return &t.RP }, nil, func(t *dram.Timing) { t.RP-- }, burstThenConflict},
		{"tRAS", func(t *dram.Timing) *int { return &t.RAS }, nil, func(t *dram.Timing) { t.RAS-- },
			[]streamReq{rd(0, 0, 0, 1, 0), rd(0, 0, 0, 2, 0)}},
		// Two writes to one bank: the conflict's precharge waits tWR
		// after the first write's data.
		{"tWR", func(t *dram.Timing) *int { return &t.WR }, nil, func(t *dram.Timing) { t.WR-- },
			[]streamReq{wr(0, 0, 0, 1), wr(0, 0, 0, 2)}},
		// A write, then a read that arrives after it issued, to another
		// bank of the same bank group or of another one.
		{"tWTR_S", func(t *dram.Timing) *int { return &t.WTRS }, func(t *dram.Timing) { t.WTRL = t.WTRS }, func(t *dram.Timing) { t.WTRL-- },
			[]streamReq{wr(0, 0, 0, 1), rd(12, 1, 0, 1, 0)}},
		{"tWTR_L", func(t *dram.Timing) *int { return &t.WTRL }, nil, func(t *dram.Timing) { t.WTRL-- },
			[]streamReq{wr(0, 0, 0, 1), rd(12, 0, 1, 1, 0)}},
		{"tRTP", func(t *dram.Timing) *int { return &t.RTP }, nil, func(t *dram.Timing) { t.RTP-- }, burstThenConflict},
		// A read arriving just after the first refresh waits out tRFC.
		{"tRFC", func(t *dram.Timing) *int { return &t.RFC }, nil, func(t *dram.Timing) { t.RFC-- },
			[]streamReq{rd(int64(dram.DDR4().REFI)+1, 0, 0, 1, 0)}},
	}
	nominal := dram.DDR4()
	validate := func(timing dram.Timing, trace []dram.CommandTrace) []dram.Violation {
		return dram.ValidateTrace(dram.Default(), timing, timing.Fast(dram.PaperFastScale()), false, trace)
	}
	reports := func(vs []dram.Violation, rule string) bool {
		for _, v := range vs {
			if v.Constraint == rule {
				return true
			}
		}
		return false
	}
	for _, c := range cases {
		t.Run(c.rule, func(t *testing.T) {
			chanT := nominal
			if c.base != nil {
				c.base(&chanT)
			}
			trace := runStream(t, chanT, c.reqs)
			if vs := validate(nominal, trace); len(vs) != 0 {
				t.Fatalf("unweakened channel breaks DDR4: %v", vs)
			}
			longer := nominal
			*c.param(&longer)++
			if !reports(validate(longer, trace), c.rule) {
				t.Fatalf("%s does not bind: no command of the unweakened run issues at its bound\n%v", c.rule, trace)
			}
			c.weaken(&chanT)
			if vs := validate(nominal, runStream(t, chanT, c.reqs)); !reports(vs, c.rule) {
				t.Errorf("channel with %s weakened: validator reports %v, want %s", c.rule, vs, c.rule)
			}
		})
	}
}
