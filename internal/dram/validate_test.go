package dram

import "testing"

func validateArgs(t *testing.T, ch *Channel) []Violation {
	t.Helper()
	return ValidateTrace(ch.Geo, ch.Slow, ch.Fast, false, ch.Trace)
}

func TestValidateCleanSequence(t *testing.T) {
	ch := testChannel(t, 0, false)
	ch.TraceOn = true
	loc := Location{Row: 10}
	ch.Issue(&Command{Type: CmdACT, Loc: loc}, 0)
	rd, _ := ch.CanIssue(&Command{Type: CmdRD, Loc: loc}, 0)
	ch.Issue(&Command{Type: CmdRD, Loc: loc}, rd)
	pre, _ := ch.CanIssue(&Command{Type: CmdPRE, Loc: loc}, rd)
	ch.Issue(&Command{Type: CmdPRE, Loc: loc}, pre)
	if vs := validateArgs(t, ch); len(vs) != 0 {
		t.Fatalf("clean sequence flagged: %v", vs)
	}
}

func TestValidateCatchesEarlyRead(t *testing.T) {
	trace := []CommandTrace{
		{At: 0, Cmd: Command{Type: CmdACT, Loc: Location{Row: 5}}},
		{At: 3, Cmd: Command{Type: CmdRD, Loc: Location{Row: 5}}}, // < tRCD
	}
	slow := DDR4()
	vs := ValidateTrace(Default(), slow, slow.Fast(PaperFastScale()), false, trace)
	if len(vs) == 0 {
		t.Fatal("tRCD violation not caught")
	}
	if vs[0].Constraint != "tRCD" {
		t.Errorf("constraint = %s, want tRCD", vs[0].Constraint)
	}
}

func TestValidateCatchesEarlyPrecharge(t *testing.T) {
	trace := []CommandTrace{
		{At: 0, Cmd: Command{Type: CmdACT, Loc: Location{Row: 5}}},
		{At: 10, Cmd: Command{Type: CmdPRE, Loc: Location{Row: 5}}}, // < tRAS (28)
	}
	slow := DDR4()
	vs := ValidateTrace(Default(), slow, slow.Fast(PaperFastScale()), false, trace)
	found := false
	for _, v := range vs {
		if v.Constraint == "tRAS" {
			found = true
		}
	}
	if !found {
		t.Fatalf("tRAS violation not caught: %v", vs)
	}
}

func TestValidateCatchesWrongRowColumn(t *testing.T) {
	slow := DDR4()
	trace := []CommandTrace{
		{At: 0, Cmd: Command{Type: CmdACT, Loc: Location{Row: 5}}},
		{At: int64(slow.RCD), Cmd: Command{Type: CmdRD, Loc: Location{Row: 6}}},
	}
	vs := ValidateTrace(Default(), slow, slow.Fast(PaperFastScale()), false, trace)
	found := false
	for _, v := range vs {
		if v.Constraint == "row-open" {
			found = true
		}
	}
	if !found {
		t.Fatalf("row-open violation not caught: %v", vs)
	}
}

func TestValidateCatchesActOnOpenBank(t *testing.T) {
	slow := DDR4()
	trace := []CommandTrace{
		{At: 0, Cmd: Command{Type: CmdACT, Loc: Location{Row: 5}}},
		{At: 100, Cmd: Command{Type: CmdACT, Loc: Location{Row: 6}}},
	}
	vs := ValidateTrace(Default(), slow, slow.Fast(PaperFastScale()), false, trace)
	found := false
	for _, v := range vs {
		if v.Constraint == "bank-closed" {
			found = true
		}
	}
	if !found {
		t.Fatalf("double activation not caught: %v", vs)
	}
}

func TestValidateCatchesRefWithOpenBank(t *testing.T) {
	slow := DDR4()
	trace := []CommandTrace{
		{At: 0, Cmd: Command{Type: CmdACT, Loc: Location{Row: 5}}},
		{At: 100, Cmd: Command{Type: CmdREF, Loc: Location{Rank: 0}}},
	}
	vs := ValidateTrace(Default(), slow, slow.Fast(PaperFastScale()), false, trace)
	found := false
	for _, v := range vs {
		if v.Constraint == "all-precharged" {
			found = true
		}
	}
	if !found {
		t.Fatalf("REF-with-open-bank not caught: %v", vs)
	}
}

func TestValidateCatchesFAW(t *testing.T) {
	slow := DDR4()
	var trace []CommandTrace
	// Five ACTs to five banks, 4 cycles apart: satisfies tRRD_S but
	// violates tFAW (20).
	for i := 0; i < 5; i++ {
		trace = append(trace, CommandTrace{
			At:  int64(i * 4),
			Cmd: Command{Type: CmdACT, Loc: Location{Group: i % 4, Bank: i / 4, Row: 1}},
		})
	}
	vs := ValidateTrace(Default(), slow, slow.Fast(PaperFastScale()), false, trace)
	found := false
	for _, v := range vs {
		if v.Constraint == "tFAW" {
			found = true
		}
	}
	if !found {
		t.Fatalf("tFAW violation not caught: %v", vs)
	}
}

// TestValidateBankGroupAndRefreshRules checks the same-bank-group (_L)
// rules and the refresh deadline on hand-built traces: each rule is
// reported on a trace that breaks it by one cycle, and not on the same
// trace with the command moved onto its bound.
func TestValidateBankGroupAndRefreshRules(t *testing.T) {
	slow := DDR4()
	refi := int64(slow.REFI)
	act := func(at int64, group, bank int) CommandTrace {
		return CommandTrace{At: at, Cmd: Command{Type: CmdACT, Loc: Location{Group: group, Bank: bank, Row: 1}}}
	}
	col := func(at int64, typ CmdType, group, bank int) CommandTrace {
		return CommandTrace{At: at, Cmd: Command{Type: typ, Loc: Location{Group: group, Bank: bank, Row: 1}}}
	}
	ref := func(at int64) CommandTrace { return CommandTrace{At: at, Cmd: Command{Type: CmdREF}} }
	cases := []struct {
		rule string
		// trace builds the trace with its last command at cycle at. At
		// bound it is legal; one cycle short of bound, or past it for a
		// deadline, it breaks rule.
		trace func(at int64) []CommandTrace
		bound int64
	}{
		// Two banks of one bank group: tRRD_S (4) is met, tRRD_L (5) is not.
		{"tRRD_L", func(at int64) []CommandTrace { return []CommandTrace{act(0, 0, 0), act(at, 0, 1)} }, int64(slow.RRDL)},
		// Reads to two open banks of one group: tCCD_S apart, not tCCD_L.
		{"tCCD_L", func(at int64) []CommandTrace {
			return []CommandTrace{act(0, 0, 0), act(5, 0, 1), col(12, CmdRD, 0, 0), col(at, CmdRD, 0, 1)}
		}, 12 + int64(slow.CCDL)},
		// A read after a write in one group: tWTR_S after the write data
		// (cycle 24), not tWTR_L.
		{"tWTR_L", func(at int64) []CommandTrace {
			return []CommandTrace{act(0, 0, 0), act(5, 0, 1), col(11, CmdWR, 0, 0), col(at, CmdRD, 0, 1)}
		}, 11 + int64(slow.WriteLatency()+slow.WTRL)},
		// The first REF, due at tREFI, eight intervals late.
		{"refresh-deadline", func(at int64) []CommandTrace { return []CommandTrace{ref(at)} }, 9 * refi},
		// A trace that ends with no REF past the first one's deadline.
		{"refresh-deadline", func(at int64) []CommandTrace { return []CommandTrace{act(at, 0, 0)} }, 9 * refi},
		// One REF on time, then none by the end of the trace.
		{"refresh-deadline", func(at int64) []CommandTrace { return []CommandTrace{ref(refi), act(at, 0, 0)} }, 10 * refi},
	}
	names := func(vs []Violation) map[string]bool {
		m := map[string]bool{}
		for _, v := range vs {
			m[v.Constraint] = true
		}
		return m
	}
	for _, c := range cases {
		bad := c.bound - 1
		if c.rule == "refresh-deadline" {
			bad = c.bound + 1
		}
		if vs := ValidateTrace(Default(), slow, slow.Fast(PaperFastScale()), false, c.trace(c.bound)); len(vs) != 0 {
			t.Errorf("%s: trace on its bound flagged: %v", c.rule, vs)
		}
		if vs := ValidateTrace(Default(), slow, slow.Fast(PaperFastScale()), false, c.trace(bad)); !names(vs)[c.rule] {
			t.Errorf("%s: trace breaking it by one cycle not caught: %v", c.rule, vs)
		}
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Constraint: "tRCD", At: 10, Prev: 5,
		Cmd: Command{Type: CmdRD, Loc: Location{Row: 3}}, Detail: "too early"}
	s := v.String()
	for _, want := range []string{"tRCD", "cycle 10", "too early"} {
		if !contains(s, want) {
			t.Errorf("violation string missing %q: %s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
