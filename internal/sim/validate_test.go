package sim

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/workload"
)

// TestCommandTracesObeyJEDEC runs every preset on a warm workload with
// command tracing enabled and validates the full command stream against
// the JEDEC timing rules with the independent post-hoc checker. This is
// the simulator's strongest correctness net: any scheduling path that
// slips a command past the issue-time checks is caught here.
func TestCommandTracesObeyJEDEC(t *testing.T) {
	if testing.Short() {
		t.Skip("trace validation in -short mode")
	}
	spec, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	spec.Bubbles = 4
	spec.HotSegments = 2560
	spec.HotFraction = 0.95
	mix := workload.Mix{Name: "warm", Apps: workload.Sources(spec)}

	for _, p := range Presets() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			cfg := DefaultConfig(p, mix)
			cfg.TargetInsts = 40_000
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, ch := range s.channels {
				ch.TraceOn = true
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			relocs := 0
			for i, ch := range s.channels {
				if len(ch.Trace) == 0 {
					t.Fatalf("channel %d recorded no commands", i)
				}
				for _, tr := range ch.Trace {
					if tr.Cmd.Type == dram.CmdRELOC || tr.Cmd.Type == dram.CmdRBM {
						relocs++
					}
				}
			}
			// A relocating preset's bursts must reach the trace, or the
			// validator never rebases a bank behind one and this test
			// passes without checking the commands around them.
			if p != Base && p != LLDRAM && relocs == 0 {
				t.Fatal("relocating preset recorded no RELOC/RBM commands")
			}
			checkJEDEC(t, s)
		})
	}
}

// checkJEDEC validates every channel's recorded command trace against
// the JEDEC timing rules, with no constraint exempt, and fails the test
// on the first channel with a violation.
func checkJEDEC(t *testing.T, s *System) {
	t.Helper()
	for i, ch := range s.channels {
		vs := dram.ValidateTrace(ch.Geo, ch.Slow, ch.Fast, s.cfg.Preset == LLDRAM, ch.Trace)
		if len(vs) == 0 {
			continue
		}
		for _, v := range vs[:min(len(vs), 5)] {
			t.Errorf("channel %d: %v", i, v)
		}
		t.Fatalf("channel %d: %d violations in %d commands", i, len(vs), len(ch.Trace))
	}
}
