package sim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ev"
	"repro/internal/fgss"
	"repro/internal/workload"
)

// snapshotAt builds a system, runs it to k total retired instructions,
// and returns the system plus its snapshot bytes.
func snapshotAt(t *testing.T, cfg Config, k int64) (*System, []byte) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntilRetired(k)
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return s, buf.Bytes()
}

// TestRestoreRefusesMismatchedConfig checks that a snapshot can only be
// restored into a System built for the exact configuration that wrote
// it: a different seed changes the fingerprint, and restore is refused
// at the header with a clear error.
func TestRestoreRefusesMismatchedConfig(t *testing.T) {
	cfg := DefaultConfig(FIGCacheFast, smallMix(t, "mcf"))
	cfg.TargetInsts = 10_000
	_, snap := snapshotAt(t, cfg, 3_000)

	other := cfg
	other.Seed = cfg.Seed + 1
	sys, err := New(other)
	if err != nil {
		t.Fatal(err)
	}
	err = sys.Restore(bytes.NewReader(snap))
	if err == nil {
		t.Fatal("restoring a snapshot into a different config succeeded, want fingerprint refusal")
	}
	if !strings.Contains(err.Error(), "restore refused") {
		t.Errorf("fingerprint mismatch error = %q, want it to mention refusal", err)
	}
}

// TestRestoreRefusesTamperedStream checks the container-level
// defenses: a flipped engine-version byte and a truncated stream are
// both rejected instead of decoding garbage.
func TestRestoreRefusesTamperedStream(t *testing.T) {
	cfg := DefaultConfig(Base, smallMix(t, "mcf"))
	cfg.TargetInsts = 10_000
	_, snap := snapshotAt(t, cfg, 3_000)

	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	tampered := bytes.Clone(snap)
	tampered[8]++ // EngineVersion low byte
	if err := sys.Restore(bytes.NewReader(tampered)); err == nil ||
		!strings.Contains(err.Error(), "engine version") {
		t.Errorf("tampered engine version: err = %v, want engine-version refusal", err)
	}

	if err := sys.Restore(bytes.NewReader(snap[:len(snap)/2])); err == nil {
		t.Error("restoring a truncated snapshot succeeded, want decode error")
	}
}

// TestRestoreRewindsDirtySystem restores a checkpoint into a System
// that has already run *past* it: every piece of mid-flight state —
// queued requests, outstanding MSHRs, pending events, open rows — is
// dirty and different, and restore must rewind all of it so the re-run
// finishes bit-identically to the uninterrupted run.
func TestRestoreRewindsDirtySystem(t *testing.T) {
	cfg := DefaultConfig(FIGCacheFast, warmMix(t))
	cfg.TargetInsts = 40_000

	want := runWith(t, cfg, false)
	sys, snap := snapshotAt(t, cfg, 10_000)
	sys.RunUntilRetired(25_000) // drive well past the checkpoint
	if err := sys.Restore(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	got, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rewound run diverges from uninterrupted run:\n want: %+v\n  got: %+v", want, got)
	}
}

// BenchmarkSnapshotRoundTrip measures the cost of one checkpoint cycle
// — serializing a warm default-scale (1M-instruction) system and
// restoring it in place — plus its allocation footprint and snapshot
// size.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	spec, err := workload.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(FIGCacheFast, workload.Mix{Name: "mcf", Apps: workload.Sources(spec)})
	cfg.TargetInsts = 1_000_000
	sys, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sys.RunUntilRetired(cfg.TargetInsts / 4) // warm every structure first
	var buf bytes.Buffer
	if err := sys.Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(buf.Len()), "snapshot-bytes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := sys.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
		if err := sys.Restore(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// eventsSection returns a reader positioned in a hand-built events
// section for s: the sequence counter, one heap event carrying tok, and
// s's lanes, empty.
func eventsSection(t *testing.T, s *System, tok ev.Token) *fgss.Reader {
	t.Helper()
	var buf bytes.Buffer
	w := fgss.NewWriter(&buf, 1, [32]byte{})
	w.Begin(snapSecEvents)
	w.I64(1) // seq
	w.Int(1)
	snapEvent(w, event{at: 5, seq: 1, tok: tok})
	w.Int(len(s.events.lanes))
	for range s.events.lanes {
		w.Int(0)
	}
	w.End()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := fgss.NewReader(&buf, 1, [32]byte{})
	if err != nil {
		t.Fatal(err)
	}
	r.Section(snapSecEvents)
	return r
}

// TestRestoreRejectsBadTokens checks that a snapshot holding an event
// token Dispatch cannot execute on a one-core System — an unknown or
// no-action kind, a core or cache node that does not exist, a CoreSlot
// slot outside the 256-entry window — in the event queue or in an
// MSHR's waiter list is refused at restore instead of panicking when
// the token fires. The event queue is fed hand-built sections; the
// waiter case puts the token in a real L1 miss and restores the
// System's snapshot. A valid token passes both paths.
func TestRestoreRejectsBadTokens(t *testing.T) {
	cfg := DefaultConfig(Base, smallMix(t, "mcf"))
	cfg.TargetInsts = 10_000
	cases := []struct {
		name    string
		tok     ev.Token
		wantErr string
	}{
		{"valid core slot", ev.Token{Kind: ev.CoreSlot, ID: 0, Arg: 255}, ""},
		{"unknown kind", ev.Token{Kind: 9, Arg: 1}, "unknown event token kind 9"},
		{"no-action kind", ev.Token{Kind: ev.None}, "unknown event token kind 0"},
		{"core out of range", ev.Token{Kind: ev.CoreSlot, ID: 1, Arg: 3}, "names core 1 of 1"},
		{"negative core", ev.Token{Kind: ev.CoreSlot, ID: -1, Arg: 3}, "names core -1 of 1"},
		{"slot outside the window", ev.Token{Kind: ev.CoreSlot, ID: 0, Arg: 256}, "slot 256 of core 0's 256-entry window"},
		{"fill for a missing node", ev.Token{Kind: ev.MSHRFill, ID: 3, Arg: 0x40}, "names cache node 3 of 3"},
		{"start for a negative node", ev.Token{Kind: ev.MSHRStart, ID: -1, Arg: 0x40}, "names cache node -1 of 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := eventsSection(t, s, tc.tok)
			s.events.restore(r, s.checkToken)
			r.EndSection()
			if err := r.Close(); (err == nil) != (tc.wantErr == "") || err != nil && !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("events section: restore error = %v, want %q", err, tc.wantErr)
			}

			// An L1 miss with a free MSHR queues its completion token as
			// the MSHR's first waiter, unless it is the zero token.
			if tc.tok.IsZero() {
				return
			}
			s, err = New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !s.hier.L1s[0].Access(0x1000, false, tc.tok) {
				t.Fatal("a fresh L1 refused an access")
			}
			var buf bytes.Buffer
			if err := s.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			fresh, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = fresh.Restore(&buf)
			if (err == nil) != (tc.wantErr == "") || err != nil && !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("MSHR waiter: restore error = %v, want %q", err, tc.wantErr)
			}
		})
	}
}
