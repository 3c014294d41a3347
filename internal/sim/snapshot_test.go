package sim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

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
