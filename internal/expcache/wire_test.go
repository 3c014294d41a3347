package expcache

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sim"
)

// TestEncodeDecodeEntryRoundTrip pins the wire contract: EncodeEntry
// bytes decode back to the same result, and are byte-identical to what
// the disk cache writes — the property that makes a fleet-assembled
// cache directory diffable against a solo run's.
func TestEncodeDecodeEntryRoundTrip(t *testing.T) {
	fp := testFingerprint(17)
	want := testResult(5)
	data, err := EncodeEntry(fp, want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEntry(data, fp.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", got, want)
	}

	dir := t.TempDir()
	c := New(dir)
	if err := c.Put(fp, want); err != nil {
		t.Fatal(err)
	}
	disk, err := os.ReadFile(filepath.Join(dir, fp.String()+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk, data) {
		t.Errorf("EncodeEntry bytes differ from the disk cache's:\n wire %s\n disk %s", data, disk)
	}
}

// TestDecodeEntryNamedErrors: every failure class carries its named
// error, assertable with errors.Is — the contract the dispatch
// coordinator's upload rejections are built on.
func TestDecodeEntryNamedErrors(t *testing.T) {
	fp := testFingerprint(18)
	valid, err := EncodeEntry(fp, testResult(1))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		fp   string
		want error
	}{
		{"garbage", []byte("{{{"), fp.String(), ErrEntryUnparsable},
		{"empty", nil, fp.String(), ErrEntryUnparsable},
		{"format", mutateEntry(t, valid, func(e *entry) { e.Format++ }), fp.String(), ErrEntryFormat},
		{"engine", mutateEntry(t, valid, func(e *entry) { e.Engine++ }), fp.String(), ErrEntryEngine},
		{"renamed", valid, testFingerprint(99).String(), ErrEntryFingerprint},
		// Valid stamps but no result payload: hand-crafted garbage that
		// the pre-pointer decode accepted as a zero result. Found by the
		// fuzz corpus; must be rejected, not cached.
		{"no-result", mutateEntry(t, valid, func(e *entry) { e.Result = nil }), fp.String(), ErrEntryNoResult},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeEntry(tc.data, tc.fp); !errors.Is(err, tc.want) {
				t.Errorf("DecodeEntry error = %v, want errors.Is(..., %v)", err, tc.want)
			}
		})
	}
}

// TestManifestValidate: the manifest the positional rule gives each shard
// of every split validates, and breaking any one of its rules is refused.
func TestManifestValidate(t *testing.T) {
	var matrix []string
	for seed := uint64(1); seed <= 6; seed++ {
		matrix = append(matrix, testFingerprint(seed).String())
	}
	slices.Sort(matrix)
	good := func(k, n int) *Manifest {
		m := &Manifest{
			Format: ManifestFormatVersion, Engine: sim.EngineVersion,
			Shard: k, NumShards: n, Fingerprints: slices.Clone(matrix),
		}
		for i, fp := range matrix {
			if ShardOf(i, n) == k {
				m.Assigned = append(m.Assigned, fp)
			}
		}
		return m
	}
	for n := 1; n <= len(matrix); n++ {
		for k := 1; k <= n; k++ {
			if err := good(k, n).Validate(); err != nil {
				t.Fatalf("shard %d of %d: valid manifest rejected: %v", k, n, err)
			}
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Manifest)
	}{
		{"format", func(m *Manifest) { m.Format = 99 }},
		{"engine", func(m *Manifest) { m.Engine = sim.EngineVersion + 1 }},
		{"shard zero", func(m *Manifest) { m.Shard = 0 }},
		{"shard beyond", func(m *Manifest) { m.Shard = 3 }},
		{"unsorted", func(m *Manifest) { m.Fingerprints[0], m.Fingerprints[1] = m.Fingerprints[1], m.Fingerprints[0] }},
		{"assignment size", func(m *Manifest) { m.Assigned = m.Assigned[:1] }},
		{"assignment rule", func(m *Manifest) { m.Assigned[0] = m.Fingerprints[1] }},
	} {
		m := good(1, 2)
		tc.mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: invalid manifest accepted", tc.name)
		}
	}
}

// TestManifestValidateNamedErrors: manifest validation failures are
// classified by named error, including the fuzz-found case of a
// well-shaped manifest whose index holds non-fingerprint strings.
func TestManifestValidateNamedErrors(t *testing.T) {
	valid := func() *Manifest {
		fps := []string{
			testFingerprint(1).String(),
			testFingerprint(2).String(),
		}
		if fps[0] > fps[1] {
			fps[0], fps[1] = fps[1], fps[0]
		}
		m := &Manifest{
			Format: ManifestFormatVersion, Engine: sim.EngineVersion,
			Shard: 1, NumShards: 1, Fingerprints: fps,
		}
		m.Assigned = m.ExpectedAssigned()
		return m
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("reference manifest invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Manifest)
		want   error
	}{
		{"format", func(m *Manifest) { m.Format++ }, ErrManifestFormat},
		{"engine", func(m *Manifest) { m.Engine++ }, ErrManifestEngine},
		{"shard-zero", func(m *Manifest) { m.NumShards = 0 }, ErrManifestShard},
		{"shard-range", func(m *Manifest) { m.Shard = 5 }, ErrManifestShard},
		{"unsorted", func(m *Manifest) {
			m.Fingerprints[0], m.Fingerprints[1] = m.Fingerprints[1], m.Fingerprints[0]
		}, ErrManifestFingerprint},
		{"non-hex", func(m *Manifest) { m.Fingerprints[1] = "zz-not-a-fingerprint" }, ErrManifestFingerprint},
		{"short-hex", func(m *Manifest) { m.Fingerprints[1] = "abcdef" }, ErrManifestFingerprint},
		{"assignment-count", func(m *Manifest) { m.Assigned = m.Assigned[:1] }, ErrManifestAssignment},
		{"assignment-drift", func(m *Manifest) {
			m.Assigned = append([]string{}, m.Assigned...)
			m.Assigned[0] = m.Fingerprints[1]
		}, ErrManifestAssignment},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := valid()
			tc.mutate(m)
			if err := m.Validate(); !errors.Is(err, tc.want) {
				t.Errorf("Validate error = %v, want errors.Is(..., %v)", err, tc.want)
			}
		})
	}
}

func TestShardOfPartitionsBalanced(t *testing.T) {
	for n := 1; n <= 7; n++ {
		counts := make([]int, n+1)
		for i := 0; i < 100; i++ {
			k := ShardOf(i, n)
			if k < 1 || k > n {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", i, n, k)
			}
			counts[k]++
		}
		min, max := 100, 0
		for k := 1; k <= n; k++ {
			if counts[k] < min {
				min = counts[k]
			}
			if counts[k] > max {
				max = counts[k]
			}
		}
		if max-min > 1 {
			t.Errorf("n=%d: unbalanced shard sizes %v", n, counts[1:])
		}
	}
}

// TestDirStore exercises the storage seam: puts land atomically as
// entry files a Cache can serve, list order is ascending, and malformed
// keys are rejected before touching the filesystem.
func TestDirStore(t *testing.T) {
	dir := t.TempDir()
	s := NewDirStore(dir)

	if fps, err := s.ListEntries(); err != nil || len(fps) != 0 {
		t.Fatalf("fresh store lists %v, %v", fps, err)
	}
	if _, ok, err := s.GetEntry(testFingerprint(1).String()); ok || err != nil {
		t.Fatalf("fresh store served an entry: ok=%v err=%v", ok, err)
	}

	// Puts round-trip and list in ascending fingerprint order.
	var fps []string
	for _, seed := range []uint64{7, 3} {
		fp := testFingerprint(seed)
		data, err := EncodeEntry(fp, testResult(int64(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutEntry(fp.String(), data); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fp.String())
	}
	if fps[0] > fps[1] {
		fps[0], fps[1] = fps[1], fps[0]
	}
	got, err := s.ListEntries()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, fps) {
		t.Errorf("ListEntries = %v, want %v", got, fps)
	}

	// A store-written entry is a disk hit for a Cache over the same dir.
	fp := testFingerprint(7)
	c := New(dir)
	if res, ok := c.Get(fp); !ok || res.Cycles != testResult(7).Cycles {
		t.Errorf("cache over store dir missed: ok=%v res=%+v", ok, res)
	}

	// Bad keys never touch the filesystem.
	if err := s.PutEntry("../escape", []byte("x")); err == nil {
		t.Error("PutEntry accepted a non-fingerprint key")
	}
	if _, ok, err := s.GetEntry("../escape"); ok || err != nil {
		t.Errorf("GetEntry on a bad key: ok=%v err=%v", ok, err)
	}

	// Non-entry files (manifests, temp droppings) are invisible.
	if err := os.WriteFile(filepath.Join(dir, "manifest-1of1.json"), []byte("{}"), 0o666); err != nil {
		t.Fatal(err)
	}
	got, err = s.ListEntries()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, fps) {
		t.Errorf("ListEntries after manifest write = %v, want %v", got, fps)
	}
}
