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

// TestManifestValidate: a manifest over a sorted fingerprint index
// validates, empty or not, and breaking any one of its rules is refused.
func TestManifestValidate(t *testing.T) {
	var matrix []string
	for seed := uint64(1); seed <= 6; seed++ {
		matrix = append(matrix, testFingerprint(seed).String())
	}
	slices.Sort(matrix)
	good := func(n int) *Manifest {
		return &Manifest{
			Format: ManifestFormatVersion, Engine: sim.EngineVersion,
			Fingerprints: slices.Clone(matrix[:n]),
		}
	}
	for n := 0; n <= len(matrix); n++ {
		if err := good(n).Validate(); err != nil {
			t.Fatalf("%d-run matrix: valid manifest rejected: %v", n, err)
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Manifest)
	}{
		{"format", func(m *Manifest) { m.Format = 1 }},
		{"engine", func(m *Manifest) { m.Engine = sim.EngineVersion + 1 }},
		{"unsorted", func(m *Manifest) { m.Fingerprints[0], m.Fingerprints[1] = m.Fingerprints[1], m.Fingerprints[0] }},
		{"non-hex", func(m *Manifest) { m.Fingerprints[len(m.Fingerprints)-1] = "zz" }},
	} {
		m := good(len(matrix))
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
		return &Manifest{Format: ManifestFormatVersion, Engine: sim.EngineVersion, Fingerprints: fps}
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
		{"unsorted", func(m *Manifest) {
			m.Fingerprints[0], m.Fingerprints[1] = m.Fingerprints[1], m.Fingerprints[0]
		}, ErrManifestFingerprint},
		{"non-hex", func(m *Manifest) { m.Fingerprints[1] = "zz-not-a-fingerprint" }, ErrManifestFingerprint},
		{"short-hex", func(m *Manifest) { m.Fingerprints[1] = "abcdef" }, ErrManifestFingerprint},
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

	// The manifest lands as manifest.json, only when valid, and is
	// invisible to the entry listing.
	if err := s.WriteManifest(&Manifest{}); !errors.Is(err, ErrManifestFormat) {
		t.Errorf("WriteManifest of an invalid manifest: %v, want ErrManifestFormat", err)
	}
	m := &Manifest{Format: ManifestFormatVersion, Engine: sim.EngineVersion, Fingerprints: fps}
	if err := s.WriteManifest(m); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
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
