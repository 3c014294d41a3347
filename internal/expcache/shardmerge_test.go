package expcache_test

// These tests drive the directories a figbench -shard run leaves (entries
// written by Cache.Put next to a shard manifest) through dispatch.Merge
// and read the result back through this package, so the entry and
// manifest formats stay assemblable. Every merge failure class is
// table-tested next to Merge itself, in internal/dispatch.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/expcache"
	"repro/internal/sim"
)

// shardMatrix returns n fabricated fingerprints in ascending order, the
// canonical full-matrix index a manifest describes.
func shardMatrix(n int) []sim.Fingerprint {
	fps := make([]sim.Fingerprint, n)
	for i := range fps {
		binary.BigEndian.PutUint64(fps[i][:8], uint64(i)*0x9e3779b97f4a7c15+1)
	}
	slices.SortFunc(fps, func(a, b sim.Fingerprint) int { return bytes.Compare(a[:], b[:]) })
	return fps
}

// shardResult is the result stored for index i of a matrix.
func shardResult(i int) sim.Result {
	return sim.Result{Preset: sim.FIGCacheFast, Workload: "mcf", Cycles: 1_000_000 + int64(i)}
}

// writeShard fills dir with shard k-of-n's entries of the matrix and its
// manifest, as a figbench -shard run would.
func writeShard(t *testing.T, dir string, matrix []sim.Fingerprint, k, n int) {
	t.Helper()
	c := expcache.New(dir)
	m := &expcache.Manifest{
		Format: expcache.ManifestFormatVersion, Engine: sim.EngineVersion,
		Scale: "test", Experiments: []string{"test"},
		Shard: k, NumShards: n,
	}
	for i, fp := range matrix {
		m.Fingerprints = append(m.Fingerprints, fp.String())
		if expcache.ShardOf(i, n) != k {
			continue
		}
		m.Assigned = append(m.Assigned, fp.String())
		if err := c.Put(fp, shardResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WriteManifest(m); err != nil {
		t.Fatal(err)
	}
}

// TestMergeRoundTrip is the happy path: two complete shards merge into a
// directory that serves every run of the matrix without recomputation and
// carries the 1-of-1 manifest of the whole matrix.
func TestMergeRoundTrip(t *testing.T) {
	matrix := shardMatrix(9)
	sh1, sh2, dst := t.TempDir(), t.TempDir(), filepath.Join(t.TempDir(), "merged")
	writeShard(t, sh1, matrix, 1, 2)
	writeShard(t, sh2, matrix, 2, 2)

	st, problems, err := dispatch.Merge(dst, []string{sh1, sh2})
	if err != nil || len(problems) != 0 {
		t.Fatalf("clean merge: problems %q, err %v", problems, err)
	}
	if !st.Complete || st.Done != len(matrix) || st.Total != len(matrix) {
		t.Errorf("status %+v, want %d of %d done", st, len(matrix), len(matrix))
	}
	c := expcache.New(dst)
	for i, fp := range matrix {
		res, ok := c.Get(fp)
		if !ok {
			t.Fatalf("merged cache misses %s", fp)
		}
		if res.Cycles != shardResult(i).Cycles {
			t.Fatalf("merged entry %d holds the wrong result", i)
		}
	}
	ms, err := expcache.ReadManifests(dst)
	if err != nil || len(ms) != 1 {
		t.Fatalf("merged dir holds %d manifests, %v; want 1", len(ms), err)
	}
	if m := ms[0]; m.Shard != 1 || m.NumShards != 1 || len(m.Fingerprints) != len(matrix) {
		t.Errorf("merged manifest is %dof%d over %d runs, want 1of1 over %d", m.Shard, m.NumShards, len(m.Fingerprints), len(matrix))
	}
}

// TestMergeRefusesMissingShard: merging one shard of three is reported
// incomplete and leaves a partial cache that claims no coverage; a later
// merge naming that directory and the missing shards completes it.
func TestMergeRefusesMissingShard(t *testing.T) {
	matrix := shardMatrix(8)
	sh1, sh2, sh3 := t.TempDir(), t.TempDir(), t.TempDir()
	dst := filepath.Join(t.TempDir(), "merged")
	writeShard(t, sh1, matrix, 1, 3)

	st, problems, err := dispatch.Merge(dst, []string{sh1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Complete || len(problems) != 1 || problems[0] != "incomplete: 3 of 8" {
		t.Fatalf("merging one shard of three: status %+v, problems %q; want incomplete: 3 of 8", st, problems)
	}
	if ms, err := expcache.ReadManifests(dst); err != nil || len(ms) != 0 {
		t.Errorf("incomplete merge wrote %d manifests, %v; want none", len(ms), err)
	}
	c := expcache.New(dst)
	for i, fp := range matrix {
		if _, ok := c.Get(fp); ok != (expcache.ShardOf(i, 3) == 1) {
			t.Errorf("partial cache serves %s = %v, want only shard 1's entries", fp, ok)
		}
	}

	writeShard(t, sh2, matrix, 2, 3)
	writeShard(t, sh3, matrix, 3, 3)
	if st, problems, err := dispatch.Merge(dst, []string{dst, sh2, sh3}); err != nil || len(problems) != 0 || !st.Complete {
		t.Fatalf("folding in the missing shards: status %+v, problems %q, err %v", st, problems, err)
	}
}

// TestMergeDetectsCorruptEntry: a truncated entry file is one problem line
// naming the file and the unparsable class, and its fingerprint stays
// uncovered, so the merge is also incomplete.
func TestMergeDetectsCorruptEntry(t *testing.T) {
	matrix := shardMatrix(6)
	sh1, sh2 := t.TempDir(), t.TempDir()
	writeShard(t, sh1, matrix, 1, 2)
	writeShard(t, sh2, matrix, 2, 2)
	victim := matrix[0] // matrix[0] is assigned to shard 1
	if err := os.WriteFile(filepath.Join(sh1, victim.String()+".json"), []byte(`{"format":1,"truncated`), 0o666); err != nil {
		t.Fatal(err)
	}

	dst := filepath.Join(t.TempDir(), "m")
	st, problems, err := dispatch.Merge(dst, []string{sh1, sh2})
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 2 || !strings.Contains(problems[0], victim.String()+".json") ||
		!strings.Contains(problems[0], expcache.ErrEntryUnparsable.Error()) || problems[1] != "incomplete: 5 of 6" {
		t.Errorf("problems = %q, want the corrupt file as unparsable, then incomplete: 5 of 6", problems)
	}
	if st.Complete {
		t.Error("merge with a corrupt entry reported complete")
	}
	if _, ok := expcache.New(dst).Get(victim); ok {
		t.Error("merged cache serves the corrupt entry")
	}
}

// TestMergeReportsNamedErrorReasons pins the problem text for rejected
// files to the named validation errors, so a user reading a refused merge
// sees WHY each file was rejected (wrong engine vs unparsable vs
// mismatched fingerprint), not just that it was.
func TestMergeReportsNamedErrorReasons(t *testing.T) {
	matrix := shardMatrix(3)
	src := t.TempDir()
	writeShard(t, src, matrix, 1, 1)

	// Turn one entry into a wrong-engine one.
	good, err := expcache.EncodeEntry(matrix[0], shardResult(0))
	if err != nil {
		t.Fatal(err)
	}
	wrongEngine := bytes.Replace(good, []byte(fmt.Sprintf(`"engine":%d`, sim.EngineVersion)), []byte(`"engine":999999`), 1)
	if bytes.Equal(wrongEngine, good) {
		t.Fatal("test setup: engine field not found in encoded entry")
	}
	if err := os.WriteFile(filepath.Join(src, matrix[0].String()+".json"), wrongEngine, 0o644); err != nil {
		t.Fatal(err)
	}
	_, problems, err := dispatch.Merge(filepath.Join(t.TempDir(), "m"), []string{src})
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) == 0 || !strings.Contains(problems[0], expcache.ErrEntryEngine.Error()) {
		t.Errorf("wrong-engine entry not reported via ErrEntryEngine: %q", problems)
	}

	// A manifest with a non-hex fingerprint in its index refuses the merge.
	if err := os.WriteFile(filepath.Join(src, "manifest-9of9.json"),
		[]byte(`{"format":1,"engine":`+fmt.Sprint(sim.EngineVersion)+`,"shard":9,"num_shards":9,"fingerprints":["nothex"],"assigned":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), "m")
	if _, _, err := dispatch.Merge(dst, []string{src}); !errors.Is(err, expcache.ErrManifestFingerprint) {
		t.Errorf("non-hex manifest index: Merge error = %v, want errors.Is(..., ErrManifestFingerprint)", err)
	}
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Error("refused merge wrote the destination")
	}
}
