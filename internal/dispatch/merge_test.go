package dispatch

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/expcache"
	"repro/internal/harness"
	"repro/internal/sim"
)

// writeShard fills dir with shard k-of-n's entries of the matrix fps and
// its manifest, as a figbench -shard run would.
func writeShard(t *testing.T, dir string, fps []string, entries map[string][]byte, k, n int) {
	t.Helper()
	store := expcache.NewDirStore(dir)
	m := &expcache.Manifest{
		Format: expcache.ManifestFormatVersion, Engine: sim.EngineVersion,
		Scale: "test", Experiments: []string{"test"},
		Shard: k, NumShards: n, Fingerprints: fps,
	}
	m.Assigned = m.ExpectedAssigned()
	for _, fp := range m.Assigned {
		if err := store.PutEntry(fp, entries[fp]); err != nil {
			t.Fatal(err)
		}
	}
	if err := expcache.New(dir).WriteManifest(m); err != nil {
		t.Fatal(err)
	}
}

// TestMerge covers every way a set of shard directories can fail to
// assemble. A merge that runs reports one problem line per rejected
// entry plus "incomplete" for an unfinished matrix, and leaves only
// validated in-matrix entries in dst. A refused merge writes nothing.
func TestMerge(t *testing.T) {
	fps, entries := testMatrix(t, 6)
	otherFPs, otherEntries := testMatrix(t, 8)
	var fp0, stray sim.Fingerprint
	fp0[0], stray[0] = 1, 0xee
	conflicting, err := expcache.EncodeEntry(fp0, sim.Result{Workload: "job0", Cycles: 9999})
	if err != nil {
		t.Fatal(err)
	}
	strayEntry, err := expcache.EncodeEntry(stray, sim.Result{Workload: "x"})
	if err != nil {
		t.Fatal(err)
	}
	wrongEngine := bytes.Replace(entries[fps[0]],
		[]byte(fmt.Sprintf(`"engine":%d`, sim.EngineVersion)), []byte(`"engine":999999`), 1)
	if bytes.Equal(wrongEngine, entries[fps[0]]) {
		t.Fatal("test setup: engine field not found in encoded entry")
	}
	write := func(t *testing.T, dir, name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name string
		// setup alters the filled shard directories a (1 of 2) and b
		// (2 of 2) and returns the sources to merge into dst.
		setup func(t *testing.T, a, b, dst string) []string
		// refused: Merge must return an error (wrapping wraps, when set)
		// and leave dst unwritten.
		refused bool
		wraps   error
		// problems holds one substring per expected problem line, in order.
		problems []string
		done     int
	}{
		{
			name: "missing-entry",
			setup: func(t *testing.T, a, b, dst string) []string {
				if err := os.Remove(filepath.Join(b, fps[1]+".json")); err != nil {
					t.Fatal(err)
				}
				return []string{a, b}
			},
			problems: []string{"incomplete: 5 of 6"},
			done:     5,
		},
		{
			name: "corrupt-entry",
			setup: func(t *testing.T, a, b, dst string) []string {
				write(t, a, fps[0]+".json", wrongEngine)
				return []string{a, b}
			},
			problems: []string{fps[0] + ".json: expcache: " + expcache.ErrEntryEngine.Error(), "incomplete: 5 of 6"},
			done:     5,
		},
		{
			name: "conflict",
			setup: func(t *testing.T, a, b, dst string) []string {
				write(t, b, fps[0]+".json", conflicting)
				return []string{a, b}
			},
			problems: []string{ErrConflict.Error()},
			done:     6,
		},
		{
			name: "extra-entry",
			setup: func(t *testing.T, a, b, dst string) []string {
				write(t, a, stray.String()+".json", strayEntry)
				return []string{a, b}
			},
			problems: []string{ErrOutsideMatrix.Error()},
			done:     6,
		},
		{
			name: "bad-manifest",
			setup: func(t *testing.T, a, b, dst string) []string {
				write(t, a, "manifest-9of9.json",
					[]byte(`{"format":1,"engine":`+fmt.Sprint(sim.EngineVersion)+`,"shard":9,"num_shards":9,"fingerprints":["nothex"],"assigned":[]}`))
				return []string{a, b}
			},
			refused: true,
			wraps:   expcache.ErrManifestFingerprint,
		},
		{
			name: "mismatched-matrices",
			setup: func(t *testing.T, a, b, dst string) []string {
				other := t.TempDir()
				writeShard(t, other, otherFPs, otherEntries, 2, 2)
				return []string{a, other}
			},
			refused: true,
		},
		{
			name: "no-manifest",
			setup: func(t *testing.T, a, b, dst string) []string {
				for _, m := range []string{filepath.Join(a, "manifest-1of2.json"), filepath.Join(b, "manifest-2of2.json")} {
					if err := os.Remove(m); err != nil {
						t.Fatal(err)
					}
				}
				return []string{a, b}
			},
			refused: true,
		},
		{
			// An incremental fold-in: dst holds the first half from an
			// earlier, incomplete merge and is named as a source again.
			name: "fold-into-dst",
			setup: func(t *testing.T, a, b, dst string) []string {
				st, problems, err := Merge(dst, []string{a})
				if err != nil || st.Complete || len(problems) != 1 {
					t.Fatalf("merging one half: %+v, %q, %v; want an incomplete merge", st, problems, err)
				}
				return []string{dst, b}
			},
			done: 6,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := t.TempDir(), t.TempDir()
			dst := filepath.Join(t.TempDir(), "merged")
			writeShard(t, a, fps, entries, 1, 2)
			writeShard(t, b, fps, entries, 2, 2)
			srcs := tc.setup(t, a, b, dst)

			st, problems, err := Merge(dst, srcs)
			if tc.refused {
				if err == nil || (tc.wraps != nil && !errors.Is(err, tc.wraps)) {
					t.Fatalf("Merge error = %v, want a refusal wrapping %v", err, tc.wraps)
				}
				if _, statErr := os.Stat(dst); !os.IsNotExist(statErr) {
					t.Error("refused merge wrote the destination")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(problems) != len(tc.problems) {
				t.Fatalf("problems = %q, want %d lines matching %q", problems, len(tc.problems), tc.problems)
			}
			for i, want := range tc.problems {
				if !strings.Contains(problems[i], want) {
					t.Errorf("problem %d = %q, want it to contain %q", i, problems[i], want)
				}
			}
			if st.Done != tc.done || st.Total != len(fps) || st.Complete != (tc.done == len(fps)) {
				t.Errorf("status %+v, want %d of %d done", st, tc.done, len(fps))
			}
			// dst holds the accepted bytes of in-matrix entries (so the
			// first writer of a conflict), plus the manifest once complete.
			got := dirContents(t, dst)
			if _, ok := got["manifest-1of1.json"]; ok != st.Complete {
				t.Errorf("manifest-1of1.json written = %v, want %v", ok, st.Complete)
			}
			delete(got, "manifest-1of1.json")
			if len(got) != tc.done {
				t.Errorf("dst holds %d entries, want %d", len(got), tc.done)
			}
			for name, data := range got {
				if want, ok := entries[strings.TrimSuffix(name, ".json")]; !ok || data != string(want) {
					t.Errorf("dst holds %s, which is not an accepted matrix entry", name)
				}
			}
		})
	}
}

// TestShardsMergeToSoloDirectory is the static-shard twin of
// TestDispatchConvergesUnderFaults: two figbench -shard halves of the
// matrix, merged, must give a directory byte-identical to a solo run,
// manifest included, whether both halves are merged at once or the
// second is folded into the first half's incomplete merge.
func TestShardsMergeToSoloDirectory(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the matrix three times")
	}
	halves := []string{filepath.Join(t.TempDir(), "shard1"), filepath.Join(t.TempDir(), "shard2")}
	for k := 1; k <= 2; k++ {
		cache := expcache.New(halves[k-1])
		r := harness.NewRunnerWithCache(chaosScale, cache, false)
		spec, jobs, _, err := BuildSpec(r, chaosExperiments)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.RunJobs(harness.ShardJobs(jobs, k, 2)); err != nil {
			t.Fatal(err)
		}
		if err := cache.WriteManifest(r.ShardManifest(jobs, k, 2, spec.Experiments)); err != nil {
			t.Fatal(err)
		}
	}
	solo := soloCacheDir(t, chaosExperiments)

	partial := filepath.Join(t.TempDir(), "partial")
	st, problems, err := Merge(partial, halves[:1])
	if err != nil {
		t.Fatal(err)
	}
	if st.Complete || len(problems) != 1 || !strings.HasPrefix(problems[0], "incomplete: ") {
		t.Fatalf("merging one half: status %+v, problems %q; want incomplete", st, problems)
	}

	both := filepath.Join(t.TempDir(), "both")
	if st, problems, err := Merge(both, halves); err != nil || len(problems) != 0 || !st.Complete {
		t.Fatalf("merging both halves: status %+v, problems %q, err %v", st, problems, err)
	}
	compareDirs(t, both, solo)

	if st, problems, err := Merge(partial, []string{partial, halves[1]}); err != nil || len(problems) != 0 || !st.Complete {
		t.Fatalf("folding the second half in: status %+v, problems %q, err %v", st, problems, err)
	}
	compareDirs(t, partial, solo)
}
