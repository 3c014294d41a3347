package harness

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/stats"
)

// enumerationBuilders is a representative experiment set: overlapping
// matrices (Table2's Base runs are a subset of Fig7's), multi-preset
// figures, and config-mutating sweeps.
func enumerationBuilders(r *Runner) []func() (*stats.Table, error) {
	return []func() (*stats.Table, error){r.Table2, r.Fig7, r.Fig8, r.Fig14}
}

// TestEnumerateJobsRunsNothing pins the plan-only contract: enumeration
// discovers a non-trivial matrix without simulating a single cycle or
// touching the result cache.
func TestEnumerateJobsRunsNothing(t *testing.T) {
	r := NewRunner(QuickScale())
	jobs, _, err := r.EnumerateJobs(enumerationBuilders(r)...)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) == 0 {
		t.Fatal("enumeration found no jobs")
	}
	if r.SimCycles() != 0 {
		t.Errorf("enumeration simulated %d cycles", r.SimCycles())
	}
	if st := r.CacheStats(); st.Hits()+st.Misses+st.Stores != 0 {
		t.Errorf("enumeration touched the result cache: %+v", st)
	}
}

// TestEnumerateJobsFingerprints pins the index EnumerateJobs returns
// over the whole catalog at quick scale: one fingerprint per job, each
// its job's Fingerprint, in strictly ascending order (the canonical
// order, without duplicates). BuildSpec, ShardManifest and the fleet
// worker use these fingerprints without hashing the jobs again.
func TestEnumerateJobsFingerprints(t *testing.T) {
	r := NewRunner(QuickScale())
	var builders []func() (*stats.Table, error)
	for _, e := range r.Catalog() {
		builders = append(builders, e.Run)
	}
	jobs, fps, err := r.EnumerateJobs(builders...)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) == 0 || len(fps) != len(jobs) {
		t.Fatalf("enumeration returned %d jobs and %d fingerprints", len(jobs), len(fps))
	}
	for i, cfg := range jobs {
		if fp := cfg.Fingerprint(); fps[i] != fp {
			t.Fatalf("fingerprint %d is %s, its job's is %s", i, fps[i], fp)
		}
		if i > 0 && bytes.Compare(fps[i-1][:], fps[i][:]) >= 0 {
			t.Fatalf("fingerprints not strictly ascending at %d: %s >= %s", i, fps[i-1], fps[i])
		}
	}
}

// TestEnumerateJobsStableAcrossOrder: the canonical index must not
// depend on the order experiments are enumerated in.
func TestEnumerateJobsStableAcrossOrder(t *testing.T) {
	r := NewRunner(QuickScale())
	_, forward, err := r.EnumerateJobs(enumerationBuilders(r)...)
	if err != nil {
		t.Fatal(err)
	}
	bs := enumerationBuilders(r)
	slices.Reverse(bs)
	_, backward, err := r.EnumerateJobs(bs...)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(forward, backward) {
		t.Fatalf("enumeration order changed the canonical index: %d jobs forward, %d backward", len(forward), len(backward))
	}
}
