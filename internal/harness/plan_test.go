package harness

import (
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
	jobs, err := r.EnumerateJobs(enumerationBuilders(r)...)
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
	// Canonical order: ascending fingerprints, no duplicates.
	for i := 1; i < len(jobs); i++ {
		a, b := jobs[i-1].Fingerprint().String(), jobs[i].Fingerprint().String()
		if a >= b {
			t.Fatalf("jobs not in strict fingerprint order at %d: %s >= %s", i, a, b)
		}
	}
}

// TestEnumerateJobsStableAcrossOrder: the canonical index must not
// depend on the order experiments are enumerated in.
func TestEnumerateJobsStableAcrossOrder(t *testing.T) {
	r := NewRunner(QuickScale())
	forward, err := r.EnumerateJobs(enumerationBuilders(r)...)
	if err != nil {
		t.Fatal(err)
	}
	bs := enumerationBuilders(r)
	for i, j := 0, len(bs)-1; i < j; i, j = i+1, j-1 {
		bs[i], bs[j] = bs[j], bs[i]
	}
	backward, err := r.EnumerateJobs(bs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(forward) != len(backward) {
		t.Fatalf("enumeration order changed the matrix size: %d vs %d", len(forward), len(backward))
	}
	for i := range forward {
		if forward[i].Fingerprint() != backward[i].Fingerprint() {
			t.Fatalf("enumeration order changed the canonical index at %d", i)
		}
	}
}
