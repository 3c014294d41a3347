package harness

import (
	"testing"

	"repro/internal/stats"
)

// TestCustomNamedWorkloads runs the custom experiment over two named
// benchmarks through the standard pipeline, and checks their rows render
// in the order given and the whole table is reproducible.
func TestCustomNamedWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation matrix in -short mode")
	}
	ws, err := ParseCustomWorkloads([]string{"mcf", "gcc"})
	if err != nil {
		t.Fatal(err)
	}
	r := quickRunner()
	tab, err := r.Custom(ws)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.Render()
	if len(tab.Rows) != 2 || tab.Rows[0][0] != "mcf" || tab.Rows[1][0] != "gcc" {
		t.Fatalf("custom rows are not mcf then gcc:\n%s", out)
	}

	// A second runner over the same inputs renders identical bytes.
	tab2, err := quickRunner().Custom(ws)
	if err != nil {
		t.Fatal(err)
	}
	if tab2.Render() != out {
		t.Errorf("custom table not reproducible:\n first:\n%s\n second:\n%s", out, tab2.Render())
	}
}

func TestCustomRejectsEmptyAndUnknown(t *testing.T) {
	if _, err := quickRunner().Custom(nil); err == nil {
		t.Error("Custom accepted an empty workload list")
	}
	if _, err := ParseCustomWorkloads([]string{"nosuch"}); err == nil {
		t.Error("ParseCustomWorkloads accepted an unknown workload")
	}
}

// TestCustomEnumerates checks the custom experiment participates in
// plan-only job enumeration without running any simulation.
func TestCustomEnumerates(t *testing.T) {
	ws, err := ParseCustomWorkloads([]string{"mcf"})
	if err != nil {
		t.Fatal(err)
	}
	r := quickRunner()
	jobs, err := r.EnumerateJobs(func() (*stats.Table, error) { return r.Custom(ws) })
	if err != nil {
		t.Fatal(err)
	}
	// One workload, six presets.
	if len(jobs) != 6 {
		t.Fatalf("enumerated %d jobs, want 6", len(jobs))
	}
	if st := r.CacheStats(); st.Stores != 0 {
		t.Errorf("enumeration computed %d runs; planning must not simulate", st.Stores)
	}
}
