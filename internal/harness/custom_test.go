package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

// recordTestTrace writes a small mcf-derived binary trace file.
func recordTestTrace(t *testing.T, dir string) string {
	t.Helper()
	spec, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	spec.FootprintBytes = 64 << 20
	spec.HotSegments = 2048
	gen, err := workload.NewGenerator(spec, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "custom.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const n = 1_000
	tw, err := workload.NewTraceWriter(f, gen.Span(), n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tw.Write(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCustomTraceWorkload runs the custom experiment over a recorded
// trace and a synthetic benchmark through the standard pipeline, and
// checks the trace rows render and the whole table is reproducible.
func TestCustomTraceWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation matrix in -short mode")
	}
	path := recordTestTrace(t, t.TempDir())
	ws, err := ParseCustomWorkloads([]string{"trace:" + path, "gcc"})
	if err != nil {
		t.Fatal(err)
	}
	r := quickRunner()
	tab, err := r.Custom(ws)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.Render()
	if !strings.Contains(out, "trace:custom.trc") || !strings.Contains(out, "gcc") {
		t.Fatalf("custom table missing workload rows:\n%s", out)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("custom rows = %d, want 2:\n%s", len(tab.Rows), out)
	}

	// A second runner over the same inputs renders identical bytes —
	// recorded-trace replay is deterministic through the whole harness.
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
// plan-only job enumeration without running any simulation: trace-backed
// jobs are fingerprinted from cached content hashes, no replayer is
// constructed.
func TestCustomEnumerates(t *testing.T) {
	path := recordTestTrace(t, t.TempDir())
	ws, err := ParseCustomWorkloads([]string{"trace:" + path})
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
