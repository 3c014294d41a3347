package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for figperf as the child process
// of a block, the way runWorkload starts it.
func TestMain(m *testing.M) {
	if spec := os.Getenv(blockEnv); spec != "" {
		os.Exit(blockMain(spec))
	}
	os.Exit(m.Run())
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestTinyRunsEmitTheDeclaredMetrics runs every workload of
// BENCHMARK.json at tiny scale, timed and traced, and holds the output to
// the declaration: exactly the declared metrics with their units, no
// failed operation, and digests that repeat across the two invocations.
func TestTinyRunsEmitTheDeclaredMetrics(t *testing.T) {
	bf, err := loadBenchmark(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) > 16 || len(bf.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics declared, at most 16 and 128 allowed", len(bf.EndToEnd), len(bf.PerLayer))
	}
	endToEndUnits, perLayerUnits := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		endToEndUnits[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		perLayerUnits[m.Name] = m.Unit
	}
	seen := map[string]bool{}
	for _, names := range []map[string]string{endToEndUnits, perLayerUnits} {
		for n := range names {
			if !metricName.MatchString(n) || seen[n] {
				t.Errorf("metric name %q is malformed or declared twice", n)
			}
			seen[n] = true
		}
	}
	if len(seen) != len(bf.EndToEnd)+len(bf.PerLayer) {
		t.Errorf("BENCHMARK.json declares a metric name twice")
	}
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(declared, workloadNames) {
		t.Fatalf("BENCHMARK.json declares workloads %v, figperf runs %v", declared, workloadNames)
	}

	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var digests map[string]string
			for _, trace := range []bool{false, true} {
				rec, err := runWorkload(options{
					workload: name, seed: 1, seconds: 0.2, trace: trace, scale: "tiny", workDir: t.TempDir(),
				})
				if err != nil {
					t.Fatal(err)
				}
				units := endToEndUnits
				if trace {
					units = perLayerUnits
				}
				checkResultLine(t, rec, units)
				if rec.Failed != 0 || !rec.Correct {
					t.Errorf("trace=%v: %d of %d operations failed: %v", trace, rec.Failed, rec.Attempted, rec.Failures)
				}
				for n, m := range rec.Metrics {
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
					}
				}
				if len(rec.Digests) == 0 {
					t.Errorf("trace=%v: no output digests", trace)
				}
				if digests == nil {
					digests = rec.Digests
				} else if !reflect.DeepEqual(digests, rec.Digests) {
					t.Errorf("digests differ between the timed and the traced invocation:\n%v\n%v", digests, rec.Digests)
				}
			}
		})
	}
}

// checkResultLine prints the record and checks its last line: one JSON
// object with exactly the result keys, carrying exactly the metrics units
// declares, each with its declared unit.
func checkResultLine(t *testing.T, rec *record, units map[string]string) {
	t.Helper()
	var out bytes.Buffer
	if err := printRecord(&out, rec); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last output line is not a JSON object: %v", err)
	}
	if got := strings.Join(sortedKeys(line), ","); got != "attempted,correct,failed,metrics" {
		t.Errorf("result line has keys %s", got)
	}
	var metrics map[string]metric
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for n, m := range metrics {
		if u, ok := units[n]; !ok {
			t.Errorf("metric %s is emitted but not declared", n)
		} else if u != m.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", n, m.Unit, u)
		}
	}
	for n := range units {
		if _, ok := metrics[n]; !ok {
			t.Errorf("declared metric %s is not emitted", n)
		}
	}
}

// TestCorruptEntryFailsTheWarmPass damages a cached entry between the cold
// and the warm pass: the warm pass must recompute it, and that must count
// as a failed operation.
func TestCorruptEntryFailsTheWarmPass(t *testing.T) {
	lp, err := newLoop("matrix-quick", "tiny", 1)
	if err != nil {
		t.Fatal(err)
	}
	ml := lp.(*matrixLoop)
	ml.corrupt = func(dir string) {
		entries, err := readEntries(dir)
		if err != nil || len(entries) == 0 {
			t.Fatalf("no entries to corrupt: %v", err)
		}
		fp := sortedKeys(entries)[0]
		if err := os.WriteFile(filepath.Join(dir, fp+".json"), []byte(`{"format":`), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	runtime.LockOSThread() // as runBlock does, for the thread clock
	defer runtime.UnlockOSThread()
	b := newBlock(blockSpec{WorkDir: t.TempDir()}, ml.threads())
	if err := ml.round(b); err != nil {
		t.Fatal(err)
	}
	if len(b.Failures) != 1 || !strings.HasPrefix(b.Failures[0], "warm pass:") {
		t.Fatalf("failures after corrupting an entry: %q, want one failed warm pass", b.Failures)
	}
}

func TestQuantilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) and n=10 on [1..4].
	for _, c := range []struct {
		xs   []float64
		n    int
		want []float64
	}{
		{[]float64{16, 1, 8, 2, 4}, 4, []float64{1.5, 4, 12}},
		{[]float64{1, 2, 3, 4}, 10, []float64{0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5}},
	} {
		got := quantiles(c.xs, c.n)
		for i := range got {
			if d := got[i] - c.want[i]; d > 1e-12 || d < -1e-12 {
				t.Errorf("quantiles(%v, %d) = %v, want %v", c.xs, c.n, got, c.want)
				break
			}
		}
	}
}

func TestJudge(t *testing.T) {
	steady := func(med float64) []float64 {
		return []float64{med * 0.99, med * 0.995, med, med, med * 1.005, med * 1.01, med, med * 0.998, med * 1.002, med}
	}
	pairs := func(a, b []float64) [][2]float64 {
		var p [][2]float64
		for i := range a {
			p = append(p, [2]float64{a[i], b[i]})
		}
		return p
	}
	noisy := []float64{50, 150, 60, 140, 100, 100, 70, 130, 90, 110}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"same", steady(100), steady(100), true, noWorse},
		{"slightly worse", steady(100), steady(95), true, noWorse},
		{"much worse", steady(100), steady(80), true, regressed},
		{"much worse, lower is better", steady(100), steady(120), false, regressed},
		{"clearly better", steady(100), steady(110), true, improved},
		{"too noisy", steady(100), noisy, true, unresolved},
		{"noisy but every run better", noisy, steady(1000), true, improved},
	} {
		if got := judge(c.a, c.b, pairs(c.a, c.b), c.higher, 0.1); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
