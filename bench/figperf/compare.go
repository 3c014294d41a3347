package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchmarkFile is the part of BENCHMARK.json figperf reads: the
// workloads, and the metrics with their bounds.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// Verdicts of a comparison, per workload and end-to-end metric.
const (
	improved   = "improved"
	noWorse    = "no worse"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judge compares the change's runs b against the parent's runs a of one
// metric. A side whose quartile spread exceeds the bound cannot resolve
// the bound, so the verdict is unresolved unless every run of one side
// beats every run of the other. Otherwise a median worse by more than the
// bound is a regression, and a gain needs at least ten seed-paired runs,
// nine tenths of them won, and a median gap wider than the parent's
// quartile spread.
func judge(a, b []float64, pairs [][2]float64, higherBetter bool, bound float64) string {
	better := func(x, y float64) bool { return x > y == higherBetter && x != y }
	ma, mb := median(a), median(b)
	qa, qb := quantiles(a, 4), quantiles(b, 4)
	if ma <= 0 || mb <= 0 {
		return unresolved
	}
	if (qa[2]-qa[0])/ma > bound || (qb[2]-qb[0])/mb > bound {
		switch {
		case better(worst(b, higherBetter), best(a, higherBetter)):
			return improved
		case better(worst(a, higherBetter), best(b, higherBetter)):
			return regressed
		}
		return unresolved
	}
	worse := (mb - ma) / ma
	if higherBetter {
		worse = -worse
	}
	if worse > bound {
		return regressed
	}
	wins := 0
	for _, p := range pairs {
		if better(p[1], p[0]) {
			wins++
		}
	}
	gap := mb - ma
	if gap < 0 {
		gap = -gap
	}
	if worse < 0 && len(pairs) >= 10 && wins*10 >= 9*len(pairs) && gap > qa[2]-qa[0] {
		return improved
	}
	return noWorse
}

func best(xs []float64, higherBetter bool) float64 {
	if higherBetter {
		return slices.Max(xs)
	}
	return slices.Min(xs)
}

func worst(xs []float64, higherBetter bool) float64 { return best(xs, !higherBetter) }

// timedRuns returns a ledger's timed runs of a workload.
func timedRuns(l *ledger, workload string) []record {
	var out []record
	for _, r := range l.Runs {
		if r.Workload == workload && !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

// runCompare prints, per workload and end-to-end metric, each ledger's
// median and quartiles and a verdict against the metric's bound, then
// every simulated statistic or digest that differs between runs of the
// same seed. It returns 1 when anything regressed, is unresolved, failed
// or differs.
func runCompare(stdout, stderr io.Writer, benchPath, aPath, bPath string) int {
	bf, err := loadBenchmark(benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "figperf:", err)
		return 2
	}
	a, err := readLedger(aPath)
	if err == nil {
		var b *ledger
		if b, err = readLedger(bPath); err == nil {
			if compareLedgers(stdout, bf, a, b) {
				return 0
			}
			return 1
		}
	}
	fmt.Fprintln(stderr, "figperf:", err)
	return 2
}

func compareLedgers(w io.Writer, bf *benchmarkFile, a, b *ledger) (ok bool) {
	ok = true
	fmt.Fprintf(w, "A: %s, %d CPUs, %s, engine %d\n", a.Host.CPUModel, a.Host.NProc, a.Host.GoVersion, a.Host.EngineVersion)
	fmt.Fprintf(w, "B: %s, %d CPUs, %s, engine %d\n", b.Host.CPUModel, b.Host.NProc, b.Host.GoVersion, b.Host.EngineVersion)
	for _, wl := range bf.Workloads {
		ra, rb := timedRuns(a, wl.Name), timedRuns(b, wl.Name)
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%s: %d timed runs in A, %d in B: nothing to compare\n", wl.Name, len(ra), len(rb))
			ok = false
			continue
		}
		for _, m := range bf.EndToEnd {
			var va, vb []float64
			for _, r := range ra {
				va = append(va, r.Metrics[m.Name].Value)
			}
			for _, r := range rb {
				vb = append(vb, r.Metrics[m.Name].Value)
			}
			var pairs [][2]float64
			for _, x := range ra {
				for _, y := range rb {
					if x.Seed == y.Seed {
						pairs = append(pairs, [2]float64{x.Metrics[m.Name].Value, y.Metrics[m.Name].Value})
						break
					}
				}
			}
			v := judge(va, vb, pairs, m.Better == "higher", m.Bound)
			qa, qb := quantiles(va, 4), quantiles(vb, 4)
			ma, mb := median(va), median(vb)
			change := 0.0
			if ma != 0 {
				change = 100 * (mb - ma) / ma
			}
			fmt.Fprintf(w, "%-14s %-22s A %.5g [%.5g, %.5g] n=%d  B %.5g [%.5g, %.5g] n=%d  %+.1f%% (bound %.0f%%)  %s\n",
				wl.Name, m.Name, ma, qa[0], qa[2], len(va), mb, qb[0], qb[2], len(vb), change, 100*m.Bound, v)
			if v == regressed || v == unresolved {
				ok = false
			}
		}
		for side, runs := range map[string][]record{"A": ra, "B": rb} {
			for _, r := range runs {
				if r.Failed > 0 {
					fmt.Fprintf(w, "%s: %s seed %d: %d of %d operations failed\n", wl.Name, side, r.Seed, r.Failed, r.Attempted)
					ok = false
				}
			}
		}
		if !sameOutputs(w, wl.Name, ra, rb) {
			ok = false
		}
	}
	return ok
}

// sameOutputs lists the digests and simulated statistics that differ
// between the two sides' runs of the same seed.
func sameOutputs(w io.Writer, workload string, ra, rb []record) bool {
	same := true
	for _, x := range ra {
		for _, y := range rb {
			if x.Seed != y.Seed {
				continue
			}
			for _, k := range sortedKeys(union(x.Digests, y.Digests)) {
				if x.Digests[k] != y.Digests[k] {
					fmt.Fprintf(w, "%s seed %d: digest %s differs: %.16s vs %.16s\n", workload, x.Seed, k, x.Digests[k], y.Digests[k])
					same = false
				}
			}
			for _, k := range sortedKeys(union(x.Model, y.Model)) {
				if x.Model[k] != y.Model[k] {
					fmt.Fprintf(w, "%s seed %d: %s differs: %g vs %g\n", workload, x.Seed, k, x.Model[k], y.Model[k])
					same = false
				}
			}
			break
		}
	}
	return same
}

func union[V any](a, b map[string]V) map[string]V {
	out := make(map[string]V, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}
