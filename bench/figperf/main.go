// Command figperf is the benchmark of record of this repository. It
// drives the simulator through its public API in closed loops, checks
// every output, and prints every metric by name and unit: end-to-end
// host-time metrics from a timed run, per-layer metrics from a traced run
// that takes a CPU profile and records a span around every call into a
// layer. The last line of its output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// Usage:
//
//	figperf --workload solo-figcache --seed 1 --seconds 25 --trace 0
//	figperf --workload matrix-quick --trace 1 -spans spans.jsonl
//	figperf --workload mix8-figcache -out ledger.json
//	figperf -compare parent.json change.json
//
// A run is split into blocks, each a fresh child process of this binary
// running rounds for its share of the time, so every block starts on a
// fresh heap and has its own peak RSS. Host times are scaled to a
// reference host speed that a calibration kernel measures around every
// timed interval (hostspeed.go). bench/README.md describes the workloads,
// the metrics and the comparison protocol.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/sim"
)

func main() {
	if spec := os.Getenv(blockEnv); spec != "" {
		os.Exit(blockMain(spec))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options describe one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    string
	workDir  string
	spans    string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed, passed to the simulator as sim.Config.Seed")
	fs.Float64Var(&o.seconds, "seconds", 25, "how long the run measures")
	trace := fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.StringVar(&o.scale, "scale", "full", "workload size: full, or tiny for a smoke run of a few seconds")
	fs.StringVar(&o.workDir, "workdir", filepath.Join(".bench_build", "work"), "directory for the run's scratch files")
	fs.StringVar(&o.spans, "spans", "", "write the traced blocks' spans to this file, one JSON object per line")
	out := fs.String("out", "", "append the run's record to this ledger file")
	compare := fs.Bool("compare", false, "compare two ledgers against the bounds in ./BENCHMARK.json: figperf -compare PARENT.json CHANGE.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "figperf: -compare takes two ledger files")
			return 2
		}
		return runCompare(stdout, stderr, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || o.seconds <= 0 || o.workload == "" {
		fmt.Fprintln(stderr, "figperf: need -workload NAME, -seconds > 0 and -trace 0 or 1, and no arguments")
		fs.Usage()
		return 2
	}
	o.trace = *trace == 1
	rec, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(stderr, "figperf:", err)
		return 1
	}
	if *out != "" {
		if err := appendLedger(*out, rec); err != nil {
			fmt.Fprintln(stderr, "figperf:", err)
			return 1
		}
	}
	if err := printRecord(stdout, rec); err != nil {
		fmt.Fprintln(stderr, "figperf:", err)
		return 1
	}
	return 0
}

// record is one run as the ledger keeps it: the result line's fields plus
// what two runs are compared by.
type record struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Scale     string             `json:"scale"`
	Trace     bool               `json:"trace"`
	Rounds    int                `json:"rounds"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	Samples   map[string]int     `json:"samples,omitempty"`
	Digests   map[string]string  `json:"digests"`
	Model     map[string]float64 `json:"model"`
	// Wall holds unscaled wall-clock medians and the host speed the
	// end-to-end times were scaled by.
	Wall     map[string]float64 `json:"wall,omitempty"`
	Failures []string           `json:"failures,omitempty"`
}

// runWorkload runs the blocks of one workload one after another and
// merges them. In a traced run every second block is profiled, so the
// others measure the tracing overhead.
func runWorkload(o options) (*record, error) {
	if _, err := newLoop(o.workload, o.scale, o.seed); err != nil {
		return nil, err
	}
	sc := scales[o.scale]
	if err := os.MkdirAll(o.workDir, 0o777); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workDir, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var blocks []*blockResult
	for i := 0; i < sc.blocks; i++ {
		b, err := spawnBlock(exe, blockSpec{
			Workload: o.workload, Seed: o.seed, Scale: o.scale,
			Seconds: o.seconds / float64(sc.blocks), Profile: o.trace && i%2 == 1, WorkDir: dir,
		})
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", i, err)
		}
		blocks = append(blocks, b)
	}
	if o.spans != "" {
		if err := writeSpans(o.spans, blocks); err != nil {
			return nil, err
		}
	}
	s := summarize(blocks)
	rec := &record{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Scale: o.scale, Trace: o.trace,
		Rounds: s.rounds, Attempted: s.attempted, Failed: len(s.failures), Correct: len(s.failures) == 0,
		Digests: s.digests, Model: s.model, Failures: s.failures,
	}
	if o.trace {
		rec.Metrics = s.perLayerMetrics()
	} else {
		rec.Metrics, rec.Samples = s.endToEndMetrics()
		rec.Wall = s.wallClock()
	}
	return rec, nil
}

// spawnBlock runs one block in a child process and waits for it.
func spawnBlock(exe string, spec blockSpec) (*blockResult, error) {
	js, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), blockEnv+"="+string(js))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var b blockResult
	if err := json.Unmarshal(out, &b); err != nil {
		return nil, fmt.Errorf("decoding the block's result: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		b.PeakRSS = ru.Maxrss * 1024 // kilobytes on Linux
	}
	return &b, nil
}

// writeSpans writes every block's spans, one JSON object per line.
func writeSpans(path string, blocks []*blockResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i, b := range blocks {
		for _, sp := range b.Spans {
			if err := enc.Encode(struct {
				Block int `json:"block"`
				span
			}{i, sp}); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

// printRecord prints the run for a reader, then the result line.
func printRecord(w io.Writer, r *record) error {
	mode := "timed"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "figperf: %s seed=%d scale=%s %gs %s: %d rounds, %d of %d operations failed\n",
		r.Workload, r.Seed, r.Scale, r.Seconds, mode, r.Rounds, r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	for _, k := range sortedKeys(r.Digests) {
		fmt.Fprintf(w, "digest %s %s\n", k, r.Digests[k])
	}
	for _, k := range sortedKeys(r.Model) {
		fmt.Fprintf(w, "model %s %s\n", k, strconv.FormatFloat(r.Model[k], 'g', -1, 64))
	}
	for _, k := range sortedKeys(r.Wall) {
		fmt.Fprintf(w, "wall %s %s\n", k, strconv.FormatFloat(r.Wall[k], 'g', 6, 64))
	}
	for _, k := range sortedKeys(r.Metrics) {
		m := r.Metrics[k]
		n := ""
		if c, ok := r.Samples[k]; ok {
			n = fmt.Sprintf(" (%d samples)", c)
		}
		fmt.Fprintf(w, "metric %s %s %s%s\n", k, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit, n)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// hostInfo identifies the machine and build a ledger was measured on;
// absolute numbers do not carry over between hosts.
type hostInfo struct {
	NProc         int    `json:"nproc"`
	GoVersion     string `json:"go_version"`
	OS            string `json:"os"`
	Arch          string `json:"arch"`
	CPUModel      string `json:"cpu_model"`
	EngineVersion int    `json:"engine_version"`
}

func currentHost() hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		EngineVersion: sim.EngineVersion,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// ledger is a file of runs from one host: the perf history a change is
// compared against.
type ledger struct {
	Host hostInfo `json:"host"`
	Runs []record `json:"runs"`
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// appendLedger adds a run to the ledger at path, creating it with this
// host's description if it does not exist.
func appendLedger(path string, r *record) error {
	l, err := readLedger(path)
	if errors.Is(err, os.ErrNotExist) {
		l, err = &ledger{Host: currentHost()}, nil
	}
	if err != nil {
		return err
	}
	l.Runs = append(l.Runs, *r)
	data, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o666); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
