package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/bench/profile"
)

// blockEnv carries a blockSpec to a child process: a process started with
// it set runs one block and writes its blockResult to standard output.
const blockEnv = "FIGPERF_BLOCK"

// blockSpec is one block of a run: a fresh process that runs closed-loop
// rounds of one workload for about Seconds.
type blockSpec struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Scale    string  `json:"scale"`
	Seconds  float64 `json:"seconds"`
	Profile  bool    `json:"profile"`
	WorkDir  string  `json:"work_dir"`
}

// blockResult is what a block reports back. Samples hold one value per
// timed operation, Counts are sums over the block, Model holds the
// deterministic simulated statistics of one round, and Digests the
// output digests every round must reproduce.
type blockResult struct {
	Profiled  bool                 `json:"profiled"`
	Rounds    int                  `json:"rounds"`
	Attempted int                  `json:"attempted"`
	Failures  []string             `json:"failures"`
	Samples   map[string][]float64 `json:"samples"`
	Counts    map[string]float64   `json:"counts"`
	Model     map[string]float64   `json:"model"`
	Digests   map[string]string    `json:"digests"`
	// Prof maps a layer to the CPU nanoseconds the block's profile
	// attributes to it, plus "total"; empty unless the block was profiled.
	Prof  map[string]int64 `json:"prof"`
	Spans []span           `json:"spans"`
	// PeakRSS is the block process's peak resident set, filled in by the
	// parent from the child's resource usage.
	PeakRSS int64 `json:"-"`
}

// block is a running block: its result plus the tracer timing every call
// the benchmark makes into the simulator's layers.
type block struct {
	blockResult
	tr      *tracer
	cal     *calibrator
	workDir string
}

// hostScale runs f, which keeps threads goroutines busy, between two
// samples of the host's speed taken on as many threads. f times its work
// on now, the clock for that many threads (hostspeed.go); hostScale
// returns the factor that scales those times to the reference speed, the
// mean of the two samples.
func (b *block) hostScale(threads int, f func(now func() time.Duration)) float64 {
	before := b.cal.speed(threads)
	f(clockFor(threads))
	after := b.cal.speed(threads)
	s := (before + after) / 2
	b.sample("host_speed", s)
	return s
}

// newBlock starts a block whose workload keeps threads goroutines busy.
func newBlock(spec blockSpec, threads int) *block {
	return &block{
		blockResult: blockResult{
			Profiled: spec.Profile,
			Samples:  map[string][]float64{},
			Counts:   map[string]float64{},
			Digests:  map[string]string{},
			Prof:     map[string]int64{},
		},
		tr:      &tracer{record: spec.Profile, origin: time.Now()},
		cal:     newCalibrator(threads),
		workDir: spec.WorkDir,
	}
}

func (b *block) sample(name string, vs ...float64) { b.Samples[name] = append(b.Samples[name], vs...) }

func (b *block) add(name string, v float64) { b.Counts[name] += v }

// op records one attempted operation, failed when err is non-nil.
func (b *block) op(what string, err error) bool {
	b.Attempted++
	if err != nil {
		b.Failures = append(b.Failures, fmt.Sprintf("%s: %v", what, err))
		return false
	}
	return true
}

// digest records the output digest for key, or reports a mismatch with
// the digest an earlier round produced for it.
func (b *block) digest(key, sum string) error {
	if prev, ok := b.Digests[key]; ok && prev != sum {
		return fmt.Errorf("digest %.16s differs from earlier round's %.16s", sum, prev)
	}
	b.Digests[key] = sum
	return nil
}

// span is one timed call from the benchmark into a layer. Times are
// nanoseconds since the block started; Parent 0 is a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer times calls. Spans are kept only when record is set (traced
// blocks), so timed blocks pay two clock reads per call and nothing more.
// Safe for concurrent use: fleet workers time their HTTP calls through it.
type tracer struct {
	record bool
	origin time.Time
	mu     sync.Mutex
	nextID int
	spans  []span
}

type timer struct {
	tr     *tracer
	id     int
	parent int
	name   string
	start  time.Time
}

func (t *tracer) start(name string, parent int) timer {
	tm := timer{tr: t, parent: parent, name: name}
	if t.record {
		t.mu.Lock()
		t.nextID++
		tm.id = t.nextID
		t.mu.Unlock()
	}
	tm.start = time.Now()
	return tm
}

// stop ends the call and returns its duration.
func (tm timer) stop() time.Duration {
	end := time.Now()
	t := tm.tr
	if t.record {
		t.mu.Lock()
		t.spans = append(t.spans, span{
			ID: tm.id, Parent: tm.parent, Name: tm.name,
			Start: tm.start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
		})
		t.mu.Unlock()
	}
	return end.Sub(tm.start)
}

// loop is one workload's closed loop: round runs the next unit of work as
// soon as the previous one returned, micro runs the workload's standalone
// layer measurements once per traced block, and threads is how many
// goroutines a round keeps busy.
type loop interface {
	round(b *block) error
	micro(b *block)
	threads() int
}

// blockMain runs the block described by specJSON and writes its result
// to standard output, returning the process exit code.
func blockMain(specJSON string) int {
	var spec blockSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "figperf: block spec:", err)
		return 1
	}
	res, err := runBlock(spec)
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "figperf: block:", err)
		return 1
	}
	return 0
}

// runBlock runs rounds until the block's time is spent: a round starts
// only if the mean round so far still fits, and the first always runs.
func runBlock(spec blockSpec) (*blockResult, error) {
	lp, err := newLoop(spec.Workload, spec.Scale, spec.Seed)
	if err != nil {
		return nil, err
	}
	runtime.LockOSThread() // the block's own work is timed on its thread's CPU clock (hostspeed.go)
	defer runtime.UnlockOSThread()
	b := newBlock(spec, lp.threads())
	var prof bytes.Buffer
	if spec.Profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	slice := time.Duration(spec.Seconds * float64(time.Second))
	start := time.Now()
	for b.Rounds == 0 || time.Since(start)*time.Duration(b.Rounds+1)/time.Duration(b.Rounds) <= slice {
		if err := lp.round(b); err != nil {
			if spec.Profile {
				pprof.StopCPUProfile()
			}
			return nil, err
		}
		b.Rounds++
	}
	runtime.ReadMemStats(&after)
	b.add("alloc_bytes", float64(after.TotalAlloc-before.TotalAlloc))
	b.add("gc_cycles", float64(after.NumGC-before.NumGC))
	if spec.Profile {
		pprof.StopCPUProfile()
		samples, err := profile.Parse(prof.Bytes())
		if err != nil {
			return nil, err
		}
		for _, s := range samples {
			if slices.Contains(s.Stack, calibrationFrame) {
				continue // the benchmark's own clock, not a call into a layer
			}
			b.Prof[layerOf(s.Stack)] += s.Value
			b.Prof["total"] += s.Value
		}
		lp.micro(b)
	}
	b.Spans = b.tr.spans
	return &b.blockResult, nil
}

// profLayers are the layers CPU time is attributed to: this repository's
// internal packages on and off the timing path, then the Go runtime split
// into garbage collection and the rest. Everything else is "other".
var profLayers = []string{
	"sim", "ev", "arena", "cpu", "cache", "core", "memctrl", "dram", "workload",
	"harness", "expcache", "dispatch", "runtime", "gc", "other",
}

// calibrationFrame is the calibration kernel's symbol in a profile.
const calibrationFrame = "main.(*calKernel).lookups"

// gcFrames are the runtime functions under which a sample counts as
// garbage-collection work, wherever its leaf is.
var gcFrames = []string{
	"runtime.gc", "runtime.GC", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.markroot", "runtime.scanobject", "runtime.sweepone",
	"runtime.(*gcWork)", "runtime.(*sweepLocked)",
}

// layerOf attributes one sample: garbage collection if any frame is GC
// work, the runtime if the leaf is, and otherwise the internal package of
// the leaf frame. A leaf in another standard-library package (encoding,
// hashing, sorting) is charged to the nearest caller in this repository,
// whose choice it was to call it.
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, p := range gcFrames {
			if strings.HasPrefix(fn, p) {
				return "gc"
			}
		}
	}
	if len(stack) == 0 {
		return "other"
	}
	if pkg := profile.PackageOf(stack[0]); pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	for _, fn := range stack {
		pkg := profile.PackageOf(fn)
		if !strings.HasPrefix(pkg, "repro/") {
			continue
		}
		if name, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
			for _, l := range profLayers {
				if l == name {
					return l
				}
			}
		}
		return "other"
	}
	return "other"
}
