package workload

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"repro/internal/cpu"
)

// SourceKind discriminates the implementations of a workload Source.
type SourceKind uint8

const (
	// KindSynth is the synthetic Table-2 generator (see Generator).
	KindSynth SourceKind = iota
	// KindTrace replays a recorded binary trace file (see TraceData).
	KindTrace
)

func (k SourceKind) String() string {
	switch k {
	case KindSynth:
		return "synth"
	case KindTrace:
		return "trace"
	default:
		return fmt.Sprintf("SourceKind(%d)", int(k))
	}
}

// Source describes where one core's instruction trace comes from: either
// the synthetic generator parameterized by a BenchSpec, or a recorded
// trace file replayed deterministically. A Source is a pure value — it
// can be validated, copied, compared and canonically serialized without
// touching the filesystem; the trace file behind a KindTrace source is
// only read when the run identity (ContentHash) or the records
// themselves (Open) are needed.
type Source struct {
	Kind SourceKind
	// Synth parameterizes the synthetic generator (KindSynth). It is a
	// value, not a pointer, so copied mixes can be mutated independently
	// (the sensitivity builders rely on that).
	Synth BenchSpec
	// TracePath is the recorded trace file to replay (KindTrace). Run
	// identity hashes the file's *content* and base name, never its
	// directory: the same trace shipped to another machine is the same
	// workload (see WriteCanonical).
	TracePath string
}

// SynthSource wraps a synthetic benchmark spec as a workload source.
func SynthSource(spec BenchSpec) Source { return Source{Kind: KindSynth, Synth: spec} }

// TraceSource references a recorded binary trace file as a workload
// source. The file is not opened here; Validate checks only the path
// shape, and the content is read lazily by ContentHash/FootprintBytes/
// Open (cached per path, see LoadTrace).
func TraceSource(path string) Source { return Source{Kind: KindTrace, TracePath: path} }

// Sources wraps benchmark specs as synthetic sources, in order — the
// common "mix of Table-2 apps" constructor.
func Sources(specs ...BenchSpec) []Source {
	out := make([]Source, len(specs))
	for i, s := range specs {
		out[i] = SynthSource(s)
	}
	return out
}

// Validate reports parameter errors that need no file access. Trace
// sources are further validated (header, record stream) when loaded.
func (s Source) Validate() error {
	switch s.Kind {
	case KindSynth:
		return s.Synth.Validate()
	case KindTrace:
		if s.TracePath == "" {
			return fmt.Errorf("workload: trace source has no path")
		}
		return nil
	default:
		return fmt.Errorf("workload: unknown source kind %d", int(s.Kind))
	}
}

// Name returns the source's display name: the benchmark name for
// synthetic sources, "trace:<file>" for recorded traces.
func (s Source) Name() string {
	if s.Kind == KindTrace {
		return "trace:" + filepath.Base(s.TracePath)
	}
	return s.Synth.Name
}

// MemIntensive reports the Table-2 intensity classification. Recorded
// traces carry no classification and are grouped as memory-intensive
// (recording is usually done to capture memory behaviour); the paper's
// figure groupings only ever see synthetic sources.
func (s Source) MemIntensive() bool {
	if s.Kind == KindTrace {
		return true
	}
	return s.Synth.MemIntensive
}

// FootprintBytes returns the address-window footprint the source needs:
// the benchmark's footprint for synthetic sources, the recorded span for
// traces (which loads — and caches — the trace file).
func (s Source) FootprintBytes() (int64, error) {
	if s.Kind == KindTrace {
		td, err := LoadTrace(s.TracePath)
		if err != nil {
			return 0, err
		}
		return int64(td.Span), nil
	}
	return s.Synth.FootprintBytes, nil
}

// Open builds the cpu.TraceReader that feeds one core: a deterministic
// Generator for synthetic sources, a looping Replayer for recorded
// traces. The reader emits addresses in [base, base+span); span must be
// a power of two at least FootprintBytes. Trace replay is a pure
// function of the file content plus (base, span): seed and layout only
// steer the synthetic generator and are ignored for traces.
func (s Source) Open(seed, base, span uint64, layout Layout) (cpu.TraceReader, error) {
	switch s.Kind {
	case KindSynth:
		return NewGeneratorLayout(s.Synth, seed, base, span, layout)
	case KindTrace:
		td, err := LoadTrace(s.TracePath)
		if err != nil {
			return nil, err
		}
		return td.Replayer(base, span)
	default:
		return nil, fmt.Errorf("workload: unknown source kind %d", int(s.Kind))
	}
}

// WriteCanonical serializes the source's run identity into w, one line
// per source, for configuration fingerprinting (sim.Config.Fingerprint).
//
// The synthetic line layout predates Source and MUST NOT change: it is
// the persisted cache identity of every synthetic run ever computed, and
// changing a byte of it would orphan those results as surely as an
// engine-version bump.
//
// Trace sources hash the file's content (sha256, cached), span, record
// count, and display name (the base file name, which labels the run's
// results) — never the directory. The fingerprint therefore changes
// exactly when the replayed records can change or the result labels
// would: editing the file moves it, and moving the file between
// directories or machines does not — the property that lets recorded
// traces flow through a multi-machine fleet. (The name must be
// folded in because equal fingerprints promise bit-identical
// sim.Results, and results carry the trace's display name.) An
// unreadable trace serializes its error, keeping the fingerprint
// deterministic; such configurations fail properly when the run tries
// to open the source.
func (s Source) WriteCanonical(w io.Writer) {
	if s.Kind == KindTrace {
		td, err := LoadTrace(s.TracePath)
		if err != nil {
			fmt.Fprintf(w, "traceapp err=%q\n", err.Error())
			return
		}
		fmt.Fprintf(w, "traceapp=%q sha256=%x span=%d count=%d\n", s.Name(), td.SHA, td.Span, td.Count)
		return
	}
	b := s.Synth
	fmt.Fprintf(w, "app=%q mi=%t bub=%d fp=%d hot=%d str=%d zipf=%g hf=%g seq=%d wf=%g\n",
		b.Name, b.MemIntensive, b.Bubbles, b.FootprintBytes, b.HotSegments,
		b.Streams, b.ZipfTheta, b.HotFraction, b.SeqRun, b.WriteFrac)
}

// FindMix resolves a workload argument the way the CLIs spell them:
//
//   - "trace:PATH" — a recorded trace replayed on one core
//   - a Table-2 benchmark name (single-core)
//   - an eight-core mix name like "mix-100-0"
//   - "mt-<app>" — a multithreaded application (shared footprint)
//
// The boolean reports whether the cores share one address window
// (multithreaded workloads).
func FindMix(name string) (Mix, bool, error) {
	if path, ok := strings.CutPrefix(name, "trace:"); ok {
		if path == "" {
			return Mix{}, false, fmt.Errorf("workload: empty trace path in %q", name)
		}
		src := TraceSource(path)
		// The mix is named by the trace's base name, not its full path, so
		// the same trace replayed from different directories (or machines)
		// keeps one identity and one cache entry.
		return Mix{Name: src.Name(), Apps: []Source{src}}, false, nil
	}
	if app, ok := strings.CutPrefix(name, "mt-"); ok {
		for _, m := range MultithreadedWorkloads() {
			if m.Name == app {
				return m, true, nil
			}
		}
		return Mix{}, false, fmt.Errorf("workload: unknown multithreaded workload %q", name)
	}
	for _, m := range EightCoreMixes() {
		if m.Name == name {
			return m, false, nil
		}
	}
	if spec, err := ByName(name); err == nil {
		return Mix{Name: name, Apps: Sources(spec)}, false, nil
	}
	return Mix{}, false, fmt.Errorf("workload: unknown workload %q", name)
}

// MixNames returns every workload name FindMix accepts (except the open
// "trace:PATH" form), for catalogs and typo suggestions.
func MixNames() []string {
	var out []string
	for _, s := range Benchmarks() {
		out = append(out, s.Name)
	}
	for _, m := range EightCoreMixes() {
		out = append(out, m.Name)
	}
	for _, m := range MultithreadedWorkloads() {
		out = append(out, "mt-"+m.Name)
	}
	return out
}

// Suggest returns the candidate closest to name by edit distance, or ""
// when nothing is close enough to plausibly be a typo (distance > 1/2 of
// the name's length, capped at 5).
func Suggest(name string, candidates []string) string {
	maxDist := len(name) / 2
	if maxDist > 5 {
		maxDist = 5
	}
	best, bestDist := "", maxDist+1 // strict < below accepts d <= maxDist
	for _, c := range candidates {
		if d := editDistance(strings.ToLower(name), strings.ToLower(c)); d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance over bytes (workload names
// are ASCII), with two rolling rows.
func editDistance(a, b string) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	prev := make([]int, len(a)+1)
	cur := make([]int, len(a)+1)
	for i := range prev {
		prev[i] = i
	}
	for j := 1; j <= len(b); j++ {
		cur[0] = j
		for i := 1; i <= len(a); i++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[i-1] + cost        // substitute
			if d := prev[i] + 1; d < m { // delete
				m = d
			}
			if d := cur[i-1] + 1; d < m { // insert
				m = d
			}
			cur[i] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(a)]
}
