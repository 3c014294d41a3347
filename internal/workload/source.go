package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Source is one core's workload: the synthetic generator parameterized
// by a Table-2 BenchSpec. A Source is a pure value — it can be copied,
// compared and canonically serialized without constructing anything.
type Source struct {
	// Synth parameterizes the synthetic generator. It is a value, not a
	// pointer, so copied mixes can be mutated independently (the
	// sensitivity builders rely on that).
	Synth BenchSpec
}

// SynthSource wraps a synthetic benchmark spec as a workload source.
func SynthSource(spec BenchSpec) Source { return Source{Synth: spec} }

// Sources wraps benchmark specs as synthetic sources, in order — the
// common "mix of Table-2 apps" constructor.
func Sources(specs ...BenchSpec) []Source {
	out := make([]Source, len(specs))
	for i, s := range specs {
		out[i] = SynthSource(s)
	}
	return out
}

// Name returns the source's display name, the benchmark name.
func (s Source) Name() string { return s.Synth.Name }

// MemIntensive reports the Table-2 intensity classification.
func (s Source) MemIntensive() bool { return s.Synth.MemIntensive }

// FootprintBytes returns the address-window footprint the source needs.
func (s Source) FootprintBytes() int64 { return s.Synth.FootprintBytes }

// Open builds the deterministic Generator that feeds one core, emitting
// addresses in [base, base+span); span must be a power of two at least
// FootprintBytes. It validates the spec (see NewGeneratorLayout).
func (s Source) Open(seed, base, span uint64, layout Layout) (*Generator, error) {
	return NewGeneratorLayout(s.Synth, seed, base, span, layout)
}

// AppendCanonical appends the source's run identity to dst, one line
// per source, for configuration fingerprinting (sim.Config.Fingerprint),
// and returns the extended slice. It allocates only when dst is too
// short. A catalog spec's line is copied from catalogLines; any other
// spec is formatted by appendLine.
func (s Source) AppendCanonical(dst []byte) []byte {
	if line, ok := catalogLines.lookup(&s.Synth); ok {
		return append(dst, line...)
	}
	return appendLine(dst, &s.Synth)
}

// appendLine formats b's canonical line. The layout predates Source and
// MUST NOT change: it is the persisted cache identity of every run ever
// computed, and changing a byte of it would orphan those results as
// surely as an engine-version bump. It is the fmt layout
//
//	app=%q mi=%t bub=%d fp=%d hot=%d str=%d zipf=%g hf=%g seq=%d wf=%g
//
// spelled with strconv, whose AppendQuote, AppendBool, AppendInt and
// AppendFloat(v, 'g', -1, 64) write what those verbs print.
func appendLine(dst []byte, b *BenchSpec) []byte {
	dst = append(dst, "app="...)
	dst = strconv.AppendQuote(dst, b.Name)
	dst = append(dst, " mi="...)
	dst = strconv.AppendBool(dst, b.MemIntensive)
	dst = append(dst, " bub="...)
	dst = strconv.AppendInt(dst, int64(b.Bubbles), 10)
	dst = append(dst, " fp="...)
	dst = strconv.AppendInt(dst, b.FootprintBytes, 10)
	dst = append(dst, " hot="...)
	dst = strconv.AppendInt(dst, int64(b.HotSegments), 10)
	dst = append(dst, " str="...)
	dst = strconv.AppendInt(dst, int64(b.Streams), 10)
	dst = append(dst, " zipf="...)
	dst = strconv.AppendFloat(dst, b.ZipfTheta, 'g', -1, 64)
	dst = append(dst, " hf="...)
	dst = strconv.AppendFloat(dst, b.HotFraction, 'g', -1, 64)
	dst = append(dst, " seq="...)
	dst = strconv.AppendInt(dst, int64(b.SeqRun), 10)
	dst = append(dst, " wf="...)
	dst = strconv.AppendFloat(dst, b.WriteFrac, 'g', -1, 64)
	return append(dst, '\n')
}

// lineTable maps specs to their canonical lines, keyed by the spec
// value, so every field takes part in a match.
type lineTable map[BenchSpec]catalogLine

// catalogLine is a spec with its canonical line.
type catalogLine struct {
	spec BenchSpec
	line string
}

// lookup returns b's line if the table holds b. A map hit alone does not
// decide it: == equates -0 and +0, so the float fields must also match
// bit for bit (a NaN never matches, so it always misses).
func (t lineTable) lookup(b *BenchSpec) (string, bool) {
	c, ok := t[*b]
	return c.line, ok &&
		math.Float64bits(c.spec.ZipfTheta) == math.Float64bits(b.ZipfTheta) &&
		math.Float64bits(c.spec.HotFraction) == math.Float64bits(b.HotFraction) &&
		math.Float64bits(c.spec.WriteFrac) == math.Float64bits(b.WriteFrac)
}

// internLines returns a table of the lines of list's specs.
func internLines(list ...BenchSpec) lineTable {
	t := make(lineTable, len(list))
	for _, b := range list {
		t[b] = catalogLine{b, string(appendLine(nil, &b))}
	}
	return t
}

// catalogLines holds the canonical lines of the 23 catalog specs (specs
// and multithreaded). A matrix hashes these specs again for every
// config, and formatting their floats was most of a fingerprint's cost.
// The table is built at package initialization and never written after,
// so any number of goroutines may read it.
var catalogLines = internLines(append(Benchmarks(), multithreaded...)...)

// FindMix resolves a workload argument the way the CLIs spell them:
//
//   - a Table-2 benchmark name (single-core)
//   - an eight-core mix name like "mix-100-0"
//   - "mt-<app>" — a multithreaded application (shared footprint)
//
// The boolean reports whether the cores share one address window
// (multithreaded workloads).
func FindMix(name string) (Mix, bool, error) {
	if app, ok := strings.CutPrefix(name, "mt-"); ok {
		for _, m := range MultithreadedWorkloads() {
			if m.Name == app {
				return m, true, nil
			}
		}
		return Mix{}, false, fmt.Errorf("workload: unknown multithreaded workload %q", name)
	}
	for _, m := range eightCoreMixes {
		if m.Name == name {
			m.Apps = append([]Source(nil), m.Apps...)
			return m, false, nil
		}
	}
	if spec, err := ByName(name); err == nil {
		return Mix{Name: name, Apps: Sources(spec)}, false, nil
	}
	return Mix{}, false, fmt.Errorf("workload: unknown workload %q", name)
}

// MixNames returns every workload name FindMix accepts, for catalogs and
// typo suggestions.
func MixNames() []string {
	var out []string
	for _, s := range Benchmarks() {
		out = append(out, s.Name)
	}
	for _, m := range eightCoreMixes {
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
