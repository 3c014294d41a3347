package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs (0 for an empty slice; panics
// on non-positive values, which indicate a bug in the caller).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %g", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Speedup returns after/before, guarding against a zero baseline.
func Speedup(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	return after / before
}

// Min and Max return the extrema of xs (0 for empty).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs (0 for empty).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Table is a plain-text table: the harness prints one per reproduced
// figure/table, with the same rows or series the paper reports.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a free-form note printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render formats the table with aligned columns. Column widths are
// computed over the header and every row, so rows wider than the header
// stay aligned; a table without a header renders rows only (no separator).
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	ncols := len(t.Header)
	for _, row := range t.Rows {
		if len(row) > ncols {
			ncols = len(row)
		}
	}
	widths := make([]int, ncols)
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	if len(t.Header) > 0 {
		line(t.Header)
		for i := range widths {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat("-", widths[i]))
		}
		b.WriteByte('\n')
	}
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Reservoir is a fixed-capacity, deterministic reservoir sampler over
// int64 observations (Vitter's Algorithm R driven by a seeded xorshift
// generator). It keeps a uniform sample of an unbounded stream in O(cap)
// memory with zero steady-state allocations — the replacement for
// unbounded per-observation sample slices on hot paths. Two reservoirs
// fed the same stream with the same seed hold identical samples, so
// results stay reproducible across runs and engines.
type Reservoir struct {
	cap   int
	seen  int64
	items []int64
	rng   uint64
}

// NewReservoir builds a reservoir holding at most capacity samples.
func NewReservoir(capacity int, seed uint64) *Reservoir {
	if capacity <= 0 {
		capacity = 1
	}
	r := &Reservoir{cap: capacity, items: make([]int64, 0, capacity)}
	r.rng = seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	// Zero is xorshift's fixed point: the one seed whose mix wraps to 0
	// would freeze the generator and degenerate sampling to slot 0.
	if r.rng == 0 {
		r.rng = 0x9e3779b97f4a7c15
	}
	return r
}

// Add offers one observation to the reservoir.
func (r *Reservoir) Add(v int64) {
	r.seen++
	if len(r.items) < r.cap {
		r.items = append(r.items, v)
		return
	}
	x := r.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.rng = x
	if j := x % uint64(r.seen); j < uint64(len(r.items)) {
		r.items[j] = v
	}
}

// Count returns the number of observations offered so far.
func (r *Reservoir) Count() int64 { return r.seen }

// Samples returns the current sample set (at most the capacity). The
// slice aliases the reservoir's storage; callers must not modify it.
func (r *Reservoir) Samples() []int64 { return r.items }

// WeightedPercentiles estimates quantiles of one or more streams from
// uniform sample sets of them (e.g. Reservoirs), weighting each set by
// the length of the stream it represents: a sample from a set of n
// samples standing for a stream of N observations carries weight N/n.
// Concatenating capped reservoirs without these weights would count a
// lightly-used stream as heavily as a busy one. For a single set this
// degenerates to the ceil(p*n)-th order statistic. Returns nil when no
// set contributes samples.
func WeightedPercentiles(sets [][]int64, streamLens []int64, ps []float64) []int64 {
	type wv struct {
		v int64
		w float64
	}
	var items []wv
	total := 0.0
	for i, set := range sets {
		if len(set) == 0 || streamLens[i] <= 0 {
			continue
		}
		w := float64(streamLens[i]) / float64(len(set))
		for _, v := range set {
			items = append(items, wv{v, w})
		}
		total += float64(streamLens[i])
	}
	if len(items) == 0 {
		return nil
	}
	sort.Slice(items, func(i, j int) bool { return items[i].v < items[j].v })
	out := make([]int64, len(ps))
	for k, p := range ps {
		threshold := p * total
		cum := 0.0
		out[k] = items[len(items)-1].v
		for _, it := range items {
			cum += it.w
			// The epsilon absorbs float error so exact multiples (e.g.
			// p=0.5 over an even count) pick the same sample the integer
			// ceil(p*n)-1 rule would.
			if cum >= threshold-1e-9 {
				out[k] = it.v
				break
			}
		}
	}
	return out
}

// Pct formats a ratio as a signed percentage ("+16.3%").
func Pct(ratio float64) string { return fmt.Sprintf("%+.1f%%", (ratio-1)*100) }

// F formats a float with the given decimals.
func F(v float64, decimals int) string { return fmt.Sprintf("%.*f", decimals, v) }
