package stats

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %g", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); !almost(got, 2.5) {
		t.Errorf("Mean = %g, want 2.5", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %g", got)
	}
	if got := GeoMean([]float64{1, 4}); !almost(got, 2) {
		t.Errorf("GeoMean = %g, want 2", got)
	}
	if got := GeoMean([]float64{2, 2, 2}); !almost(got, 2) {
		t.Errorf("GeoMean = %g, want 2", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("GeoMean accepted non-positive value")
		}
	}()
	GeoMean([]float64{1, -1})
}

func TestSpeedupGuardsZero(t *testing.T) {
	if got := Speedup(0, 5); got != 0 {
		t.Errorf("Speedup(0,5) = %g", got)
	}
	if got := Speedup(2, 3); !almost(got, 1.5) {
		t.Errorf("Speedup = %g, want 1.5", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %g", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %g", got)
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty Min/Max not zero")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "demo", Header: []string{"name", "value"}}
	tab.AddRow("alpha", "1.00")
	tab.AddRow("a-much-longer-name", "2.50")
	tab.AddNote("note %d", 7)
	out := tab.Render()
	for _, want := range []string{"== demo ==", "name", "a-much-longer-name", "note: note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Columns are aligned: every data line has the value starting at the
	// same offset (line 0 = title, 1 = header, 2 = separator, 3+ = rows).
	lines := strings.Split(strings.TrimSpace(out), "\n")
	idx1 := strings.Index(lines[3], "1.00")
	idx2 := strings.Index(lines[4], "2.50")
	if idx1 < 0 || idx2 < 0 || idx1 != idx2 {
		// alpha row pads to the longer name, so offsets must match.
		t.Errorf("columns misaligned: %d vs %d\n%s", idx1, idx2, out)
	}
}

// TestTableRenderEmptyHeader is the regression test for the empty-header
// panic: widths[min(i, len(widths)-1)] indexed -1 when Header was empty.
func TestTableRenderEmptyHeader(t *testing.T) {
	tab := &Table{Title: "headerless"}
	tab.AddRow("alpha", "1")
	tab.AddRow("beta", "2")
	out := tab.Render()
	for _, want := range []string{"== headerless ==", "alpha", "beta"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "---") {
		t.Errorf("headerless table rendered a separator:\n%s", out)
	}
}

// TestTableRenderWideRows is the regression test for rows with more
// cells than the header: the extra columns must align too, instead of
// all being padded to the last header column's width.
func TestTableRenderWideRows(t *testing.T) {
	tab := &Table{Title: "wide", Header: []string{"name"}}
	tab.AddRow("a", "x", "1.0")
	tab.AddRow("much-longer", "yy-wide-cell", "2.5")
	out := tab.Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// line 0 = title, 1 = header, 2 = separator, 3+ = rows.
	i1, i2 := strings.Index(lines[3], "1.0"), strings.Index(lines[4], "2.5")
	if i1 < 0 || i2 < 0 || i1 != i2 {
		t.Errorf("extra columns misaligned (%d vs %d):\n%s", i1, i2, out)
	}
}

func TestReservoirBelowCapacityKeepsEverything(t *testing.T) {
	r := NewReservoir(8, 1)
	for i := int64(0); i < 5; i++ {
		r.Add(i * 10)
	}
	if r.Count() != 5 {
		t.Errorf("Count = %d, want 5", r.Count())
	}
	got := r.Samples()
	if len(got) != 5 {
		t.Fatalf("len(Samples) = %d, want 5", len(got))
	}
	for i, v := range got {
		if v != int64(i*10) {
			t.Errorf("sample %d = %d, want %d", i, v, i*10)
		}
	}
}

func TestReservoirBoundedAndDeterministic(t *testing.T) {
	a, b := NewReservoir(64, 7), NewReservoir(64, 7)
	other := NewReservoir(64, 8)
	for i := int64(0); i < 100_000; i++ {
		a.Add(i)
		b.Add(i)
		other.Add(i)
	}
	if len(a.Samples()) != 64 {
		t.Errorf("reservoir grew to %d samples, want 64", len(a.Samples()))
	}
	if a.Count() != 100_000 {
		t.Errorf("Count = %d, want 100000", a.Count())
	}
	if !reflect.DeepEqual(a.Samples(), b.Samples()) {
		t.Error("same seed and stream produced different samples")
	}
	if reflect.DeepEqual(a.Samples(), other.Samples()) {
		t.Error("different seeds produced identical samples (rng ignored)")
	}
}

// TestReservoirRoughlyUniform checks that late observations keep being
// admitted (Algorithm R's defining property) rather than the reservoir
// freezing on the first capacity-full prefix.
func TestReservoirRoughlyUniform(t *testing.T) {
	r := NewReservoir(128, 3)
	const n = 1 << 16
	for i := int64(0); i < n; i++ {
		r.Add(i)
	}
	late := 0
	for _, v := range r.Samples() {
		if v >= n/2 {
			late++
		}
	}
	// Expect ~64 of 128 from the stream's second half; accept a wide band.
	if late < 32 || late > 96 {
		t.Errorf("%d/128 samples from the second half, want roughly half", late)
	}
}

func TestWeightedPercentilesSingleSet(t *testing.T) {
	// A single full-coverage set degenerates to order statistics.
	set := []int64{50, 10, 40, 20, 30}
	got := WeightedPercentiles([][]int64{set}, []int64{5}, []float64{0, 0.5, 0.9, 1})
	want := []int64{10, 30, 50, 50}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("percentiles = %v, want %v", got, want)
	}
	if WeightedPercentiles([][]int64{nil}, []int64{0}, []float64{0.5}) != nil {
		t.Error("empty input did not yield nil")
	}
}

func TestWeightedPercentilesWeighsByTraffic(t *testing.T) {
	// A busy stream (100k observations behind 4 samples around 200) must
	// dominate an idle one (10 observations behind 4 samples around 50):
	// naive concatenation would put the median between the clusters.
	busy := []int64{199, 200, 201, 202}
	idle := []int64{49, 50, 51, 52}
	got := WeightedPercentiles([][]int64{busy, idle}, []int64{100_000, 10}, []float64{0.5, 0.99})
	for i, v := range got {
		if v < 199 {
			t.Errorf("percentile %d = %d, want a value from the busy stream (>=199)", i, v)
		}
	}
}

func TestPctAndF(t *testing.T) {
	if got := Pct(1.163); got != "+16.3%" {
		t.Errorf("Pct = %q", got)
	}
	if got := Pct(0.95); got != "-5.0%" {
		t.Errorf("Pct = %q", got)
	}
	if got := F(3.14159, 2); got != "3.14" {
		t.Errorf("F = %q", got)
	}
}

// Property: GeoMean of positive values lies between Min and Max.
func TestPropertyGeoMeanBetweenMinMax(t *testing.T) {
	f := func(raw []uint16) bool {
		var xs []float64
		for _, r := range raw {
			xs = append(xs, float64(r%1000)+1)
		}
		if len(xs) == 0 {
			return true
		}
		g := GeoMean(xs)
		return g >= Min(xs)-1e-9 && g <= Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Mean is translation-equivariant.
func TestPropertyMeanTranslation(t *testing.T) {
	f := func(raw []int16, shift int16) bool {
		if len(raw) == 0 {
			return true
		}
		var xs, ys []float64
		for _, r := range raw {
			xs = append(xs, float64(r))
			ys = append(ys, float64(r)+float64(shift))
		}
		return math.Abs(Mean(ys)-Mean(xs)-float64(shift)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
