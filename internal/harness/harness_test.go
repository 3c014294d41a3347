package harness

import (
	"strings"
	"testing"
)

func quickRunner() *Runner {
	s := QuickScale()
	s.Insts = 25_000
	s.SingleApps = 2
	s.MixesPerCategory = 1
	return NewRunner(s)
}

func TestTable1Static(t *testing.T) {
	tab := NewRunner(QuickScale()).Table1()
	out := tab.Render()
	for _, want := range []string{"FR-FCFS", "DDR4", "RELOC", "FIGCache", "LISA-VILLA"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig5AndStaticAnalyses(t *testing.T) {
	r := quickRunner()
	tab, err := r.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 5 {
		t.Errorf("Fig5 has %d trace rows", len(tab.Rows))
	}
	if !strings.Contains(tab.Render(), "guardbanded RELOC latency: 1.0 ns") {
		t.Errorf("Fig5 did not derive the 1 ns parameter:\n%s", tab.Render())
	}
	s42 := r.Sec42()
	if !strings.Contains(s42.Render(), "63.5 ns") {
		t.Error("Sec42 missing the 63.5 ns paper value")
	}
	s83, err := r.Sec83()
	if err != nil {
		t.Fatal(err)
	}
	out := s83.Render()
	for _, want := range []string{"FIGARO chip area", "FTS storage"} {
		if !strings.Contains(out, want) {
			t.Errorf("Sec83 missing %q", want)
		}
	}
}

func TestFig7QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation matrix in -short mode")
	}
	r := quickRunner()
	tab, err := r.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	// 2 apps + 2 geomean rows; 5 preset columns + app + class.
	if len(tab.Rows) != 4 {
		t.Fatalf("Fig7 rows = %d, want 4:\n%s", len(tab.Rows), tab.Render())
	}
	if len(tab.Header) != 7 {
		t.Fatalf("Fig7 columns = %d, want 7", len(tab.Header))
	}
}

func TestFig8CachesBaseRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation matrix in -short mode")
	}
	r := quickRunner()
	if _, err := r.Fig8(); err != nil {
		t.Fatal(err)
	}
	computed := r.CacheStats().Stores
	if computed == 0 {
		t.Fatal("Fig8 computed no runs")
	}
	// Fig9 reuses the Fig8 matrix for the shared presets; the cache must
	// prevent duplicate runs of identical configurations: its eight-core
	// (LISA-VILLA / FIGCache-Slow / FIGCache-Fast / Base) runs must all be
	// served as hits, so only the single-core additions are computed.
	if _, err := r.Fig9(); err != nil {
		t.Fatal(err)
	}
	st := r.CacheStats()
	if st.Hits() == 0 {
		t.Error("Fig9 recomputed the entire Fig8 matrix (no cache hits)")
	}
	if st.Stores == computed {
		t.Log("Fig9 ran no additional configs (expected: single-core runs)")
	}
	if r.SystemsBuilt() == 0 {
		t.Error("runner reports zero constructed Systems")
	}
}

func TestTable2Classification(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation matrix in -short mode")
	}
	r := quickRunner()
	tab, err := r.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("Table2 rows = %d, want 2", len(tab.Rows))
	}
	// The subset must include one of each class, and both must match the
	// paper's classification at this scale.
	out := tab.Render()
	if !strings.Contains(out, "intensive") {
		t.Error("Table2 missing classification")
	}
}

func TestScaleNormalization(t *testing.T) {
	r := NewRunner(Scale{Insts: 1000})
	if r.scale.SingleApps != 20 || r.scale.MixesPerCategory != 5 {
		t.Errorf("scale defaults not applied: %+v", r.scale)
	}
	if r.scale.Parallelism <= 0 {
		t.Error("parallelism not defaulted")
	}
	if got := len(r.singles); got != 20 {
		t.Errorf("single workloads = %d, want 20", got)
	}
	if got := len(r.eights); got != 20 {
		t.Errorf("eight-core mixes = %d, want 20", got)
	}
}

func TestSingleWorkloadSubsetBalanced(t *testing.T) {
	s := QuickScale()
	s.SingleApps = 4
	r := NewRunner(s)
	ws := r.singles
	if len(ws) != 4 {
		t.Fatalf("subset = %d, want 4", len(ws))
	}
	intensive := 0
	for _, w := range ws {
		if w.Apps[0].MemIntensive() {
			intensive++
		}
	}
	if intensive != 2 {
		t.Errorf("subset has %d intensive apps, want 2", intensive)
	}
}
