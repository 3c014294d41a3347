package workload

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAllSpecsValid(t *testing.T) {
	for _, s := range append(Benchmarks(), Multithreaded()...) {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestTable2Classification(t *testing.T) {
	// Table 2: 10 memory-intensive + 10 non-intensive benchmarks.
	if got := len(Benchmarks()); got != 20 {
		t.Fatalf("benchmark count = %d, want 20", got)
	}
	if got := len(Intensive()); got != 10 {
		t.Errorf("intensive count = %d, want 10", got)
	}
	if got := len(NonIntensive()); got != 10 {
		t.Errorf("non-intensive count = %d, want 10", got)
	}
	if got := len(Multithreaded()); got != 3 {
		t.Errorf("multithreaded count = %d, want 3", got)
	}
	for _, name := range []string{"mcf", "libquantum", "lbm", "bwaves"} {
		s, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if !s.MemIntensive {
			t.Errorf("%s must be memory intensive per Table 2", name)
		}
	}
	for _, name := range []string{"gcc", "sjeng", "bzip2", "h264ref"} {
		s, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if s.MemIntensive {
			t.Errorf("%s must be non-intensive per Table 2", name)
		}
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Error("ByName accepted unknown benchmark")
	}
}

func TestSpecValidateRejectsBad(t *testing.T) {
	base, _ := ByName("mcf")
	cases := []func(*BenchSpec){
		func(s *BenchSpec) { s.Name = "" },
		func(s *BenchSpec) { s.Bubbles = -1 },
		func(s *BenchSpec) { s.FootprintBytes = 100 },
		func(s *BenchSpec) { s.HotSegments = 0 },
		func(s *BenchSpec) { s.ZipfTheta = 1.5 },
		func(s *BenchSpec) { s.HotFraction = 2 },
		func(s *BenchSpec) { s.SeqRun = 0 },
		func(s *BenchSpec) { s.SeqRun = 999 },
		func(s *BenchSpec) { s.WriteFrac = -0.1 },
	}
	for i, mutate := range cases {
		s := base
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, s)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	spec, _ := ByName("mcf")
	a, err := NewGenerator(spec, 42, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewGenerator(spec, 42, 0, 0)
	for i := 0; i < 10000; i++ {
		ra, rb := a.Next(), b.Next()
		if ra != rb {
			t.Fatalf("record %d differs: %+v vs %+v", i, ra, rb)
		}
	}
	// A different seed must give a different stream.
	c, _ := NewGenerator(spec, 43, 0, 0)
	same := true
	for i := 0; i < 100; i++ {
		if a.Next() != c.Next() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGeneratorAddressesInWindow(t *testing.T) {
	spec, _ := ByName("lbm")
	base := uint64(1) << 32
	g, err := NewGenerator(spec, 1, base, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50000; i++ {
		r := g.Next()
		if r.Addr < base || r.Addr >= base+g.span {
			t.Fatalf("address %#x outside window [%#x,%#x)", r.Addr, base, base+g.span)
		}
		if r.Addr%blockBytes != 0 {
			t.Fatalf("address %#x not block aligned", r.Addr)
		}
	}
}

func TestGeneratorSpanValidation(t *testing.T) {
	spec, _ := ByName("lbm")
	if _, err := NewGenerator(spec, 1, 0, 12345); err == nil {
		t.Error("accepted non-power-of-two span")
	}
	if _, err := NewGenerator(spec, 1, 0, 1<<20); err == nil {
		t.Error("accepted span below footprint")
	}
	g, err := NewGenerator(spec, 1, 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if g.span != 1<<30 {
		t.Errorf("span = %d, want 1<<30", g.span)
	}
}

func TestGeneratorScattersAcrossWindow(t *testing.T) {
	// A small footprint must not concentrate in the low addresses of the
	// window: physical segments should spread across the whole span.
	spec, _ := ByName("wc-8443") // 32 MB footprint
	g, err := NewGenerator(spec, 3, 0, 1<<32)
	if err != nil {
		t.Fatal(err)
	}
	top := 0
	n := 20000
	for i := 0; i < n; i++ {
		if g.Next().Addr >= 1<<31 {
			top++
		}
	}
	frac := float64(top) / float64(n)
	if frac < 0.3 || frac > 0.7 {
		t.Errorf("upper-half fraction = %.2f, want ~0.5 (scattered)", frac)
	}
}

func TestGeneratorWriteFraction(t *testing.T) {
	spec, _ := ByName("lbm") // WriteFrac 0.40
	g, _ := NewGenerator(spec, 5, 0, 0)
	writes := 0
	n := 100000
	for i := 0; i < n; i++ {
		if g.Next().IsWrite {
			writes++
		}
	}
	frac := float64(writes) / float64(n)
	if frac < 0.35 || frac > 0.45 {
		t.Errorf("write fraction = %.3f, want ~0.40", frac)
	}
}

func TestGeneratorHotSweepRevisits(t *testing.T) {
	// The sweep streams must revisit hot segments in a consistent order:
	// after enough bursts to cover the hot set several times, hot
	// segments are seen repeatedly, and the sequence of first-visits in
	// one sweep matches the next sweep's order.
	spec, _ := ByName("mcf")
	g, _ := NewGenerator(spec, 9, 0, 0)
	counts := make(map[uint64]int)
	// Enough bursts for ~6 sweeps of the 6k-segment hot set.
	for i := 0; i < 6*spec.HotSegments*spec.SeqRun; i++ {
		r := g.Next()
		counts[r.Addr/segmentBytes]++
	}
	revisited := 0
	for _, c := range counts {
		if c >= 2*spec.SeqRun { // segment visited in at least ~2 sweeps
			revisited++
		}
	}
	if revisited < spec.HotSegments/2 {
		t.Errorf("only %d of %d hot segments revisited; sweeps not looping",
			revisited, spec.HotSegments)
	}
}

func TestGeneratorStreamsPartitionHotSet(t *testing.T) {
	spec, _ := ByName("mcf")
	spec.Streams = 4
	g, err := NewGenerator(spec, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.streams) != 4 {
		t.Fatalf("streams = %d, want 4", len(g.streams))
	}
	covered := int64(0)
	for i, s := range g.streams {
		if s.lo >= s.hi {
			t.Errorf("stream %d empty range [%d,%d)", i, s.lo, s.hi)
		}
		if s.pos < s.lo || s.pos >= s.hi {
			t.Errorf("stream %d position %d outside [%d,%d)", i, s.pos, s.lo, s.hi)
		}
		covered += s.hi - s.lo
	}
	if covered != int64(spec.HotSegments) {
		t.Errorf("streams cover %d ranks, want %d", covered, spec.HotSegments)
	}
}

func TestGeneratorSpatialRuns(t *testing.T) {
	spec, _ := ByName("libquantum") // SeqRun 12
	g, _ := NewGenerator(spec, 3, 0, 0)
	sequential := 0
	var prev uint64
	n := 50000
	for i := 0; i < n; i++ {
		r := g.Next()
		if i > 0 && r.Addr == prev+blockBytes {
			sequential++
		}
		prev = r.Addr
	}
	// With 12-block runs, ~11/12 of transitions are sequential.
	if frac := float64(sequential) / float64(n); frac < 0.8 {
		t.Errorf("sequential fraction = %.2f, want > 0.8", frac)
	}
}

func TestZipfSamplerBounds(t *testing.T) {
	z := newZipfSampler(100, 0.9)
	rng := splitmix64(11)
	seen0 := false
	for i := 0; i < 10000; i++ {
		r := z.sample(&rng)
		if r < 0 || r >= 100 {
			t.Fatalf("rank %d out of [0,100)", r)
		}
		if r == 0 {
			seen0 = true
		}
	}
	if !seen0 {
		t.Error("rank 0 (most popular) never sampled")
	}
}

func TestZipfThetaZeroIsUniformish(t *testing.T) {
	z := newZipfSampler(16, 0)
	rng := splitmix64(3)
	counts := make([]int, 16)
	n := 160000
	for i := 0; i < n; i++ {
		counts[z.sample(&rng)]++
	}
	for r, c := range counts {
		if c < n/16/2 || c > n/16*2 {
			t.Errorf("theta=0 rank %d count %d far from uniform %d", r, c, n/16)
		}
	}
}

func TestEightCoreMixes(t *testing.T) {
	mixes := EightCoreMixes()
	if len(mixes) != 20 {
		t.Fatalf("mix count = %d, want 20", len(mixes))
	}
	for _, pct := range []int{25, 50, 75, 100} {
		cat := MixesByCategory(mixes, pct)
		if len(cat) != 5 {
			t.Errorf("category %d%%: %d mixes, want 5", pct, len(cat))
		}
		for _, m := range cat {
			if len(m.Apps) != 8 {
				t.Fatalf("%s: %d apps, want 8", m.Name, len(m.Apps))
			}
			nInt := 0
			for _, a := range m.Apps {
				if a.MemIntensive() {
					nInt++
				}
			}
			if want := 8 * pct / 100; nInt != want {
				t.Errorf("%s: %d intensive apps, want %d", m.Name, nInt, want)
			}
		}
	}
	for i, m := range mixes {
		if want := fmt.Sprintf("mix-%d-%d", 25*(1+i/5), i%5); m.Name != want {
			t.Errorf("mix %d is %s, want %s", i, m.Name, want)
		}
	}

	// Each call returns its own copy: changing a mix, one of its
	// sources, or appending to its sources changes no other mix and no
	// later call's.
	mixes[0].Name = "changed"
	mixes[0].Apps[7].Synth.Bubbles = -1
	mixes[0].Apps = append(mixes[0].Apps, mixes[0].Apps[0])
	fresh := EightCoreMixes()
	if !reflect.DeepEqual(fresh[1:], mixes[1:]) {
		t.Error("changing one mix changed another")
	}
	if m := fresh[0]; m.Name != "mix-25-0" || len(m.Apps) != 8 || m.Apps[7].Synth.Bubbles < 0 {
		t.Errorf("changing a returned mix changed the catalog: %s with %d apps", m.Name, len(m.Apps))
	}
	if found, _, err := FindMix("mix-25-0"); err != nil || !reflect.DeepEqual(found, fresh[0]) {
		t.Errorf("FindMix(mix-25-0) = %+v, %v; want %+v", found, err, fresh[0])
	}
}

func TestSingleCoreWorkloads(t *testing.T) {
	ws := SingleCoreWorkloads()
	if len(ws) != 20 {
		t.Fatalf("single-core workloads = %d, want 20", len(ws))
	}
	for _, w := range ws {
		if len(w.Apps) != 1 {
			t.Errorf("%s has %d apps", w.Name, len(w.Apps))
		}
	}
}

func TestMultithreadedWorkloadsShareSpec(t *testing.T) {
	ws := MultithreadedWorkloads()
	if len(ws) != 3 {
		t.Fatalf("multithreaded workloads = %d, want 3", len(ws))
	}
	for _, w := range ws {
		if len(w.Apps) != 8 {
			t.Fatalf("%s: %d threads, want 8", w.Name, len(w.Apps))
		}
		for _, a := range w.Apps {
			if a.Name() != w.Name {
				t.Errorf("%s thread runs %s", w.Name, a.Name())
			}
		}
	}
}

// Property: generator addresses always stay block-aligned and inside the
// footprint for arbitrary seeds.
func TestPropertyGeneratorWellFormed(t *testing.T) {
	spec, _ := ByName("zeusmp")
	f := func(seed uint64) bool {
		g, err := NewGenerator(spec, seed, 0, 0)
		if err != nil {
			return false
		}
		for i := 0; i < 2000; i++ {
			r := g.Next()
			if r.Addr >= uint64(spec.FootprintBytes) || r.Addr%blockBytes != 0 || r.Bubbles < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
