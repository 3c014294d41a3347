package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func fpConfig(tb testing.TB) Config {
	tb.Helper()
	return DefaultConfig(FIGCacheFast, smallMix(tb, "mcf"))
}

func TestFingerprintDeterministic(t *testing.T) {
	cfg := fpConfig(t)
	if cfg.Fingerprint() != cfg.Fingerprint() {
		t.Error("two fingerprints of the same config differ")
	}
	copyCfg := cfg
	if cfg.Fingerprint() != copyCfg.Fingerprint() {
		t.Error("a copied config fingerprints differently")
	}
}

// TestFingerprintGoldenSynthetic pins the exact fingerprint of one
// synthetic configuration per preset, each computed by the encoder of
// its time: FIGCache-Fast, Base and LISA-VILLA by the pre-workload.Source
// implementation, and FIGCache-Slow (eight cores with an override whose
// cache rows would give FIGCache-Fast four fast subarrays),
// FIGCache-Ideal (with such an override, so its fast-subarray count
// is derived) and LL-DRAM (explicit channels, cycle bound and seed) by
// the fmt-based one appendCanonical replaced. These hashes are the
// on-disk identities of every previously cached synthetic result: if
// this test fails, the refactor you are making orphans existing result
// caches, which is only acceptable together with a sim.EngineVersion
// bump (and then these constants must be re-pinned).
func TestFingerprintGoldenSynthetic(t *testing.T) {
	mcf, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	single := DefaultConfig(FIGCacheFast, workload.Mix{Name: "mcf", Apps: workload.Sources(mcf), IntensivePercent: 100})
	single.TargetInsts = 20_000
	eight := DefaultConfig(Base, workload.EightCoreMixes()[0])
	eight.TargetInsts = 5_000
	mt := DefaultConfig(LISAVilla, workload.MultithreadedWorkloads()[0])
	mt.SharedFootprint = true
	slow := DefaultConfig(FIGCacheSlow, workload.EightCoreMixes()[5])
	slow.TargetInsts = 7_000
	slow.FIG = &core.FIGCacheConfig{SegmentBlocks: 32, CacheRowsPerBank: 128, Replacement: core.ReplRandom, InsertThreshold: 2, Substrate: core.SubstrateRowClonePSM}
	lbm, err := workload.ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	ideal := DefaultConfig(FIGCacheIdeal, workload.Mix{Name: "lbm", Apps: workload.Sources(lbm), IntensivePercent: 100})
	ideal.TargetInsts = 30_000
	ideal.FIG = &core.FIGCacheConfig{SegmentBlocks: 8, CacheRowsPerBank: 128, Replacement: core.ReplLRU, InsertThreshold: 4}
	ideal.ImmediateReloc = true
	gcc, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	ll := DefaultConfig(LLDRAM, workload.Mix{Name: "gcc", Apps: workload.Sources(gcc)})
	ll.TargetInsts = 50_000
	ll.Seed = 7
	ll.Channels = 2
	ll.MaxCycles = 9_000_000

	golden := []struct {
		name string
		cfg  Config
		want string
	}{
		{"single", single, "ba153cdb4573acad00593b7047af729533c9bb0c6fec0ac3c098a1b324f121c2"},
		{"eight", eight, "fa2a9ec55498df7929c5f29315440ff409cd1f046e12a14893ab0fe78234e0b0"},
		{"multithreaded", mt, "cf3cbeac2cac91b6675da78172f847daa9278d2c1bd49f0a0592bb872819a082"},
		{"slow", slow, "4abe1bccf3ccac39d2ae6df1918ec48f508ae73a4aad33fa6f5932ccd35a6708"},
		{"ideal", ideal, "24d537e9555f75645bb29d0ffdd99c95b31abd66d71713f28cd77315e8beeef2"},
		{"lldram", ll, "de8e6f36cfc67e3511d48ec497f9b8c04bed9572964df85402cfce09d93e4b31"},
	}
	for _, g := range golden {
		if got := g.cfg.Fingerprint().String(); got != g.want {
			t.Errorf("%s fingerprint drifted:\n got  %s\n want %s\n(cached synthetic results are orphaned; see comment above)", g.name, got, g.want)
		}
	}
}

// TestFingerprintNormalizes checks that implicit defaults and their
// explicit spellings share an identity: a zero Channels field and the
// normalized value must not cache-split the same run.
func TestFingerprintNormalizes(t *testing.T) {
	implicit := fpConfig(t)
	explicit := implicit
	explicit.Channels = 1 // single-core default
	explicit.MaxCycles = 400 * explicit.TargetInsts
	if implicit.Fingerprint() != explicit.Fingerprint() {
		t.Error("normalized defaults fingerprint differently from implicit zeros")
	}
}

// TestFingerprintSensitivity mutates every result-affecting knob and
// checks each one moves the fingerprint — a collision here would let the
// cache serve one experiment's result for another.
func TestFingerprintSensitivity(t *testing.T) {
	base := fpConfig(t)
	ref := base.Fingerprint()
	mutations := map[string]func(*Config){
		"preset":       func(c *Config) { c.Preset = Base },
		"insts":        func(c *Config) { c.TargetInsts *= 2 },
		"maxcycles":    func(c *Config) { c.MaxCycles = 100 * c.TargetInsts },
		"seed":         func(c *Config) { c.Seed++ },
		"shared":       func(c *Config) { c.SharedFootprint = true },
		"immreloc":     func(c *Config) { c.ImmediateReloc = true },
		"mix-name":     func(c *Config) { c.Mix.Name = "other" },
		"app-bubbles":  func(c *Config) { c.Mix.Apps[0].Synth.Bubbles++ },
		"app-hotfrac":  func(c *Config) { c.Mix.Apps[0].Synth.HotFraction += 0.01 },
		"fig-override": func(c *Config) { f := core.DefaultFIGCacheConfig(); c.FIG = &f },
	}
	seen := map[Fingerprint]string{ref: "base"}
	for name, mutate := range mutations {
		cfg := base
		cfg.Mix.Apps = append([]workload.Source(nil), base.Mix.Apps...)
		mutate(&cfg)
		fp := cfg.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[fp] = name
	}
}

// TestFingerprintFIGByValue checks that FIG overrides hash by value: two
// distinct pointers to equal configs must share a fingerprint (the sweep
// builders allocate a fresh override per call).
func TestFingerprintFIGByValue(t *testing.T) {
	a := fpConfig(t)
	figA := core.DefaultFIGCacheConfig()
	a.FIG = &figA
	b := fpConfig(t)
	figB := core.DefaultFIGCacheConfig()
	b.FIG = &figB
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("equal FIG overrides behind distinct pointers fingerprint differently")
	}
}

// fmtCanonical is the canonical text as the fmt-based encoder wrote it
// before appendCanonical replaced it (the source line was
// workload.Source's WriteCanonical), kept as the oracle
// FuzzFingerprintLayout holds the strconv encoder to.
func fmtCanonical(c Config) []byte {
	norm := c
	_ = norm.normalize()
	fastsub := 2
	if norm.Preset == FIGCacheFast || norm.Preset == FIGCacheIdeal {
		fastsub = norm.fastSubarrays()
	}
	var h bytes.Buffer
	fmt.Fprintf(&h, "engine=%d\n", EngineVersion)
	fmt.Fprintf(&h, "preset=%d channels=%d insts=%d maxcycles=%d cpb=%d seed=%d shared=%t fastsub=%d immreloc=%t\n",
		int(norm.Preset), norm.Channels, norm.TargetInsts, norm.MaxCycles,
		cpuPerBus, norm.Seed, norm.SharedFootprint, fastsub,
		norm.ImmediateReloc)
	fmt.Fprintf(&h, "mix=%q intensive=%d\n", norm.Mix.Name, norm.Mix.IntensivePercent)
	for _, a := range norm.Mix.Apps {
		b := a.Synth
		fmt.Fprintf(&h, "app=%q mi=%t bub=%d fp=%d hot=%d str=%d zipf=%g hf=%g seq=%d wf=%g\n",
			b.Name, b.MemIntensive, b.Bubbles, b.FootprintBytes, b.HotSegments,
			b.Streams, b.ZipfTheta, b.HotFraction, b.SeqRun, b.WriteFrac)
	}
	if f := norm.FIG; f != nil {
		fmt.Fprintf(&h, "fig=%d,%d,%d,%d,5,-1,%d,1\n",
			f.SegmentBlocks, f.CacheRowsPerBank, int(f.Replacement), f.InsertThreshold,
			int(f.Substrate))
	} else {
		io.WriteString(&h, "fig=default\n")
	}
	io.WriteString(&h, "lisa=default\n")
	return h.Bytes()
}

// layoutFloats are the values whose fmt and strconv spellings would part
// first if they could: signed zero, the infinities, NaN, the smallest
// and largest subnormals, both sides of the shortest form's switches to
// an exponent (123456 and 1234567, 1e-4 and 1e-5), 1e21 and the
// extremes.
var layoutFloats = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, math.Float64frombits(0x000fffffffffffff), -5e-324,
	123456, 1234567, 1e-4, 1e-5, 1e21, 0.1, -1.5, math.MaxFloat64,
}

// layoutInput reads FuzzFingerprintLayout's byte streams; past the end
// every read returns zeros.
type layoutInput []byte

func (in *layoutInput) next(n int) []byte {
	b := make([]byte, n)
	*in = (*in)[copy(b, *in):]
	return b
}

func (in *layoutInput) byte() byte { return in.next(1)[0] }

// int reads 4 bytes as a signed 32-bit value: the int fields' values in
// practice, with room for negative and large ones.
func (in *layoutInput) int() int { return int(int32(binary.BigEndian.Uint32(in.next(4)))) }

// float reads a selector byte: below len(layoutFloats) it picks a
// special value, otherwise the next 8 bytes are the float's bits.
func (in *layoutInput) float() float64 {
	if k := int(in.byte()); k < len(layoutFloats) {
		return layoutFloats[k]
	}
	return math.Float64frombits(binary.BigEndian.Uint64(in.next(8)))
}

// spec reads one source's spec: a name length byte (mod 32) and the
// name's bytes, a flag byte, then the numeric fields in BenchSpec order,
// FootprintBytes as 8 bytes.
func (in *layoutInput) spec() workload.BenchSpec {
	var b workload.BenchSpec
	b.Name = string(in.next(int(in.byte() % 32)))
	b.MemIntensive = in.byte()&1 == 1
	b.Bubbles = in.int()
	b.FootprintBytes = int64(binary.BigEndian.Uint64(in.next(8)))
	b.HotSegments = in.int()
	b.Streams = in.int()
	b.ZipfTheta = in.float()
	b.HotFraction = in.float()
	b.SeqRun = in.int()
	b.WriteFrac = in.float()
	return b
}

// layoutApps encodes specs as FuzzFingerprintLayout's apps stream (see
// layoutInput.spec): a count byte (the count less one, mod 8), then each
// spec, every float as the 0xff selector and its bits.
func layoutApps(specs ...workload.BenchSpec) []byte {
	out := []byte{byte(len(specs) - 1)}
	i := func(v int) { out = binary.BigEndian.AppendUint32(out, uint32(v)) }
	f := func(v float64) { out = binary.BigEndian.AppendUint64(append(out, 0xff), math.Float64bits(v)) }
	for _, b := range specs {
		out = append(append(out, byte(len(b.Name))), b.Name...)
		if b.MemIntensive {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
		i(b.Bubbles)
		out = binary.BigEndian.AppendUint64(out, uint64(b.FootprintBytes))
		i(b.HotSegments)
		i(b.Streams)
		f(b.ZipfTheta)
		f(b.HotFraction)
		i(b.SeqRun)
		f(b.WriteFrac)
	}
	return out
}

// FuzzFingerprintLayout holds appendCanonical to the fmt layout it
// replaced (fmtCanonical), byte for byte, over any preset number,
// channel count, instruction and cycle budget, seed and the two flags;
// a FIG override of any five 32-bit values (fig, as 4-byte big-endian
// words), or none (an empty fig); a mix name of any bytes; and 1-8
// sources (layoutInput.spec) whose names hold any bytes, quotes,
// backslashes and invalid UTF-8 among them, and whose floats include -0,
// the infinities, NaN, subnormals and 1e21 (layoutFloats). The seeds
// hold Table 2's specs, whose lines workload.Source copies from its
// interned table, and one of them a spec one ulp off, which it formats.
// Fingerprint must hash that text, also when it outgrows the stack
// buffer (the last seed's mix name).
func FuzzFingerprintLayout(f *testing.F) {
	mcf, err := workload.ByName("mcf")
	if err != nil {
		f.Fatal(err)
	}
	var mix []workload.BenchSpec
	for _, a := range workload.EightCoreMixes()[15].Apps {
		mix = append(mix, a.Synth)
	}
	odd := mcf
	odd.Name = "q\"\\\xff\xfe\u00e9\x00"
	odd.ZipfTheta, odd.HotFraction, odd.WriteFrac = math.Copysign(0, -1), 1e21, 5e-324
	nasty := layoutApps(odd, odd)
	nasty = append(nasty[:len(nasty)-9], 4) // the second WriteFrac: layoutFloats[4], NaN
	words := func(vs ...int32) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.BigEndian.AppendUint32(out, uint32(v))
		}
		return out
	}
	f.Add(int(FIGCacheFast), 0, int64(200_000), int64(0), uint64(1), false, false, "mcf", 100, []byte(nil), layoutApps(mcf))
	// Table 2's mcf is an interned line; one ulp off, it is formatted.
	ulp := mcf
	ulp.ZipfTheta = math.Nextafter(mcf.ZipfTheta, 1)
	f.Add(int(FIGCacheFast), 0, int64(200_000), int64(0), uint64(1), false, false, "mcf", 100, []byte(nil), layoutApps(ulp, mcf))
	f.Add(int(Base), 4, int64(5_000), int64(0), uint64(3), true, false, "mix-100-0", 100, []byte(nil), layoutApps(mix...))
	f.Add(int(FIGCacheIdeal), 2, int64(60_000), int64(7), uint64(1)<<63, false, true, "mix-100-0", 75,
		words(8, 384, 3, 2, 1), layoutApps(mix...))
	f.Add(int(FIGCacheSlow), 0, int64(60_000), int64(0), uint64(1), false, false, "mix-100-0", 100,
		words(16, 512, 0, 1, 0), layoutApps(mix...))
	f.Add(-7, -1, int64(-1), int64(math.MaxInt64), uint64(math.MaxUint64), true, true, "\"\xff", -25,
		words(-1, math.MinInt32, math.MaxInt32, 0, -9), nasty)
	f.Add(int(LLDRAM), 0, int64(1), int64(0), uint64(0), false, false, strings.Repeat("\"\xff", 1500), 0, []byte(nil), layoutApps(mcf))
	f.Fuzz(func(t *testing.T, preset, channels int, insts, maxCycles int64, seed uint64, shared, immediate bool,
		mixName string, intensive int, fig, apps []byte) {
		cfg := Config{
			Preset: Preset(preset), Channels: channels, TargetInsts: insts, MaxCycles: maxCycles,
			Seed: seed, SharedFootprint: shared, ImmediateReloc: immediate,
			Mix: workload.Mix{Name: mixName, IntensivePercent: intensive},
		}
		if len(fig) > 0 {
			in := layoutInput(fig)
			cfg.FIG = &core.FIGCacheConfig{
				SegmentBlocks: in.int(), CacheRowsPerBank: in.int(), Replacement: core.ReplacementKind(in.int()),
				InsertThreshold: in.int(), Substrate: core.Substrate(in.int()),
			}
		}
		in := layoutInput(apps)
		for n := 1 + int(in.byte()%8); n > 0; n-- {
			cfg.Mix.Apps = append(cfg.Mix.Apps, workload.SynthSource(in.spec()))
		}
		want := fmtCanonical(cfg)
		if got := cfg.appendCanonical(nil); !bytes.Equal(got, want) {
			t.Fatalf("canonical text differs from the fmt layout:\n got %q\nwant %q", got, want)
		}
		if cfg.Fingerprint() != sha256.Sum256(want) {
			t.Fatal("Fingerprint is not the hash of the canonical text")
		}
	})
}

// eightCoreFIG is the largest identity the matrix hashes: FIGCache-Fast
// on an eight-core mix with a FIG override (Fig. 12's 16-subarray
// column).
func eightCoreFIG() Config {
	cfg := DefaultConfig(FIGCacheFast, workload.EightCoreMixes()[15])
	cfg.TargetInsts = 60_000
	f := core.DefaultFIGCacheConfig()
	f.CacheRowsPerBank = 512
	cfg.FIG = &f
	return cfg
}

var fpSink Fingerprint

// TestFingerprintAllocs is the identity's allocation gate: eightCoreFIG
// fingerprints without allocating. AllocsPerRun divides the process's
// allocation count by its 100 runs, so a stray allocation by a goroutine
// another test left behind cannot fail it, while one per call does.
func TestFingerprintAllocs(t *testing.T) {
	cfg := eightCoreFIG()
	if n := testing.AllocsPerRun(100, func() { fpSink = cfg.Fingerprint() }); n != 0 {
		t.Errorf("an 8-core FIGCache-Fast fingerprint with a FIG override made %v allocations, want 0", n)
	}
}

// BenchmarkFingerprint times one Fingerprint call for a one-core
// FIGCache-Fast config and for eightCoreFIG.
func BenchmarkFingerprint(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"1-core", fpConfig(b)}, {"8-core", eightCoreFIG()}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fpSink = c.cfg.Fingerprint()
			}
		})
	}
}
