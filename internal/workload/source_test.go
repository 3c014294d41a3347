package workload

import (
	"math"
	"testing"
)

func TestSourceValidateAndNames(t *testing.T) {
	spec, err := ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	s := SynthSource(spec)
	if s.Name() != "mcf" || !s.MemIntensive() {
		t.Errorf("synth source name=%q intensive=%v", s.Name(), s.MemIntensive())
	}
	if fb := s.FootprintBytes(); fb != spec.FootprintBytes {
		t.Errorf("synth footprint = %d, want %d", fb, spec.FootprintBytes)
	}

	// Open validates the spec before building a generator.
	bad := spec
	bad.Streams = 0
	if _, err := SynthSource(bad).Open(1, 0, 0, Layout{}); err == nil {
		t.Error("Open accepted an invalid spec")
	}
}

func TestSourceAppendCanonical(t *testing.T) {
	spec, err := ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	// The synthetic line is a persisted-cache identity; its exact bytes
	// must never change (see Source.AppendCanonical). It appends after
	// what dst already holds.
	got := SynthSource(spec).AppendCanonical([]byte("x\n"))
	want := "x\n" + `app="mcf" mi=true bub=36 fp=1073741824 hot=2944 str=2 zipf=0.7 hf=0.93 seq=1 wf=0.15` + "\n"
	if string(got) != want {
		t.Errorf("synthetic canonical line changed:\n got: %q\nwant: %q", got, want)
	}

	// Every catalog spec's line is interned, and the interned line is
	// the one appendLine formats.
	catalog := append(Benchmarks(), Multithreaded()...)
	if len(catalog) != 23 || len(catalogLines) != len(catalog) {
		t.Fatalf("%d catalog specs and %d interned lines, want 23 of each", len(catalog), len(catalogLines))
	}
	for _, b := range catalog {
		line, ok := catalogLines.lookup(&b)
		if !ok {
			t.Fatalf("%s: no interned line", b.Name)
		}
		if want := string(appendLine(nil, &b)); line != want {
			t.Errorf("%s: interned line %q, formatted %q", b.Name, line, want)
		}
		if got := SynthSource(b).AppendCanonical(nil); string(got) != line {
			t.Errorf("%s: AppendCanonical wrote %q, want the interned %q", b.Name, got, line)
		}
	}

	// A spec differing from a catalog spec misses the interned lines,
	// also where == would match (-0 against +0) or never can (NaN), and
	// is formatted.
	ulp, nan, renamed := spec, spec, spec
	ulp.ZipfTheta = math.Nextafter(spec.ZipfTheta, 1)
	nan.WriteFrac = math.NaN()
	renamed.Name = "mcf2"
	// The -0 case needs a table spec with a zero float, which Table 2
	// lacks; == matches its -0 twin.
	zero := spec
	zero.HotFraction = 0
	negZero := zero
	negZero.HotFraction = math.Copysign(0, -1)
	if _, ok := internLines(zero).lookup(&negZero); ok {
		t.Error("a -0 hot fraction hit the table's +0 line")
	}

	for _, tc := range []struct {
		name string
		spec BenchSpec
		want string
	}{
		{"zipf one ulp above", ulp, `app="mcf" mi=true bub=36 fp=1073741824 hot=2944 str=2 zipf=0.7000000000000001 hf=0.93 seq=1 wf=0.15`},
		{"NaN write fraction", nan, `app="mcf" mi=true bub=36 fp=1073741824 hot=2944 str=2 zipf=0.7 hf=0.93 seq=1 wf=NaN`},
		{"renamed", renamed, `app="mcf2" mi=true bub=36 fp=1073741824 hot=2944 str=2 zipf=0.7 hf=0.93 seq=1 wf=0.15`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if line, ok := catalogLines.lookup(&tc.spec); ok {
				t.Errorf("hit the interned line %q", line)
			}
			if got := string(SynthSource(tc.spec).AppendCanonical(nil)); got != tc.want+"\n" {
				t.Errorf("AppendCanonical wrote %q, want %q", got, tc.want+"\n")
			}
		})
	}
}

func TestFindMix(t *testing.T) {
	if m, shared, err := FindMix("mcf"); err != nil || shared || len(m.Apps) != 1 || m.Apps[0].Name() != "mcf" {
		t.Errorf("FindMix(mcf) = %+v shared=%v err=%v", m, shared, err)
	}
	if m, _, err := FindMix("mix-100-0"); err != nil || len(m.Apps) != 8 {
		t.Errorf("FindMix(mix-100-0) = %+v err=%v", m, err)
	}
	if m, shared, err := FindMix("mt-canneal"); err != nil || !shared || len(m.Apps) != 8 {
		t.Errorf("FindMix(mt-canneal) = %+v shared=%v err=%v", m, shared, err)
	}
	for _, bad := range []string{"nosuch", "mt-nosuch", "trace:", "trace:mcf.trc"} {
		if _, _, err := FindMix(bad); err == nil {
			t.Errorf("FindMix(%q) accepted", bad)
		}
	}
}

func TestSuggest(t *testing.T) {
	names := MixNames()
	cases := map[string]string{
		"mcff":      "mcf",
		"sjneg":     "sjeng",
		"mix-100-O": "mix-100-0",
		"mt-cannea": "mt-canneal",
	}
	for typo, want := range cases {
		if got := Suggest(typo, names); got != want {
			t.Errorf("Suggest(%q) = %q, want %q", typo, got, want)
		}
	}
	if got := Suggest("zzzzzzzzzz", names); got != "" {
		t.Errorf("Suggest(garbage) = %q, want no suggestion", got)
	}
}
