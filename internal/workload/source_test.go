package workload

import (
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
