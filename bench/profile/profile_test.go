package profile

import (
	"bytes"
	"errors"
	"runtime/pprof"
	"testing"
	"time"
)

var sink uint64

// spin burns CPU inside this package until d has passed.
func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x ^= x<<13 ^ x>>7 ^ x<<17
		}
	}
	sink = x
}

// recordSpin returns a CPU profile taken while spin runs.
func recordSpin(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(time.Second)
	pprof.StopCPUProfile()
	return buf.Bytes()
}

func TestParseAttributesSamplesToTheSpinningPackage(t *testing.T) {
	samples, err := Parse(recordSpin(t))
	if err != nil {
		t.Fatal(err)
	}
	const self = "repro/bench/profile"
	var in, total int64
	for _, s := range samples {
		if len(s.Stack) == 0 {
			t.Fatal("sample with an empty stack")
		}
		if PackageOf(s.Stack[0]) == self {
			in += s.Value
		}
		total += s.Value
	}
	if total < int64(100*time.Millisecond) {
		t.Fatalf("only %v of CPU time sampled while spinning for a second", time.Duration(total))
	}
	if share := float64(in) / float64(total); share <= 0.5 {
		t.Errorf("%.0f%% of CPU time attributed to %s, want more than half", share*100, self)
	}
}

func TestParseRejectsDamagedInput(t *testing.T) {
	good := recordSpin(t)
	cases := map[string][]byte{
		"empty":              nil,
		"garbage":            []byte("not a profile at all"),
		"truncated gzip":     good[:len(good)/2],
		"gzip header only":   good[:10],
		"gzip bad checksum":  append(append([]byte(nil), good[:len(good)-8]...), 0, 0, 0, 0, 0, 0, 0, 0),
		"truncated protobuf": {0x12, 0x05, 0x08, 0x01},
		"bad wire type":      {0x0b},
		"dangling location":  {0x0a, 0x00, 0x12, 0x04, 0x08, 0x07, 0x10, 0x01, 0x32, 0x00},
	}
	for name, data := range cases {
		if _, err := Parse(data); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: got %v, want ErrMalformed", name, err)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*System).Run":                      "repro/internal/sim",
		"repro/internal/harness.(*Runner).runAll.func1":         "repro/internal/harness",
		"repro/internal/arena.Slice[go.shape.int]":              "repro/internal/arena",
		"repro/internal/arena.Slice[repro/internal/cache.line]": "repro/internal/arena",
		"runtime.mallocgc":                                      "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":          "internal/runtime/maps",
		"encoding/json.(*encodeState).marshal":                  "encoding/json",
		"net/http.(*conn).serve":                                "net/http",
	} {
		if got := PackageOf(fn); got != want {
			t.Errorf("PackageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
