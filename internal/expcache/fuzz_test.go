package expcache

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

// fuzzFP is the fingerprint the decode fuzzer validates against. Seeds
// carry it so mutations explore the post-identity-check decode paths.
var fuzzFP = sim.Fingerprint{0xab, 0xcd, 1, 2, 3}

// FuzzDecodeEntry feeds arbitrary bytes to the entry decoder — the same
// code path that judges worker uploads and disk cache files. It must
// never panic; when it accepts, a re-encode of the decoded result must
// be byte-identical to a fresh EncodeEntry (the determinism invariant
// the whole dispatch machinery diffs on).
func FuzzDecodeEntry(f *testing.F) {
	res := sim.Result{
		Preset:   sim.FIGCacheFast,
		Workload: "mcf",
		Cycles:   1_234_567,
		Cores:    []sim.CoreResult{{App: "mcf", IPC: 0.75, Insts: 200_000, FinishedAt: 1_000_000}},
	}
	good, err := EncodeEntry(fuzzFP, res)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"format":1,"engine":99,"fingerprint":"x"}`))
	f.Add([]byte(strings.Replace(string(good), `"result"`, `"resul_"`, 1)))
	f.Add([]byte(`null`))
	f.Add([]byte(`[`))

	fp := fuzzFP.String()
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeEntry(data, fp)
		if err != nil {
			return // rejected upload: the only requirement is no panic
		}
		re, err := EncodeEntry(fuzzFP, res)
		if err != nil {
			t.Fatalf("re-encoding an accepted entry: %v", err)
		}
		res2, err := DecodeEntry(re, fp)
		if err != nil {
			t.Fatalf("re-encoded entry rejected: %v", err)
		}
		re2, err := EncodeEntry(fuzzFP, res2)
		if err != nil {
			t.Fatal(err)
		}
		if string(re) != string(re2) {
			t.Fatalf("encode/decode/encode is not a fixed point:\n%s\nvs\n%s", re, re2)
		}
	})
}

// FuzzManifestValidate feeds arbitrary JSON to the manifest decode +
// Validate path. No input may panic it; a manifest that validates must
// carry the current format and engine stamps and a sorted index of
// 64-hex fingerprints.
func FuzzManifestValidate(f *testing.F) {
	m := &Manifest{
		Format:       ManifestFormatVersion,
		Engine:       sim.EngineVersion,
		Scale:        "insts=1000 apps=1 mixes=1 mc=10",
		Experiments:  []string{"table2"},
		Fingerprints: []string{strings.Repeat("0", 64), strings.Repeat("f", 64)},
	}
	seed, err := json.Marshal(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"format":1,"engine":1,"shard":0,"num_shards":-1}`))
	f.Add([]byte(`{"format":2,"fingerprints":["zz"]}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var m Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			return // invalid manifest: the only requirement is no panic
		}
		if m.Format != ManifestFormatVersion || m.Engine != sim.EngineVersion {
			t.Fatalf("validated manifest has format %d engine %d", m.Format, m.Engine)
		}
		for i, fp := range m.Fingerprints {
			if !IsFingerprintHex(fp) {
				t.Fatalf("validated manifest indexes non-hex fingerprint %q", fp)
			}
			if i > 0 && m.Fingerprints[i-1] > fp {
				t.Fatalf("validated manifest index out of order at %d", i)
			}
		}
	})
}
