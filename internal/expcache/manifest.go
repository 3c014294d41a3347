package expcache

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"repro/internal/sim"
)

// ManifestFormatVersion identifies the on-disk manifest layout. Bump it
// when the manifest envelope changes shape; manifests with any other
// format fail Validate.
const ManifestFormatVersion = 2

// manifestName is the manifest's filename inside a cache directory,
// disjoint from result entries (64-hex names).
const manifestName = "manifest.json"

// Manifest describes a complete experiment matrix. A fleet coordinator
// writes one into its cache directory once every entry has arrived, so
// the directory is self-describing: it names the runs it holds and the
// engine, scale and experiment set they were enumerated from.
type Manifest struct {
	Format int `json:"format"`
	// Engine is the sim.EngineVersion the matrix was computed with.
	Engine int `json:"engine"`
	// Scale is a human-readable description of the harness scale the
	// matrix was enumerated at (insts/apps/mixes/mc). Informational
	// only: any scale difference also changes Fingerprints.
	Scale string `json:"scale"`
	// Experiments names the experiment set the matrix was enumerated
	// from, in catalog order.
	Experiments []string `json:"experiments"`
	// Fingerprints is the full matrix index: every distinct run of the
	// experiment set, as lowercase-hex fingerprints in ascending order.
	Fingerprints []string `json:"fingerprints"`
}

// Named manifest-validation errors, one per failure class (assert with
// errors.Is; the wrapped message carries the specifics). Split out when
// the fuzz corpus showed arbitrary JSON reaching Validate produced
// one-size-fits-all messages a caller could not classify.
var (
	ErrManifestFormat = errors.New("manifest format mismatch")
	ErrManifestEngine = errors.New("manifest engine mismatch")
	// ErrManifestFingerprint: an index entry is not a 64-hex fingerprint,
	// or the list is not in ascending order. A manifest asserting
	// coverage of non-fingerprints could never be satisfied by entries.
	ErrManifestFingerprint = errors.New("manifest fingerprint index invalid")
)

// IsFingerprintHex reports whether s is a well-formed fingerprint name:
// exactly 64 lowercase hex digits (the filename stem of a result entry
// and the wire identity the dispatch protocol passes around).
func IsFingerprintHex(s string) bool {
	if len(s) != 64 {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Validate checks a manifest's internal consistency: version and engine
// stamps, and a well-formed, sorted fingerprint index. Failures wrap the
// named ErrManifest* errors.
func (m *Manifest) Validate() error {
	switch {
	case m.Format != ManifestFormatVersion:
		return fmt.Errorf("%w: format %d, want %d", ErrManifestFormat, m.Format, ManifestFormatVersion)
	case m.Engine != sim.EngineVersion:
		return fmt.Errorf("%w: engine %d, want %d", ErrManifestEngine, m.Engine, sim.EngineVersion)
	case !sort.StringsAreSorted(m.Fingerprints):
		return fmt.Errorf("%w: index not in ascending order", ErrManifestFingerprint)
	}
	for i, fp := range m.Fingerprints {
		if !IsFingerprintHex(fp) {
			return fmt.Errorf("%w: index[%d] %.12q is not a 64-hex fingerprint", ErrManifestFingerprint, i, fp)
		}
	}
	return nil
}

// WriteManifest validates m and atomically persists it into the store's
// directory as manifest.json.
func (s *DirStore) WriteManifest(m *Manifest) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("expcache: %w", err)
	}
	data, err := json.MarshalIndent(m, "", "\t")
	if err != nil {
		return err
	}
	if err := writeFileAtomic(s.dir, manifestName, data); err != nil {
		return fmt.Errorf("expcache: %w", err)
	}
	return nil
}
