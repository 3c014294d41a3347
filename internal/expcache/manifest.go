package expcache

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/sim"
)

// ManifestFormatVersion identifies the on-disk manifest layout. Bump it
// when the manifest envelope changes shape; manifests with any other
// format fail Validate.
const ManifestFormatVersion = 1

// Manifest describes one shard's slice of an experiment matrix. A shard
// run (figbench -shard K/N -cache-dir DIR) writes one into its cache
// directory next to the result entries, so the directory is
// self-describing: a merge can tell, without re-enumerating anything,
// which runs the full matrix contains and which slice this directory was
// responsible for.
//
// The assignment rule is positional: with the full fingerprint list in
// ascending order, index i belongs to shard ShardOf(i, NumShards).
// Assigned records the resulting slice explicitly anyway, so Validate
// can reject a manifest written under a different (future) rule instead
// of silently mis-reading it.
type Manifest struct {
	Format int `json:"format"`
	// Engine is the sim.EngineVersion the shard was computed with.
	// Entries from a different engine generation must not be merged:
	// their fingerprints would not collide, but the merged directory
	// would claim shard coverage it does not have.
	Engine int `json:"engine"`
	// Scale is a human-readable description of the harness scale the
	// matrix was enumerated at (insts/apps/mixes/mc). Informational
	// only: any scale difference also changes Fingerprints, which is
	// what a merge compares.
	Scale string `json:"scale"`
	// Experiments names the experiment set the matrix was enumerated
	// from, in catalog order. Shards of one matrix must be launched with
	// the same experiment set.
	Experiments []string `json:"experiments"`
	Shard       int      `json:"shard"`      // 1-based shard index
	NumShards   int      `json:"num_shards"` // total shards in the split
	// Fingerprints is the full matrix index: every distinct run of the
	// experiment set, as lowercase-hex fingerprints in ascending order.
	Fingerprints []string `json:"fingerprints"`
	// Assigned is the slice of Fingerprints this shard computed.
	Assigned []string `json:"assigned"`
}

// ShardOf returns the 1-based shard that owns index i of a
// fingerprint-sorted job list split n ways. The positional rule keeps
// every shard within one job of perfectly balanced and is stable under
// any enumeration order, because the list is sorted before splitting.
// harness.ShardJobs and Manifest validation share this single rule.
func ShardOf(i, n int) int { return i%n + 1 }

// ExpectedAssigned returns the slice of m.Fingerprints the positional
// assignment rule gives m.Shard.
func (m *Manifest) ExpectedAssigned() []string {
	var out []string
	for i, fp := range m.Fingerprints {
		if ShardOf(i, m.NumShards) == m.Shard {
			out = append(out, fp)
		}
	}
	return out
}

// Named manifest-validation errors, one per failure class (assert with
// errors.Is; the wrapped message carries the specifics). Split out when
// the fuzz corpus showed arbitrary JSON reaching Validate produced
// one-size-fits-all messages a refused merge could not classify.
var (
	ErrManifestFormat = errors.New("manifest format mismatch")
	ErrManifestEngine = errors.New("manifest engine mismatch")
	ErrManifestShard  = errors.New("manifest shard out of range")
	// ErrManifestFingerprint: an index entry is not a 64-hex fingerprint,
	// or the list is not in ascending order. A manifest asserting
	// coverage of non-fingerprints could never be satisfied by entries.
	ErrManifestFingerprint = errors.New("manifest fingerprint index invalid")
	// ErrManifestAssignment: the explicit assignment disagrees with the
	// positional rule — a manifest from a different (future) split rule.
	ErrManifestAssignment = errors.New("manifest assignment rule mismatch")
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
// stamps, shard bounds, well-formed sorted fingerprints, and the
// assignment rule. Failures wrap the named ErrManifest* errors.
func (m *Manifest) Validate() error {
	switch {
	case m.Format != ManifestFormatVersion:
		return fmt.Errorf("%w: format %d, want %d", ErrManifestFormat, m.Format, ManifestFormatVersion)
	case m.Engine != sim.EngineVersion:
		return fmt.Errorf("%w: engine %d, want %d", ErrManifestEngine, m.Engine, sim.EngineVersion)
	case m.NumShards < 1 || m.Shard < 1 || m.Shard > m.NumShards:
		return fmt.Errorf("%w: shard %d/%d", ErrManifestShard, m.Shard, m.NumShards)
	case !sort.StringsAreSorted(m.Fingerprints):
		return fmt.Errorf("%w: index not in ascending order", ErrManifestFingerprint)
	}
	for i, fp := range m.Fingerprints {
		if !IsFingerprintHex(fp) {
			return fmt.Errorf("%w: index[%d] %.12q is not a 64-hex fingerprint", ErrManifestFingerprint, i, fp)
		}
	}
	want := m.ExpectedAssigned()
	if len(want) != len(m.Assigned) {
		return fmt.Errorf("%w: assignment holds %d fingerprints, rule gives %d", ErrManifestAssignment, len(m.Assigned), len(want))
	}
	for i := range want {
		if want[i] != m.Assigned[i] {
			return fmt.Errorf("%w: disagreement at index %d", ErrManifestAssignment, i)
		}
	}
	return nil
}

// manifestName is the manifest's filename inside a cache directory. The
// prefix keeps it disjoint from result entries (64-hex names).
func manifestName(shard, numShards int) string {
	return fmt.Sprintf("manifest-%dof%d.json", shard, numShards)
}

// isManifestName reports whether a cache-directory filename is a shard
// manifest.
func isManifestName(name string) bool {
	return strings.HasPrefix(name, "manifest-") && strings.HasSuffix(name, ".json")
}

// isEntryName reports whether a cache-directory filename is a result
// entry (a 64-hex fingerprint plus .json).
func isEntryName(name string) bool {
	return strings.HasSuffix(name, ".json") && IsFingerprintHex(strings.TrimSuffix(name, ".json"))
}

// WriteManifest validates m and atomically persists it into the cache's
// directory. The cache must be disk-backed.
func (c *Cache) WriteManifest(m *Manifest) error {
	if c.dir == "" {
		return fmt.Errorf("expcache: manifest needs a disk-backed cache")
	}
	if err := m.Validate(); err != nil {
		return fmt.Errorf("expcache: %w", err)
	}
	data, err := json.MarshalIndent(m, "", "\t")
	if err != nil {
		return err
	}
	if err := writeFileAtomic(c.dir, manifestName(m.Shard, m.NumShards), data); err != nil {
		return fmt.Errorf("expcache: %w", err)
	}
	return nil
}

// ReadManifests loads every shard manifest in dir, sorted by (NumShards,
// Shard). A missing directory yields none; a manifest that fails to parse
// or validate is an error — unlike result entries, manifests assert
// coverage, so a broken one must not be silently dropped.
func ReadManifests(dir string) ([]*Manifest, error) {
	names, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []*Manifest
	for _, de := range names {
		if de.IsDir() || !isManifestName(de.Name()) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			return nil, err
		}
		var m Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", de.Name(), err)
		}
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", de.Name(), err)
		}
		out = append(out, &m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].NumShards != out[j].NumShards {
			return out[i].NumShards < out[j].NumShards
		}
		return out[i].Shard < out[j].Shard
	})
	return out, nil
}
