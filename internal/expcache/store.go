package expcache

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// DirStore holds result entries as encoded envelope bytes (exactly the
// on-disk format — see EncodeEntry) in a cache directory, so an entry
// can arrive over the wire or from a local computation and land through
// one code path: the dispatch coordinator accepts worker uploads into a
// DirStore. It interoperates byte-for-byte with Cache and figbench
// -cache-dir: entries are FP.json files written atomically. Files that
// are not well-formed entry names (the manifest, temp files) are ignored
// by List/Get.
//
// Keys are 64-hex fingerprint strings (IsFingerprintHex). A DirStore
// holds bytes, not meaning: callers validate with DecodeEntry before
// writing, so everything inside it is a well-formed entry of the current
// engine generation.
type DirStore struct {
	dir string
}

// NewDirStore builds a DirStore over dir (created on first write).
func NewDirStore(dir string) *DirStore { return &DirStore{dir: dir} }

// PutEntry atomically writes one entry file: a concurrent GetEntry sees
// the old bytes or the new ones, never a prefix.
func (s *DirStore) PutEntry(fp string, data []byte) error {
	if !IsFingerprintHex(fp) {
		return fmt.Errorf("expcache: store key %.12q is not a 64-hex fingerprint", fp)
	}
	if err := writeFileAtomic(s.dir, fp+".json", data); err != nil {
		return fmt.Errorf("expcache: %w", err)
	}
	return nil
}

// GetEntry reads one entry file; a missing file is (nil, false, nil).
func (s *DirStore) GetEntry(fp string) ([]byte, bool, error) {
	if !IsFingerprintHex(fp) {
		return nil, false, nil
	}
	data, err := os.ReadFile(filepath.Join(s.dir, fp+".json"))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("expcache: %w", err)
	}
	return data, true, nil
}

// ListEntries returns the fingerprints of every entry file, ascending.
// A missing directory holds no entries.
func (s *DirStore) ListEntries() ([]string, error) {
	des, err := os.ReadDir(s.dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("expcache: %w", err)
	}
	var out []string
	for _, de := range des {
		if de.IsDir() || !isEntryName(de.Name()) {
			continue
		}
		out = append(out, de.Name()[:64])
	}
	sort.Strings(out)
	return out, nil
}

// isEntryName reports whether a cache-directory filename is a result
// entry (a 64-hex fingerprint plus .json).
func isEntryName(name string) bool {
	return strings.HasSuffix(name, ".json") && IsFingerprintHex(strings.TrimSuffix(name, ".json"))
}
