package expcache

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/sim"
)

// FormatVersion identifies the on-disk envelope layout. Bump it when the
// envelope itself changes shape; entries with any other format are
// misses. (Result-affecting engine changes are handled by
// sim.EngineVersion via the fingerprint, not by this constant.)
const FormatVersion = 1

// entry is the on-disk envelope around one cached result. Fingerprint and
// Engine are redundant with the filename and the fingerprint's contents;
// they are stored anyway so a renamed or hand-edited file cannot
// impersonate another run's result. Result is a pointer so a decode can
// tell an absent result apart from a zero one: an envelope with valid
// stamps but no "result" key is hand-crafted garbage, not a cached run.
type entry struct {
	Format      int         `json:"format"`
	Engine      int         `json:"engine"`
	Fingerprint string      `json:"fingerprint"`
	Result      *sim.Result `json:"result"`
}

// Named entry-decode errors. Every way an entry can be unusable has its
// own identity so callers (and tests) can assert on the failure class
// with errors.Is instead of matching message text; the wrapped message
// still carries the specifics. The fuzz corpus drove these out of the
// former ad-hoc fmt.Errorf calls: a dispatch coordinator rejecting an
// upload needs to say *why* in a way a worker can act on.
var (
	// ErrEntryUnparsable: the bytes are not a JSON entry envelope.
	ErrEntryUnparsable = errors.New("unparsable entry")
	// ErrEntryFormat: the envelope's format stamp is not FormatVersion.
	ErrEntryFormat = errors.New("entry format mismatch")
	// ErrEntryEngine: the entry was computed by a different engine
	// generation; its result is not comparable to this build's.
	ErrEntryEngine = errors.New("entry engine mismatch")
	// ErrEntryFingerprint: the envelope's fingerprint does not match the
	// one its filename (or upload path) claims — a renamed file.
	ErrEntryFingerprint = errors.New("entry fingerprint mismatch")
	// ErrEntryNoResult: valid stamps but no result payload.
	ErrEntryNoResult = errors.New("entry missing result")
)

// Stats counts cache traffic. Hits split by the tier that served them;
// Misses are lookups that found nothing usable and will be computed.
type Stats struct {
	MemHits   int64
	DiskHits  int64
	Misses    int64
	Stores    int64
	DiskError int64 // failed disk writes (best-effort; results stay in memory)
}

// Hits returns the total lookups served without simulation.
func (s Stats) Hits() int64 { return s.MemHits + s.DiskHits }

// Cache is a two-tier result cache. The zero value is not usable; use New.
// All methods are safe for concurrent use.
type Cache struct {
	mu    sync.Mutex
	mem   map[sim.Fingerprint]sim.Result
	dir   string // "" = in-memory only
	stats Stats
}

// New builds a cache. dir, when non-empty, is the persistent store
// directory (created on first write); empty selects in-memory only.
func New(dir string) *Cache {
	return &Cache{mem: make(map[sim.Fingerprint]sim.Result), dir: dir}
}

// Dir returns the persistent store directory ("" when in-memory only).
func (c *Cache) Dir() string { return c.dir }

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Get looks up fp in memory, then on disk. A disk hit is promoted into
// memory. Unusable disk entries count as misses.
func (c *Cache) Get(fp sim.Fingerprint) (sim.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if res, ok := c.mem[fp]; ok {
		c.stats.MemHits++
		return res, true
	}
	if res, ok := c.readDisk(fp); ok {
		c.mem[fp] = res
		c.stats.DiskHits++
		return res, true
	}
	c.stats.Misses++
	return sim.Result{}, false
}

// GetMem looks up fp in the in-memory tier only. -force reruns use it:
// results computed earlier in the same process are still deduplicated,
// while stale disk entries are ignored (and overwritten by the
// subsequent Put).
func (c *Cache) GetMem(fp sim.Fingerprint) (sim.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if res, ok := c.mem[fp]; ok {
		c.stats.MemHits++
		return res, true
	}
	c.stats.Misses++
	return sim.Result{}, false
}

// Put stores a computed result in memory and, when a directory is
// configured, on disk. Disk failures are recorded in Stats and returned,
// but the in-memory tier is always updated — a read-only cache directory
// degrades to per-process caching, not to an error loop.
func (c *Cache) Put(fp sim.Fingerprint, res sim.Result) error {
	c.mu.Lock()
	c.mem[fp] = res
	c.stats.Stores++
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	if err := c.writeDisk(fp, res); err != nil {
		c.mu.Lock()
		c.stats.DiskError++
		c.mu.Unlock()
		return fmt.Errorf("expcache: %w", err)
	}
	return nil
}

// path returns the content-addressed file name for fp.
func (c *Cache) path(fp sim.Fingerprint) string {
	return filepath.Join(c.dir, fp.String()+".json")
}

// decodeEntry parses and validates one on-disk envelope against the
// fingerprint its filename claims. Any defect — unparsable JSON, foreign
// format, stale engine, or a fingerprint mismatch (renamed file) — is an
// error; Cache reads map it to a miss, and the dispatch coordinator
// rejects a fleet upload with it.
func decodeEntry(data []byte, fp string) (entry, error) {
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		return entry{}, fmt.Errorf("%w: %w", ErrEntryUnparsable, err)
	}
	switch {
	case e.Format != FormatVersion:
		return entry{}, fmt.Errorf("%w: format %d, want %d", ErrEntryFormat, e.Format, FormatVersion)
	case e.Engine != sim.EngineVersion:
		return entry{}, fmt.Errorf("%w: engine %d, want %d", ErrEntryEngine, e.Engine, sim.EngineVersion)
	case e.Fingerprint != fp:
		return entry{}, fmt.Errorf("%w: entry is %.12s..., filename claims %.12s...", ErrEntryFingerprint, e.Fingerprint, fp)
	case e.Result == nil:
		return entry{}, fmt.Errorf("%w: valid stamps but no result payload", ErrEntryNoResult)
	}
	return e, nil
}

// DecodeEntry validates encoded entry bytes against the fingerprint they
// claim to belong to and returns the result they carry. It is the wire-
// side twin of the disk read path (both run the same validation), so an
// entry uploaded to a dispatch coordinator is held to exactly the rules
// a local cache read applies. Failures wrap the named ErrEntry* errors.
func DecodeEntry(data []byte, fp string) (sim.Result, error) {
	e, err := decodeEntry(data, fp)
	if err != nil {
		return sim.Result{}, fmt.Errorf("expcache: %w", err)
	}
	return *e.Result, nil
}

// EncodeEntry renders one result as entry-envelope bytes — the exact
// bytes writeDisk persists, so an entry computed on a worker, shipped
// over the wire, and written by the coordinator is byte-identical to one
// the same build would have written locally. That identity is what makes
// fleet cache dirs diffable against solo runs.
func EncodeEntry(fp sim.Fingerprint, res sim.Result) ([]byte, error) {
	return json.Marshal(entry{
		Format:      FormatVersion,
		Engine:      sim.EngineVersion,
		Fingerprint: fp.String(),
		Result:      &res,
	})
}

// readDisk loads and validates one entry; any defect is (zero, false).
// Caller holds c.mu (the read itself races only with atomic renames, so
// holding the lock just keeps the stats consistent).
func (c *Cache) readDisk(fp sim.Fingerprint) (sim.Result, bool) {
	if c.dir == "" {
		return sim.Result{}, false
	}
	data, err := os.ReadFile(c.path(fp))
	if err != nil {
		return sim.Result{}, false
	}
	e, err := decodeEntry(data, fp.String())
	if err != nil {
		return sim.Result{}, false // corrupt, stale, or renamed: recompute
	}
	return *e.Result, true
}

// writeFileAtomic writes data to dir/name via a temp file in the same
// directory plus a rename, creating dir as needed. Concurrent writers of
// the same name each rename a complete file, so readers never observe a
// partial one.
func writeFileAtomic(dir, name string, data []byte) error {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// writeDisk atomically persists one entry.
func (c *Cache) writeDisk(fp sim.Fingerprint, res sim.Result) error {
	data, err := EncodeEntry(fp, res)
	if err != nil {
		return err
	}
	return writeFileAtomic(c.dir, fp.String()+".json", data)
}
