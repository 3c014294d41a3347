package dispatch

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/expcache"
)

// SpecFormatVersion identifies the dispatch protocol's wire shape.
// Workers refuse to serve a coordinator speaking another version.
const SpecFormatVersion = 1

// Spec describes the matrix a coordinator is dispatching: everything a
// worker needs to rebuild the identical job index from its own binary.
// The fingerprint list is included so the worker can verify its local
// enumeration matches the coordinator's — the cheap end-to-end check
// that catches engine, scale, or catalog drift before any simulation.
type Spec struct {
	Format int `json:"format"`
	// Engine is the coordinator's sim.EngineVersion; a worker of any
	// other generation would compute entries the coordinator rejects.
	Engine int `json:"engine"`
	// Scale of the matrix (the harness.Scale knobs, minus parallelism,
	// which is a per-machine choice).
	Insts int64 `json:"insts"`
	Apps  int   `json:"apps"`
	Mixes int   `json:"mixes"`
	MC    int   `json:"mc"`
	// Experiments are the catalog names the matrix was enumerated from.
	Experiments []string `json:"experiments"`
	// Fingerprints is the full matrix index, ascending.
	Fingerprints []string `json:"fingerprints"`
	// LeaseTTLMillis tells workers the coordinator's lease deadline, so
	// they can pick a heartbeat cadence comfortably inside it.
	LeaseTTLMillis int64 `json:"lease_ttl_millis"`
}

// Lease is one grant of work: compute these fingerprints and upload
// their entries before the deadline (or keep heartbeating to extend it).
type Lease struct {
	ID           string   `json:"id"`
	Fingerprints []string `json:"fingerprints"`
	// Done: the matrix is complete; the worker should exit.
	Done bool `json:"done"`
	// RetryMillis (with an empty fingerprint list) asks the worker to
	// poll again later: all remaining work is leased to live workers.
	RetryMillis int64 `json:"retry_millis,omitempty"`
}

// Status is a point-in-time progress snapshot.
type Status struct {
	Total    int  `json:"total"`
	Done     int  `json:"done"`
	Resumed  int  `json:"resumed"`
	Leases   int  `json:"leases"`
	Uploads  int  `json:"uploads"`
	Rejected int  `json:"rejected"`
	Complete bool `json:"complete"`
}

// Named upload-rejection errors, surfaced over HTTP as distinct status
// codes and asserted on by tests with errors.Is.
var (
	// ErrUnknownLease: the lease expired (and was re-dispatched) or never
	// existed. Heartbeats on it are pointless; uploads are still welcome.
	ErrUnknownLease = errors.New("dispatch: unknown or expired lease")
	// ErrOutsideMatrix: the fingerprint is not part of this matrix.
	ErrOutsideMatrix = errors.New("dispatch: fingerprint outside the matrix")
	// ErrConflict: a different byte sequence is already accepted for this
	// fingerprint. First writer wins; byte-level disagreement between
	// honest same-build workers is impossible (the engine is
	// deterministic), so a conflict means version or configuration drift.
	ErrConflict = errors.New("dispatch: conflicting entry already accepted")
)

// maxLeasesPerJob bounds straggler re-dispatch: an unfinished
// fingerprint may be leased to at most this many workers concurrently.
// Two is enough to route around any single straggler without letting a
// large fleet pile onto the same tail job.
const maxLeasesPerJob = 2

// Options tune a Coordinator. The zero value is usable.
type Options struct {
	// LeaseTTL is how long a lease lives between heartbeats (default 30s).
	LeaseTTL time.Duration
	// Batch is the maximum fingerprints per lease (default 4).
	Batch int
	// Manifest, when set, is written into the store's directory as
	// manifest.json as soon as the matrix completes, so the finished
	// directory names the matrix it holds.
	Manifest *expcache.Manifest
	// Now overrides the clock (tests). Defaults to time.Now.
	Now func() time.Time
	// Logf, when set, receives one line per protocol event.
	Logf func(format string, args ...any)
}

type jobState struct {
	done   bool
	leases int // live leases currently covering this fingerprint
}

type lease struct {
	id       string
	worker   string
	fps      []string
	deadline time.Time
}

// Coordinator owns one fleet run over one matrix. All methods are safe
// for concurrent use (the HTTP handler calls them from many requests).
type Coordinator struct {
	spec  Spec
	store *expcache.DirStore

	mu       sync.Mutex
	jobs     map[string]*jobState
	order    []string // matrix order: ascending fingerprints
	leases   map[string]*lease
	seq      int
	done     int
	resumed  int
	uploads  int
	rejected int
	complete chan struct{}
	opts     Options
}

// NewCoordinator builds a coordinator for spec over store, resuming from
// whatever valid entries the store already holds: each one is decoded
// with the standard entry validation and, when it belongs to the matrix,
// marked done — so a coordinator restarted over a partial cache
// directory re-dispatches only the missing fingerprints. Invalid or
// foreign files are ignored (they are recomputed and overwritten).
func NewCoordinator(spec Spec, store *expcache.DirStore, opts Options) (*Coordinator, error) {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 30 * time.Second
	}
	if opts.Batch <= 0 {
		opts.Batch = 4
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if !sort.StringsAreSorted(spec.Fingerprints) {
		return nil, fmt.Errorf("dispatch: spec fingerprints not in ascending order")
	}
	spec.Format = SpecFormatVersion
	spec.LeaseTTLMillis = opts.LeaseTTL.Milliseconds()
	c := &Coordinator{
		spec:     spec,
		store:    store,
		jobs:     make(map[string]*jobState, len(spec.Fingerprints)),
		order:    spec.Fingerprints,
		leases:   make(map[string]*lease),
		complete: make(chan struct{}),
		opts:     opts,
	}
	for _, fp := range spec.Fingerprints {
		if c.jobs[fp] != nil {
			return nil, fmt.Errorf("dispatch: duplicate fingerprint %.12s... in spec", fp)
		}
		c.jobs[fp] = &jobState{}
	}
	have, err := store.ListEntries()
	if err != nil {
		return nil, err
	}
	for _, fp := range have {
		js := c.jobs[fp]
		if js == nil {
			continue // outside the matrix; left alone, never served
		}
		data, ok, err := store.GetEntry(fp)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		if _, err := expcache.DecodeEntry(data, fp); err != nil {
			c.opts.Logf("dispatch: ignoring invalid resume entry %.12s...: %v", fp, err)
			continue // stale or corrupt: recompute
		}
		js.done = true
		c.done++
		c.resumed++
	}
	if c.resumed > 0 {
		c.opts.Logf("dispatch: resumed %d of %d jobs from the store", c.resumed, len(c.order))
	}
	if c.done == len(c.order) {
		c.finishLocked()
	}
	return c, nil
}

// Spec returns the matrix description served to workers.
func (c *Coordinator) Spec() Spec { return c.spec }

// Done is closed when every matrix fingerprint has a validated entry
// (and the final manifest, if configured, has been written).
func (c *Coordinator) Done() <-chan struct{} { return c.complete }

// Complete reports whether the matrix is done, without the lease
// bookkeeping Status performs.
func (c *Coordinator) Complete() bool {
	select {
	case <-c.complete:
		return true
	default:
		return false
	}
}

// Status reports progress.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	return Status{
		Total: len(c.order), Done: c.done, Resumed: c.resumed,
		Leases: len(c.leases), Uploads: c.uploads, Rejected: c.rejected,
		Complete: c.done == len(c.order),
	}
}

// expireLocked releases the claims of every lease past its deadline.
// Their unfinished fingerprints drop back to the pending pool simply by
// having their lease count decremented — the next Lease call picks them
// up in matrix order. Called lazily from every state-touching method, so
// no background timer is needed (and tests drive time explicitly).
func (c *Coordinator) expireLocked() {
	now := c.opts.Now()
	//fglint:deterministic each lease expires on its own deadline; only the order of log lines varies
	for id, l := range c.leases {
		if now.Before(l.deadline) {
			continue
		}
		for _, fp := range l.fps {
			if js := c.jobs[fp]; js != nil && !js.done {
				js.leases--
			}
		}
		delete(c.leases, id)
		c.opts.Logf("dispatch: lease %s (%s) expired; %d fingerprints back in the pool", id, l.worker, len(l.fps))
	}
}

// Lease grants up to Batch fingerprints to a worker. Unleased pending
// jobs are preferred, in matrix order; when none remain, unfinished jobs
// whose covering lease has gone quiet (no heartbeat for half the TTL)
// are re-dispatched early — straggler cover ahead of full expiry, up to
// maxLeasesPerJob concurrent claims per fingerprint. An empty, non-done
// lease means everything left is freshly claimed by live workers: poll
// again after RetryMillis.
func (c *Coordinator) Lease(worker string) Lease {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	if c.done == len(c.order) {
		return Lease{Done: true}
	}
	// fresh counts, per fingerprint, the covering leases heartbeated
	// within the last half-TTL. A healthy worker beats every TTL/3, so a
	// fingerprint with fresh claims is being actively computed and is not
	// a steal candidate; one covered only by quiet leases is.
	now := c.opts.Now()
	fresh := make(map[string]int)
	//fglint:deterministic counting only: the per-fingerprint sums do not depend on order
	for _, l := range c.leases {
		if l.deadline.Sub(now) >= c.opts.LeaseTTL/2 {
			for _, fp := range l.fps {
				fresh[fp]++
			}
		}
	}
	var fps []string
	taken := make(map[string]bool, c.opts.Batch)
	for claims := 0; claims < maxLeasesPerJob && len(fps) < c.opts.Batch; claims++ {
		for _, fp := range c.order {
			if len(fps) == c.opts.Batch {
				break
			}
			js := c.jobs[fp]
			// taken guards the steal pass against fingerprints this same
			// call just claimed — they are not registered in c.leases yet,
			// so they would otherwise look like quiet steal candidates.
			if js.done || taken[fp] || js.leases != claims || (claims > 0 && fresh[fp] > 0) {
				continue
			}
			fps = append(fps, fp)
			taken[fp] = true
			js.leases++
		}
	}
	if len(fps) == 0 {
		return Lease{RetryMillis: c.opts.LeaseTTL.Milliseconds() / 4}
	}
	c.seq++
	l := &lease{
		id:       fmt.Sprintf("L%d", c.seq),
		worker:   worker,
		fps:      fps,
		deadline: c.opts.Now().Add(c.opts.LeaseTTL),
	}
	c.leases[l.id] = l
	c.opts.Logf("dispatch: lease %s -> %s: %d fingerprints", l.id, worker, len(fps))
	return Lease{ID: l.id, Fingerprints: fps}
}

// Heartbeat extends a lease's deadline. ErrUnknownLease reports a lease
// that expired (its work may already be re-dispatched) or never existed;
// the worker should finish and upload anyway — entries are accepted on
// their own validity, not their lease's.
func (c *Coordinator) Heartbeat(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	l, ok := c.leases[id]
	if !ok {
		return ErrUnknownLease
	}
	l.deadline = c.opts.Now().Add(c.opts.LeaseTTL)
	return nil
}

// Upload accepts one encoded result entry for fp. Validation is exactly
// the disk cache's: the bytes must decode as a current-format,
// current-engine entry whose embedded fingerprint matches fp, and fp
// must belong to the matrix. The first valid upload wins; a duplicate
// with identical bytes is acknowledged idempotently, different bytes are
// ErrConflict (kept out of the store). Leases fully covered by done
// fingerprints are retired immediately, so a finished worker's next
// Lease call reflects the new pool.
func (c *Coordinator) Upload(fp string, data []byte) error {
	if !expcache.IsFingerprintHex(fp) {
		return fmt.Errorf("%w: %.12q is not a 64-hex fingerprint", ErrOutsideMatrix, fp)
	}
	if _, err := expcache.DecodeEntry(data, fp); err != nil {
		c.reject()
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	js := c.jobs[fp]
	if js == nil {
		c.rejected++
		return fmt.Errorf("%w: %.12s...", ErrOutsideMatrix, fp)
	}
	if js.done {
		prev, ok, err := c.store.GetEntry(fp)
		if err != nil {
			return err
		}
		if ok && string(prev) == string(data) {
			c.uploads++ // duplicate of the accepted bytes: idempotent ack
			return nil
		}
		c.rejected++
		return fmt.Errorf("%w: %.12s...", ErrConflict, fp)
	}
	if err := c.store.PutEntry(fp, data); err != nil {
		return err
	}
	js.done = true
	c.done++
	c.uploads++
	c.retireCoveredLocked()
	if c.done == len(c.order) {
		c.finishLocked()
	}
	return nil
}

// reject counts a rejected upload (outside the state lock).
func (c *Coordinator) reject() {
	c.mu.Lock()
	c.rejected++
	c.mu.Unlock()
}

// retireCoveredLocked drops leases whose every fingerprint is done.
func (c *Coordinator) retireCoveredLocked() {
	//fglint:deterministic each lease is retired on its own coverage, independent of the others
	for id, l := range c.leases {
		covered := true
		for _, fp := range l.fps {
			if !c.jobs[fp].done {
				covered = false
				break
			}
		}
		if covered {
			delete(c.leases, id)
		}
	}
}

// finishLocked marks the matrix complete: writes the final manifest (if
// configured) and closes Done. Idempotent.
func (c *Coordinator) finishLocked() {
	select {
	case <-c.complete:
		return
	default:
	}
	if c.opts.Manifest != nil {
		if err := c.store.WriteManifest(c.opts.Manifest); err != nil {
			// The entries are all on disk and valid; a manifest write
			// failure leaves a directory that a restarted coordinator
			// completes again, it does not un-complete the matrix.
			c.opts.Logf("dispatch: writing final manifest: %v", err)
		}
	}
	c.leases = make(map[string]*lease)
	close(c.complete)
}
