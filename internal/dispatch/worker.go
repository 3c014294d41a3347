package dispatch

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/expcache"
	"repro/internal/harness"
	"repro/internal/sim"
)

// ErrInjectedCrash is what a worker returns when its Faults told it to
// die mid-lease — the chaos tests assert on it to prove the crash
// actually happened where intended.
var ErrInjectedCrash = errors.New("dispatch: injected worker crash")

// Faults injects worker failure modes for the chaos tests. The zero
// value is a healthy worker. Faults live here, in the real client code
// path, so the failure the test injects is the failure a production
// worker would actually produce (a killed process abandons its lease
// exactly like CrashAfterUploads does: computed-but-unuploaded work is
// simply gone).
type Faults struct {
	// CrashAfterUploads > 0: return ErrInjectedCrash after that many
	// successful uploads, abandoning the rest of the current lease.
	CrashAfterUploads int
	// DropHeartbeats: never send heartbeats, so every lease this worker
	// holds expires mid-computation and is re-dispatched. The worker
	// still uploads late results — exercising the duplicate-upload path.
	DropHeartbeats bool
	// DuplicateUploads: send every entry twice (network retry double-
	// send); the second must be acknowledged idempotently.
	DuplicateUploads bool
	// StallBeforeUpload pauses before each upload — a straggler whose
	// work gets re-dispatched and finished by someone else first.
	StallBeforeUpload time.Duration
}

// WorkerOptions configure RunWorker. The zero value works.
type WorkerOptions struct {
	// ID names the worker in coordinator logs (default "worker").
	ID string
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Heartbeat overrides the cadence (default: a third of the
	// coordinator's lease TTL).
	Heartbeat time.Duration
	// Client overrides the HTTP client (default http.DefaultClient).
	Client *http.Client
	// Logf, when set, receives one line per worker event.
	Logf func(format string, args ...any)
	// Faults injects failure modes (tests only).
	Faults Faults
}

// RunWorker serves one coordinator until its matrix is complete: fetch
// the spec, rebuild the identical job index locally (refusing to run on
// engine or matrix drift), then loop lease -> simulate -> upload. The
// worker computes through a private in-memory result cache, exactly as
// a solo figbench run does.
// Returns nil when the coordinator reports the matrix done.
func RunWorker(baseURL string, opts WorkerOptions) error {
	if opts.ID == "" {
		opts.ID = "worker"
	}
	if opts.Client == nil {
		opts.Client = http.DefaultClient
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	baseURL = strings.TrimRight(baseURL, "/")
	w := &worker{base: baseURL, opts: opts}

	spec, err := w.fetchSpec()
	if err != nil {
		return err
	}
	if spec.Format != SpecFormatVersion {
		return fmt.Errorf("dispatch: coordinator speaks protocol format %d, this worker %d", spec.Format, SpecFormatVersion)
	}
	if spec.Engine != sim.EngineVersion {
		return fmt.Errorf("dispatch: coordinator runs engine version %d, this worker %d: results would be rejected", spec.Engine, sim.EngineVersion)
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = time.Duration(spec.LeaseTTLMillis) * time.Millisecond / 3
		if opts.Heartbeat <= 0 {
			opts.Heartbeat = 10 * time.Second
		}
		w.opts.Heartbeat = opts.Heartbeat
	}

	// Rebuild the matrix locally and verify it is the coordinator's:
	// identical fingerprint lists or refuse. This is the whole-fleet
	// consistency check — engine version alone does not cover catalog or
	// scale drift, the fingerprints cover everything.
	cache := expcache.New("")
	w.runner = harness.NewRunnerWithCache(harness.Scale{
		Insts: spec.Insts, SingleApps: spec.Apps, MixesPerCategory: spec.Mixes,
		MCIterations: spec.MC, Parallelism: opts.Parallelism,
	}, cache, false)
	w.cache = cache
	_, builders, err := w.runner.SelectExperiments(spec.Experiments)
	if err != nil {
		return err
	}
	w.jobs, w.fps, err = w.runner.EnumerateJobs(builders...)
	if err != nil {
		return fmt.Errorf("dispatch: enumerating the matrix: %w", err)
	}
	if len(w.fps) != len(spec.Fingerprints) {
		return fmt.Errorf("dispatch: local matrix has %d jobs, coordinator's %d: builds or scales differ", len(w.fps), len(spec.Fingerprints))
	}
	w.index = make(map[string]int, len(w.fps))
	for i, fp := range w.fps {
		local := fp.String()
		if local != spec.Fingerprints[i] {
			return fmt.Errorf("dispatch: matrix disagrees with the coordinator at index %d (%.12s... vs %.12s...): builds differ", i, local, spec.Fingerprints[i])
		}
		w.index[local] = i
	}
	opts.Logf("%s: serving %s: %d-job matrix verified", opts.ID, baseURL, len(w.fps))

	uploads := 0
	for {
		lease, err := w.fetchLease()
		if err != nil {
			return err
		}
		if lease.Done {
			opts.Logf("%s: matrix complete", opts.ID)
			return nil
		}
		if len(lease.Fingerprints) == 0 {
			retry := time.Duration(lease.RetryMillis) * time.Millisecond
			if retry <= 0 {
				retry = time.Second
			}
			time.Sleep(retry)
			continue
		}
		done, err := w.serveLease(lease, &uploads)
		if err != nil {
			return err
		}
		if done {
			// The upload response already said the matrix is complete; a
			// follow-up lease poll could race the coordinator's exit.
			opts.Logf("%s: matrix complete", opts.ID)
			return nil
		}
	}
}

// worker carries one RunWorker invocation's state.
type worker struct {
	base   string
	opts   WorkerOptions
	runner *harness.Runner
	cache  *expcache.Cache
	// jobs and fps are the verified matrix index (EnumerateJobs); index
	// maps a hex fingerprint to its position in both.
	jobs  []sim.Config
	fps   []sim.Fingerprint
	index map[string]int
}

// serveLease computes one lease's fingerprints and uploads the entries,
// heartbeating in the background while the simulations run. The bool is
// true when an upload response reported the matrix complete.
func (w *worker) serveLease(lease Lease, uploads *int) (bool, error) {
	w.opts.Logf("%s: lease %s: %d fingerprints", w.opts.ID, lease.ID, len(lease.Fingerprints))
	stop := make(chan struct{})
	defer close(stop)
	if !w.opts.Faults.DropHeartbeats {
		go w.heartbeatLoop(lease.ID, stop)
	}

	leased := make([]int, len(lease.Fingerprints))
	cfgs := make([]sim.Config, len(lease.Fingerprints))
	for k, hex := range lease.Fingerprints {
		i, ok := w.index[hex]
		if !ok {
			// Cannot happen after the matrix check; refuse loudly if the
			// coordinator invents fingerprints anyway.
			return false, fmt.Errorf("dispatch: leased fingerprint %.12s... is not in the verified matrix", hex)
		}
		leased[k], cfgs[k] = i, w.jobs[i]
	}
	// One batch run on the runner's worker pool, exactly as a solo
	// figbench run computes its matrix.
	if _, err := w.runner.RunJobs(cfgs); err != nil {
		return false, fmt.Errorf("dispatch: computing lease %s: %w", lease.ID, err)
	}
	matrixDone := false
	for k, i := range leased {
		hex := lease.Fingerprints[k]
		res, ok := w.cache.Get(w.fps[i])
		if !ok {
			return false, fmt.Errorf("dispatch: computed result for %.12s... missing from the local cache", hex)
		}
		data, err := expcache.EncodeEntry(w.fps[i], res)
		if err != nil {
			return false, err
		}
		if d := w.opts.Faults.StallBeforeUpload; d > 0 {
			time.Sleep(d)
		}
		done, err := w.upload(hex, data)
		if err != nil {
			return false, err
		}
		matrixDone = matrixDone || done
		if w.opts.Faults.DuplicateUploads {
			if _, err := w.upload(hex, data); err != nil {
				return false, fmt.Errorf("dispatch: duplicate upload rejected: %w", err)
			}
		}
		*uploads++
		if n := w.opts.Faults.CrashAfterUploads; n > 0 && *uploads >= n {
			return false, ErrInjectedCrash
		}
	}
	return matrixDone, nil
}

// heartbeatLoop extends the lease until stop closes. A Gone response
// means the lease expired (the coordinator may have re-dispatched it);
// the worker keeps computing and uploads anyway — first writer wins.
func (w *worker) heartbeatLoop(leaseID string, stop <-chan struct{}) {
	t := time.NewTicker(w.opts.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if err := w.heartbeat(leaseID); err != nil {
				w.opts.Logf("%s: heartbeat %s: %v", w.opts.ID, leaseID, err)
				return
			}
		}
	}
}

// --- HTTP plumbing ---

func (w *worker) fetchSpec() (Spec, error) {
	resp, err := w.opts.Client.Get(w.base + "/v1/spec")
	if err != nil {
		return Spec{}, fmt.Errorf("dispatch: fetching spec: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Spec{}, fmt.Errorf("dispatch: fetching spec: %s", respError(resp))
	}
	var spec Spec
	if err := json.NewDecoder(resp.Body).Decode(&spec); err != nil {
		return Spec{}, fmt.Errorf("dispatch: decoding spec: %w", err)
	}
	return spec, nil
}

// fetchLease polls for work, retrying transient connection failures a
// few times — a coordinator restarting over its partial cache directory
// comes back with the matrix state intact, so workers should ride
// through the gap rather than die on the first refused connection.
func (w *worker) fetchLease() (Lease, error) {
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * 500 * time.Millisecond)
		}
		lease, err := w.fetchLeaseOnce()
		if err == nil {
			return lease, nil
		}
		lastErr = err
		w.opts.Logf("%s: %v (attempt %d)", w.opts.ID, err, attempt+1)
	}
	return Lease{}, lastErr
}

func (w *worker) fetchLeaseOnce() (Lease, error) {
	body, _ := json.Marshal(map[string]string{"worker": w.opts.ID})
	resp, err := w.opts.Client.Post(w.base+"/v1/lease", "application/json", bytes.NewReader(body))
	if err != nil {
		return Lease{}, fmt.Errorf("dispatch: requesting lease: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Lease{}, fmt.Errorf("dispatch: requesting lease: %s", respError(resp))
	}
	var lease Lease
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		return Lease{}, fmt.Errorf("dispatch: decoding lease: %w", err)
	}
	return lease, nil
}

func (w *worker) heartbeat(leaseID string) error {
	body, _ := json.Marshal(map[string]string{"lease": leaseID})
	resp, err := w.opts.Client.Post(w.base+"/v1/heartbeat", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusGone {
		return ErrUnknownLease
	}
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("heartbeat: %s", respError(resp))
	}
	return nil
}

// upload PUTs one entry; the bool reports whether the coordinator says
// the matrix is now complete. Conflict (409) is fatal — the worker's
// bytes disagree with an accepted entry, meaning build drift, and every
// further upload would conflict the same way.
func (w *worker) upload(fp string, data []byte) (bool, error) {
	req, err := http.NewRequest(http.MethodPut, w.base+"/v1/entry/"+fp, bytes.NewReader(data))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		return false, fmt.Errorf("dispatch: uploading %.12s...: %w", fp, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent, http.StatusOK:
		var ack struct {
			Done bool `json:"done"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&ack)
		return ack.Done, nil
	case http.StatusConflict:
		return false, fmt.Errorf("dispatch: uploading %.12s...: %w: %s", fp, ErrConflict, respError(resp))
	default:
		return false, fmt.Errorf("dispatch: uploading %.12s...: %s", fp, respError(resp))
	}
}

// respError renders an HTTP error response's status and trimmed body.
func respError(resp *http.Response) string {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Sprintf("%s: %s", resp.Status, strings.TrimSpace(string(b)))
}
