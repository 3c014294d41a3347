package dispatch

import (
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/expcache"
	"repro/internal/harness"
)

// chaosScale is small enough for CI but large enough that leases, the
// short TTL, and the fault injections all overlap real computation.
var chaosScale = harness.Scale{Insts: 10_000, SingleApps: 2, MixesPerCategory: 1, MCIterations: 100, Parallelism: 2}

var chaosExperiments = []string{"table2", "fig7"}

// soloCacheDir computes the reference directory: one solo run of the
// experiments into a fresh cache, manifest written the way a completed
// fleet writes its own. Byte-identity of the fleet directory against
// this is the test's convergence oracle.
func soloCacheDir(t *testing.T, names []string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "solo")
	r := harness.NewRunnerWithCache(chaosScale, expcache.New(dir), false)
	_, jobs, manifest, err := BuildSpec(r, names)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunJobs(jobs); err != nil {
		t.Fatal(err)
	}
	if err := expcache.NewDirStore(dir).WriteManifest(manifest); err != nil {
		t.Fatal(err)
	}
	return dir
}

// dirContents reads every file in dir into a map for byte comparison.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(des))
	for _, de := range des {
		b, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[de.Name()] = string(b)
	}
	return out
}

// compareDirs requires dir, assembled by a fleet, to hold exactly the
// files of soloDir, byte for byte.
func compareDirs(t *testing.T, dir, soloDir string) {
	t.Helper()
	got, solo := dirContents(t, dir), dirContents(t, soloDir)
	var names []string
	for name := range solo {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		data, ok := got[name]
		if !ok {
			t.Errorf("%s is missing %s", dir, name)
			continue
		}
		if data != solo[name] {
			t.Errorf("%s differs between %s and the solo directory (%d vs %d bytes)", name, dir, len(data), len(solo[name]))
		}
	}
	for name := range got {
		if _, ok := solo[name]; !ok {
			t.Errorf("%s has extra file %s", dir, name)
		}
	}
}

// TestDispatchConvergesUnderFaults runs a coordinator with a deliberately
// hostile in-process fleet — a crash mid-lease, a worker that never
// heartbeats, a double-sender, a straggler — and requires the fleet
// directory to be byte-identical to a solo run, with a warm rerun over
// it computing nothing.
func TestDispatchConvergesUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fleet simulation")
	}
	fleetDir := filepath.Join(t.TempDir(), "fleet")
	planner := harness.NewRunner(chaosScale)
	spec, jobs, manifest, err := BuildSpec(planner, chaosExperiments)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(spec, expcache.NewDirStore(fleetDir), Options{
		LeaseTTL: 500 * time.Millisecond, // expires under the dropped-heartbeat worker mid-compute
		Batch:    2,
		Manifest: manifest,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	run := func(id string, faults Faults) <-chan error {
		ch := make(chan error, 1)
		go func() {
			ch <- RunWorker(srv.URL, WorkerOptions{ID: id, Parallelism: 2, Logf: t.Logf, Faults: faults})
		}()
		return ch
	}
	crashed := run("w-crash", Faults{CrashAfterUploads: 1})
	healthy := run("w-healthy", Faults{})
	// The deaf worker also stalls past the TTL, so its leases genuinely
	// expire mid-flight and get re-dispatched — its late uploads then land
	// as idempotent acks of entries someone else already delivered.
	deaf := run("w-deaf", Faults{DropHeartbeats: true, StallBeforeUpload: 700 * time.Millisecond})
	dup := run("w-dup", Faults{DuplicateUploads: true, StallBeforeUpload: 200 * time.Millisecond})

	// The crasher must die where instructed; a replacement takes over,
	// as a restarted worker process would.
	select {
	case err := <-crashed:
		if !errors.Is(err, ErrInjectedCrash) {
			t.Fatalf("crash worker: got %v, want ErrInjectedCrash", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("crash worker did not crash")
	}
	replacement := run("w-crash2", Faults{})

	select {
	case <-coord.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("matrix did not converge; status %+v", coord.Status())
	}
	for name, ch := range map[string]<-chan error{"w-healthy": healthy, "w-deaf": deaf, "w-dup": dup, "w-crash2": replacement} {
		select {
		case err := <-ch:
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
		case <-time.After(60 * time.Second):
			t.Errorf("%s did not exit after completion", name)
		}
	}

	st := coord.Status()
	if !st.Complete || st.Done != len(jobs) {
		t.Fatalf("status after Done: %+v", st)
	}
	if st.Rejected != 0 {
		// Same-build workers are deterministic: every duplicate upload
		// must byte-match the accepted entry and be acked, not rejected.
		t.Errorf("rejected=%d: duplicate uploads from identical builds should never conflict", st.Rejected)
	}

	compareDirs(t, fleetDir, soloCacheDir(t, chaosExperiments))

	// A warm rerun over the fleet directory computes nothing.
	warm := expcache.New(fleetDir)
	wr := harness.NewRunnerWithCache(chaosScale, warm, false)
	_, wjobs, _, err := BuildSpec(wr, chaosExperiments)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wr.RunJobs(wjobs); err != nil {
		t.Fatal(err)
	}
	if cs := wr.CacheStats(); cs.Misses != 0 || cs.Stores != 0 {
		t.Fatalf("warm rerun over the fleet directory: misses=%d computed=%d, want 0/0", cs.Misses, cs.Stores)
	}
}

// TestCoordinatorRestartResume kills a fleet mid-run (worker crash, then
// coordinator shutdown) and restarts the coordinator over the partial
// directory: the finished entries must be adopted, only the rest
// re-dispatched.
func TestCoordinatorRestartResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fleet simulation")
	}
	dir := filepath.Join(t.TempDir(), "fleet")
	names := []string{"table2"}
	planner := harness.NewRunner(chaosScale)
	spec, jobs, manifest, err := BuildSpec(planner, names)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) < 2 {
		t.Fatalf("restart test needs a matrix of at least 2 jobs, got %d", len(jobs))
	}

	// Incarnation one: the only worker crashes after one upload, then the
	// coordinator goes down with the matrix incomplete.
	c1, err := NewCoordinator(spec, expcache.NewDirStore(dir), Options{LeaseTTL: 2 * time.Second, Batch: 1, Manifest: manifest, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(c1.Handler())
	err = RunWorker(srv1.URL, WorkerOptions{ID: "w1", Parallelism: 2, Logf: t.Logf, Faults: Faults{CrashAfterUploads: 1}})
	if !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("worker: got %v, want ErrInjectedCrash", err)
	}
	srv1.Close()
	if st := c1.Status(); st.Done != 1 || st.Complete {
		t.Fatalf("incarnation one should die with exactly 1 of %d jobs done, status %+v", len(jobs), st)
	}

	// Incarnation two: resumes the finished entry, dispatches the rest.
	c2, err := NewCoordinator(spec, expcache.NewDirStore(dir), Options{LeaseTTL: 2 * time.Second, Batch: 2, Manifest: manifest, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Status(); st.Resumed != 1 {
		t.Fatalf("restart resumed %d entries, want 1 (status %+v)", st.Resumed, st)
	}
	srv2 := httptest.NewServer(c2.Handler())
	defer srv2.Close()
	if err := RunWorker(srv2.URL, WorkerOptions{ID: "w2", Parallelism: 2, Logf: t.Logf}); err != nil {
		t.Fatalf("replacement worker: %v", err)
	}
	select {
	case <-c2.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("restarted coordinator did not converge; status %+v", c2.Status())
	}
	compareDirs(t, dir, soloCacheDir(t, names))
}
