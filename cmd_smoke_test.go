package repro_bench

import (
	"bufio"
	"bytes"
	"context"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCommandsSmoke builds the cmd/* binaries and drives their
// user-facing contracts end to end: catalog listing, workload stats,
// input validation, checkpoint/restore, and a figserve fleet of figbench
// workers, including a coordinator restarted over a partial directory.
func TestCommandsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping command execution in -short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go toolchain not in PATH: %v", err)
	}

	binDir := t.TempDir()
	build := exec.Command(goBin, "build", "-o", binDir, "./cmd/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building commands: %v\n%s", err, out)
	}
	workDir := t.TempDir()

	// run executes a built binary and returns its combined output; the
	// returned error is nil iff the binary exited zero.
	run := func(t *testing.T, name string, args ...string) (string, error) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		cmd := exec.CommandContext(ctx, filepath.Join(binDir, name), args...)
		cmd.Dir = workDir
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
	mustRun := func(t *testing.T, name string, args ...string) string {
		t.Helper()
		out, err := run(t, name, args...)
		if err != nil {
			t.Fatalf("%s %v failed: %v\n%s", name, args, err, out)
		}
		return out
	}

	t.Run("figsim-list", func(t *testing.T) {
		t.Parallel()
		out := mustRun(t, "figsim", "-list")
		for _, want := range []string{"presets:", "FIGCache-Fast", "mix-100-0", "mt-canneal"} {
			if !strings.Contains(out, want) {
				t.Errorf("figsim -list missing %q:\n%s", want, out)
			}
		}
		if strings.Contains(out, "trace:") {
			t.Errorf("figsim -list advertises trace replay:\n%s", out)
		}
	})

	t.Run("figsim-did-you-mean", func(t *testing.T) {
		t.Parallel()
		out, err := run(t, "figsim", "-workload", "mix-100-O", "-insts", "1000")
		if err == nil {
			t.Fatal("figsim accepted a typo'd workload")
		}
		if !strings.Contains(out, `did you mean "mix-100-0"`) {
			t.Errorf("no suggestion for typo'd mix name:\n%s", out)
		}
		if out, err := run(t, "figsim", "-workload", "trace:x.trc", "-insts", "1000"); err == nil {
			t.Errorf("figsim accepted a trace: workload:\n%s", out)
		}
	})

	t.Run("tracegen-stats", func(t *testing.T) {
		t.Parallel()
		out := mustRun(t, "tracegen", "-bench", "mcf", "-n", "5000", "-stats")
		for _, want := range []string{"benchmark:", "mcf", "write fraction:"} {
			if !strings.Contains(out, want) {
				t.Errorf("tracegen -stats missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("tracegen-rejects-bad-input", func(t *testing.T) {
		t.Parallel()
		for _, args := range [][]string{
			{"-n", "0"},
			{"-n", "-5"},
			{"-no-such-flag"},
			{"unexpected-positional"},
			{"-bench", "nosuch"},
		} {
			out, err := run(t, "tracegen", args...)
			if err == nil {
				t.Errorf("tracegen %v exited zero:\n%s", args, out)
			}
		}
		// Validation failures must explain themselves.
		out, _ := run(t, "tracegen", "-n", "0")
		if !strings.Contains(out, "usage:") || !strings.Contains(out, "-n must be positive") {
			t.Errorf("tracegen -n 0 printed no usage message:\n%s", out)
		}
	})

	t.Run("checkpoint-restore-identical-stats", func(t *testing.T) {
		t.Parallel()
		args := []string{"-preset", "FIGCache-Fast", "-workload", "mcf", "-insts", "20000"}
		snap := filepath.Join(workDir, "smoke-ckpt.fgss")

		full := mustRun(t, "figsim", args...)
		// Checkpoint mid-run, then let the same process finish: statistics
		// must be untouched by the snapshot detour.
		ckpt := mustRun(t, "figsim", append([]string{"-checkpoint-at", "7000", "-checkpoint-out", snap}, args...)...)
		if full != ckpt {
			t.Errorf("checkpointing changed the statistics:\n--- full\n%s\n--- checkpointed\n%s", full, ckpt)
		}
		// A fresh process restored from the snapshot must finish with
		// byte-identical statistics — the bit-exact resume promise.
		restored := mustRun(t, "figsim", append([]string{"-restore", snap}, args...)...)
		if full != restored {
			t.Errorf("restore diverged from the uninterrupted run:\n--- full\n%s\n--- restored\n%s", full, restored)
		}

		// A snapshot only restores into the configuration that wrote it.
		out, err := run(t, "figsim", "-restore", snap, "-preset", "FIGCache-Fast", "-workload", "gcc", "-insts", "20000")
		if err == nil {
			t.Fatalf("figsim restored a snapshot into a different workload:\n%s", out)
		}
		if !strings.Contains(out, "restore refused") {
			t.Errorf("mismatched restore did not say why it refused:\n%s", out)
		}
	})

	t.Run("figbench-workload-needs-custom", func(t *testing.T) {
		t.Parallel()
		out, err := run(t, "figbench", "-workload", "mcf", "table1")
		if err == nil {
			t.Fatalf("figbench silently ignored -workload without the custom experiment:\n%s", out)
		}
		if !strings.Contains(out, "custom") {
			t.Errorf("refusal does not point at the custom experiment:\n%s", out)
		}
	})

	// startFigserve launches the coordinator on an ephemeral port and
	// parses the base URL from its "listening on" line. The output method
	// is only safe after wait() has returned.
	type figserveProc struct {
		cmd      *exec.Cmd
		url      string
		out, err bytes.Buffer
		scanDone chan struct{}
	}
	startFigserve := func(t *testing.T, args ...string) *figserveProc {
		t.Helper()
		p := &figserveProc{scanDone: make(chan struct{})}
		p.cmd = exec.Command(filepath.Join(binDir, "figserve"), args...)
		p.cmd.Dir = workDir
		stdout, err := p.cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		p.cmd.Stderr = &p.err
		if err := p.cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.cmd.Process.Kill() })
		urlCh := make(chan string, 1)
		go func() {
			defer close(p.scanDone)
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				line := sc.Text()
				p.out.WriteString(line + "\n")
				if rest, ok := strings.CutPrefix(line, "figserve: listening on "); ok {
					select {
					case urlCh <- rest:
					default:
					}
				}
			}
		}()
		select {
		case p.url = <-urlCh:
			return p
		case <-time.After(30 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.scanDone
			t.Fatalf("figserve never printed its listening address:\n%s%s", p.out.String(), p.err.String())
			return nil
		}
	}
	// wait drains figserve's stdout to EOF, then reaps the process; the
	// combined output is complete once it returns.
	waitFigserve := func(p *figserveProc) (string, error) {
		select {
		case <-p.scanDone:
		case <-time.After(2 * time.Minute):
			_ = p.cmd.Process.Kill()
			<-p.scanDone
		}
		err := p.cmd.Wait()
		return p.out.String() + p.err.String(), err
	}
	scaleArgs := []string{"-insts", "8000", "-apps", "2", "-mixes", "1", "-mc", "100"}

	t.Run("figserve-fleet-warm-rerun", func(t *testing.T) {
		t.Parallel()
		dir := filepath.Join(workDir, "fleet-cache")
		serveArgs := append(append([]string{"-addr", "127.0.0.1:0", "-cache-dir", dir, "-lease-ttl", "10s", "-batch", "2"}, scaleArgs...), "table2", "fig7")
		serve := startFigserve(t, serveArgs...)

		// Two worker processes split the matrix between them.
		errs := make(chan error, 2)
		outs := make([]string, 2)
		for i := range outs {
			go func(i int) {
				out, err := run(t, "figbench", "-worker", serve.url, "-worker-id", []string{"w1", "w2"}[i])
				outs[i] = out
				errs <- err
			}(i)
		}
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("worker failed: %v\n--- w1\n%s\n--- w2\n%s", err, outs[0], outs[1])
			}
		}
		serveOut, err := waitFigserve(serve)
		if err != nil {
			t.Fatalf("figserve exited nonzero: %v\n%s", err, serveOut)
		}
		if !strings.Contains(serveOut, "figserve: complete:") {
			t.Errorf("figserve never reported completion:\n%s", serveOut)
		}
		for i, out := range outs {
			if !strings.Contains(out, "matrix complete") {
				t.Errorf("worker %d did not report a complete matrix:\n%s", i+1, out)
			}
		}
		// The assembled directory serves a warm rerun without a single
		// recomputation.
		warm := mustRun(t, "figbench", append(append([]string{"-cache-dir", dir}, scaleArgs...), "table2", "fig7")...)
		if !strings.Contains(warm, "misses=0 computed=0") {
			t.Errorf("warm rerun over the fleet directory recomputed work:\n%s", warm)
		}
	})

	t.Run("figserve-restart-resume", func(t *testing.T) {
		t.Parallel()
		dir := filepath.Join(workDir, "resume-cache")
		// Seed a partial directory the way an interrupted fleet leaves one:
		// at -apps 1, table2 computes one of the two runs it has at -apps 2.
		mustRun(t, "figbench", "-insts", "8000", "-apps", "1", "-mixes", "1", "-mc", "100", "-cache-dir", dir, "table2")

		serveArgs := append(append([]string{"-addr", "127.0.0.1:0", "-cache-dir", dir, "-lease-ttl", "10s", "-batch", "2"}, scaleArgs...), "table2")
		// First coordinator incarnation adopts the partial entries, then
		// dies before any worker shows up.
		serve1 := startFigserve(t, serveArgs...)
		if err := serve1.cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		out1, _ := waitFigserve(serve1)
		if !strings.Contains(out1, "(1 resumed)") {
			t.Fatalf("first incarnation did not resume the seeded entry:\n%s", out1)
		}

		// The restarted coordinator resumes the same entry and dispatches
		// only the remainder to a single worker.
		serve2 := startFigserve(t, serveArgs...)
		if out, err := run(t, "figbench", "-worker", serve2.url); err != nil {
			t.Fatalf("worker failed: %v\n%s", err, out)
		}
		out2, err := waitFigserve(serve2)
		if err != nil {
			t.Fatalf("figserve exited nonzero: %v\n%s", err, out2)
		}
		if !strings.Contains(out2, "(1 resumed)") {
			t.Fatalf("restarted coordinator did not resume:\n%s", out2)
		}
		if !strings.Contains(out2, "figserve: complete:") {
			t.Errorf("restarted coordinator never completed:\n%s", out2)
		}
		warm := mustRun(t, "figbench", append(append([]string{"-cache-dir", dir}, scaleArgs...), "table2")...)
		if !strings.Contains(warm, "misses=0 computed=0") {
			t.Errorf("warm rerun after restart-resume recomputed work:\n%s", warm)
		}
	})
}
