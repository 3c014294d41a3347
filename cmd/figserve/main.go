// Command figserve coordinates a fleet of figbench workers computing one
// experiment matrix, the way to spread the matrix over several machines:
// it enumerates the matrix, serves fingerprint leases over HTTP, tracks
// heartbeats, re-dispatches expired or straggling leases, validates
// uploaded result entries, and fills one cache directory plus a final
// manifest.json — then exits.
//
// Usage:
//
//	figserve -cache-dir DIR [-addr :9090] [-lease-ttl 30s] [-batch 4] \
//	         [-insts N] [-apps N] [-mixes N] [-mc N] <experiment>...
//	figserve -cache-dir fleet.cache table2 fig7
//
// Workers are plain figbench processes pointed at the coordinator:
//
//	figbench -worker http://coordinator:9090
//
// They adopt the coordinator's scale and experiment set (no local flags
// to keep in sync) and refuse to serve a coordinator whose engine
// version or enumerated matrix differs from their own build's. When the
// matrix completes, the cache directory serves a warm rerun
//
//	figbench -insts ... -cache-dir DIR <experiment>...
//
// with misses=0 computed=0 and tables byte-identical to a solo run; its
// entries are byte-identical to those a solo figbench -cache-dir run
// writes. Restarting figserve over a partially-filled directory resumes: valid
// entries are detected and only the missing fingerprints re-dispatched.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/dispatch"
	"repro/internal/expcache"
	"repro/internal/harness"
)

func main() {
	def := harness.DefaultScale()
	addr := flag.String("addr", ":9090", "HTTP listen address (host:port; port 0 picks a free port)")
	cacheDir := flag.String("cache-dir", "", "destination cache directory for validated entries (required)")
	insts := flag.Int64("insts", def.Insts, "per-core instruction target per run")
	apps := flag.Int("apps", def.SingleApps, "single-core applications to include (max 20)")
	mixes := flag.Int("mixes", def.MixesPerCategory, "eight-core mixes per category (max 5)")
	mc := flag.Int("mc", def.MCIterations, "Monte-Carlo iterations for the circuit model")
	leaseTTL := flag.Duration("lease-ttl", 30*time.Second, "lease lifetime between heartbeats; expired leases are re-dispatched")
	batch := flag.Int("batch", 4, "maximum fingerprints per lease")
	verbose := flag.Bool("v", false, "log every protocol event")
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	if *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "figserve: -cache-dir is required (validated entries must land somewhere)")
		usage()
		os.Exit(2)
	}
	names := expandAll(args)

	// Plan-only enumeration: the coordinator never simulates.
	r := harness.NewRunner(harness.Scale{
		Insts: *insts, SingleApps: *apps, MixesPerCategory: *mixes, MCIterations: *mc,
	})
	spec, _, manifest, err := dispatch.BuildSpec(r, names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figserve:", err)
		os.Exit(1)
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, a ...any) { fmt.Printf(format+"\n", a...) }
	}
	coord, err := dispatch.NewCoordinator(spec, expcache.NewDirStore(*cacheDir), dispatch.Options{
		LeaseTTL: *leaseTTL,
		Batch:    *batch,
		Manifest: manifest,
		Logf:     logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "figserve:", err)
		os.Exit(1)
	}
	st := coord.Status()
	fmt.Printf("figserve: matrix %d jobs (%d resumed) over %v\n", st.Total, st.Resumed, names)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figserve:", err)
		os.Exit(1)
	}
	// The smoke test and scripts parse this line to find a :0 port.
	fmt.Printf("figserve: listening on http://%s\n", ln.Addr())

	srv := &http.Server{Handler: coord.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// Progress heartbeat on stdout until the matrix completes.
	tick := time.NewTicker(2 * time.Second)
	defer tick.Stop()
	last := Status{}
	for {
		select {
		case err := <-serveErr:
			fmt.Fprintln(os.Stderr, "figserve:", err)
			os.Exit(1)
		case <-tick.C:
			if st := coord.Status(); st != last {
				last = st
				fmt.Printf("figserve: %d/%d done, %d leases active, %d uploads (%d rejected)\n",
					st.Done, st.Total, st.Leases, st.Uploads, st.Rejected)
			}
		case <-coord.Done():
			st := coord.Status()
			fmt.Printf("figserve: complete: %d jobs (%d resumed, %d uploaded, %d rejected), manifest written to %s\n",
				st.Total, st.Resumed, st.Uploads, st.Rejected, *cacheDir)
			// Drain: idle workers learn of completion on their next lease
			// poll (the finishing worker already learned from its upload
			// ack). They poll every lease TTL/4, so keep answering for two
			// poll intervals; a fixed shorter drain raced the poll and
			// failed idle workers with "connection refused".
			time.Sleep(*leaseTTL / 2)
			srv.Close()
			return
		}
	}
}

// Status aliases dispatch.Status for the change-detection comparison.
type Status = dispatch.Status

// expandAll replaces the "all" shorthand with the full catalog, matching
// figbench's convention (custom is excluded: it needs -workload input).
func expandAll(args []string) []string {
	names := make([]string, 0, len(args))
	for _, a := range args {
		if a == "all" {
			r := harness.NewRunner(harness.QuickScale())
			for _, e := range r.Catalog() {
				names = append(names, e.Name)
			}
			continue
		}
		names = append(names, a)
	}
	return names
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: figserve -cache-dir DIR [flags] <experiment>...
experiments: all table1 table2 fig5 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15 sec42 sec83 multithreaded ablation
workers: figbench -worker http://HOST:PORT`)
	flag.PrintDefaults()
}
