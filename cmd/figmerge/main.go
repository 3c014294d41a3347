// Command figmerge assembles an experiment matrix computed in shards: it
// folds the result-cache directories that figbench -shard runs filled on
// separate machines into one directory an unsharded figbench run can
// render from without recomputing anything.
//
// Usage:
//
//	figmerge -out DST SRC...
//	figmerge -out merged .cache-shard1 .cache-shard2
//
// The sources' shard manifests name the matrix, and must all name the
// same one. DST is then filled the way figserve fills its directory
// (dispatch.Merge): entries already in DST are adopted, and every source
// entry is validated as it is copied in, sources in argument order. An
// entry that is corrupt, lies outside the matrix or conflicts with an
// accepted one (the first writer wins, DST's own entries first) is
// printed as a problem line, as is an incomplete matrix; any problem
// exits 1. DST only ever holds validated matrix entries, so a refused
// merge leaves a valid partial cache. Fold the missing shards in later
// by naming DST as a source:
//
//	figmerge -out merged merged .cache-shard3
//
// A complete DST carries the same manifest-1of1.json a solo run writes.
// To check shards without touching DST, point -out at a throwaway
// directory.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dispatch"
)

func main() {
	out := flag.String("out", "", "destination cache directory (created if missing; may also be a source)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: figmerge -out DST SRC...")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *out == "" || flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	st, problems, err := dispatch.Merge(*out, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "figmerge:", err)
		os.Exit(1)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "figmerge: problem:", p)
	}
	fmt.Printf("figmerge: %s holds %d of %d entries (%d already there, %d uploads, %d rejected)\n",
		*out, st.Done, st.Total, st.Resumed, st.Uploads, st.Rejected)
	if len(problems) > 0 {
		os.Exit(1)
	}
}
