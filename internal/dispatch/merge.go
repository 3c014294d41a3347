package dispatch

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/expcache"
)

// Merge assembles the matrix named by the shard manifests in srcs into
// the cache directory dst, with a Coordinator doing every check a fleet
// gets. Resume adopts dst's valid in-matrix entries first; then every
// entry of every source is uploaded, sources in argument order. Each
// rejected upload becomes one problem line: a corrupt entry (the named
// expcache.ErrEntry* class), one outside the matrix (ErrOutsideMatrix),
// or bytes that disagree with an accepted entry (ErrConflict; the first
// writer is kept). An unfinished matrix adds "incomplete: D of T".
//
// dst only ever receives validated in-matrix entries, so a merge with
// problems still leaves a valid partial cache: a later Merge that names
// more sources completes it. A complete dst carries manifest-1of1.json,
// byte-identical to a solo run's or a fleet's.
//
// Merge refuses, writing nothing, when a source is missing, holds a
// malformed manifest, or when srcs hold no manifest or manifests of two
// different matrices.
func Merge(dst string, srcs []string) (Status, []string, error) {
	var ref *expcache.Manifest
	for _, src := range srcs {
		if _, err := os.Stat(src); err != nil {
			return Status{}, nil, fmt.Errorf("dispatch: merge source: %w", err)
		}
		ms, err := expcache.ReadManifests(src)
		if err != nil {
			return Status{}, nil, fmt.Errorf("dispatch: %s: %w", src, err)
		}
		for _, m := range ms {
			if ref == nil {
				ref = m
			} else if !slices.Equal(m.Fingerprints, ref.Fingerprints) {
				return Status{}, nil, fmt.Errorf("dispatch: %s: manifest %dof%d describes a different matrix than manifest %dof%d",
					src, m.Shard, m.NumShards, ref.Shard, ref.NumShards)
			}
		}
	}
	if ref == nil {
		return Status{}, nil, fmt.Errorf("dispatch: no shard manifest in %v names the matrix to assemble", srcs)
	}
	final := *ref
	final.Shard, final.NumShards, final.Assigned = 1, 1, ref.Fingerprints
	spec := Spec{Engine: final.Engine, Experiments: final.Experiments, Fingerprints: final.Fingerprints}
	c, err := NewCoordinator(spec, expcache.NewDirStore(dst), Options{Manifest: &final})
	if err != nil {
		return Status{}, nil, err
	}
	var problems []string
	for _, src := range srcs {
		store := expcache.NewDirStore(src)
		fps, err := store.ListEntries()
		if err != nil {
			return c.Status(), problems, err
		}
		for _, fp := range fps {
			data, _, err := store.GetEntry(fp)
			if err != nil {
				return c.Status(), problems, err
			}
			if err := c.Upload(fp, data); err != nil {
				problems = append(problems, fmt.Sprintf("%s: %v", filepath.Join(src, fp+".json"), err))
			}
		}
	}
	st := c.Status()
	if !st.Complete {
		problems = append(problems, fmt.Sprintf("incomplete: %d of %d", st.Done, st.Total))
	}
	return st, problems, nil
}
