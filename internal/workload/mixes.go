package workload

import "fmt"

// Mix is one multiprogrammed workload: an ordered list of workload
// sources, one per core, plus the category it belongs to (fraction of
// memory-intensive applications).
type Mix struct {
	Name             string
	Apps             []Source
	IntensivePercent int // 25, 50, 75 or 100
}

// EightCoreMixes builds the paper's 20 eight-core multiprogrammed
// workloads: five mixes in each of the 25%, 50%, 75% and 100%
// memory-intensive categories (Section 7). Mix composition is
// deterministic: benchmarks rotate through the intensive and
// non-intensive pools.
func EightCoreMixes() []Mix {
	intensive := Intensive()
	nonIntensive := NonIntensive()
	var mixes []Mix
	categories := []int{25, 50, 75, 100}
	perCategory := 5
	cores := 8
	ii, ni := 0, 0
	for _, pct := range categories {
		nInt := cores * pct / 100
		for m := 0; m < perCategory; m++ {
			mix := Mix{
				Name:             fmt.Sprintf("mix-%d-%d", pct, m),
				IntensivePercent: pct,
			}
			for c := 0; c < cores; c++ {
				if c < nInt {
					mix.Apps = append(mix.Apps, SynthSource(intensive[ii%len(intensive)]))
					ii++
				} else {
					mix.Apps = append(mix.Apps, SynthSource(nonIntensive[ni%len(nonIntensive)]))
					ni++
				}
			}
			mixes = append(mixes, mix)
		}
	}
	return mixes
}

// MixesByCategory filters mixes to one intensive-percentage category.
func MixesByCategory(mixes []Mix, pct int) []Mix {
	var out []Mix
	for _, m := range mixes {
		if m.IntensivePercent == pct {
			out = append(out, m)
		}
	}
	return out
}

// SingleCoreWorkloads returns one single-app "mix" per benchmark, for the
// paper's single-core evaluation (Figure 7).
func SingleCoreWorkloads() []Mix {
	var out []Mix
	for _, s := range Benchmarks() {
		pct := 0
		if s.MemIntensive {
			pct = 100
		}
		out = append(out, Mix{Name: s.Name, Apps: Sources(s), IntensivePercent: pct})
	}
	return out
}

// MultithreadedWorkloads returns the three multithreaded applications as
// eight-core mixes where every core runs a thread of the same application
// over a shared footprint.
func MultithreadedWorkloads() []Mix {
	var out []Mix
	for _, s := range Multithreaded() {
		mix := Mix{Name: s.Name, IntensivePercent: 100}
		for c := 0; c < 8; c++ {
			mix.Apps = append(mix.Apps, SynthSource(s))
		}
		out = append(out, mix)
	}
	return out
}
