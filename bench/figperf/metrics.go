package main

import (
	"fmt"
	"math"
	"reflect"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics a user of the simulator waits on, measured
// with tracing off. BENCHMARK.json declares each with its bound.
var endToEnd = []struct{ name, unit string }{
	{"sim_minsts_per_s", "Minst/s"},
	{"sim_minsts_per_s.p10", "Minst/s"},
	{"round_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// median returns the middle value (the mean of the middle two for an
// even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile of xs, interpolating linearly
// between order statistics, or 0 for no values.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p / 100 * float64(len(s)-1)
	i := int(h)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (h-float64(i))*(s[i+1]-s[i])
}

// quantiles returns the n-1 cut points dividing xs into n groups, by the
// exclusive method of Python's statistics.quantiles, which is how spreads
// of this benchmark are judged. One value is its own every quantile; no
// values give zeros.
func quantiles(xs []float64, n int) []float64 {
	out := make([]float64, n-1)
	if len(xs) < 2 {
		if len(xs) == 1 {
			for i := range out {
				out[i] = xs[0]
			}
		}
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*n)
		out[i-1] = (s[j-1]*(float64(n)-delta) + s[j]*delta) / float64(n)
	}
	return out
}

// pool merges the blocks keep selects.
type pool struct {
	rounds  int
	samples map[string][]float64
	counts  map[string]float64
	prof    map[string]int64
	rss     []float64
}

func poolBlocks(blocks []*blockResult, keep func(*blockResult) bool) pool {
	p := pool{samples: map[string][]float64{}, counts: map[string]float64{}, prof: map[string]int64{}}
	for _, b := range blocks {
		if !keep(b) {
			continue
		}
		p.rounds += b.Rounds
		for k, v := range b.Samples {
			p.samples[k] = append(p.samples[k], v...)
		}
		for k, v := range b.Counts {
			p.counts[k] += v
		}
		for k, v := range b.Prof {
			p.prof[k] += v
		}
		p.rss = append(p.rss, float64(b.PeakRSS)/(1<<20))
	}
	return p
}

func (p pool) median(name string) float64 { return median(p.samples[name]) }

// perRound divides a count by the pool's rounds.
func (p pool) perRound(name string) float64 {
	if p.rounds == 0 {
		return 0
	}
	return p.counts[name] / float64(p.rounds)
}

// nsPer is the CPU time the profile attributes to layers, per unit of the
// modelled work named by count.
func (p pool) nsPer(count string, layers ...string) float64 {
	var ns int64
	for _, l := range layers {
		ns += p.prof[l]
	}
	if p.counts[count] == 0 {
		return 0
	}
	return float64(ns) / p.counts[count]
}

// summary is a run's blocks merged and checked against each other.
type summary struct {
	blocks    []*blockResult
	rounds    int
	attempted int
	failures  []string
	digests   map[string]string
	model     map[string]float64
}

// summarize merges the blocks: every block must reproduce the first
// block's digests and simulated statistics, one more operation each.
func summarize(blocks []*blockResult) summary {
	s := summary{blocks: blocks, digests: map[string]string{}}
	for i, b := range blocks {
		s.rounds += b.Rounds
		s.attempted += b.Attempted
		s.failures = append(s.failures, b.Failures...)
		for _, k := range sortedKeys(b.Digests) {
			if prev, ok := s.digests[k]; ok {
				s.attempted++
				if prev != b.Digests[k] {
					s.failures = append(s.failures, fmt.Sprintf("%s: block %d digest %.16s differs from %.16s", k, i, b.Digests[k], prev))
				}
				continue
			}
			s.digests[k] = b.Digests[k]
		}
		if b.Model == nil {
			continue
		}
		if s.model == nil {
			s.model = b.Model
			continue
		}
		s.attempted++
		if !reflect.DeepEqual(s.model, b.Model) {
			s.failures = append(s.failures, fmt.Sprintf("block %d simulated statistics differ from block 0's", i))
		}
	}
	return s
}

// timed pools the blocks that ran without the profiler.
func (s summary) timed() pool {
	return poolBlocks(s.blocks, func(b *blockResult) bool { return !b.Profiled })
}

// wallClock returns the timed blocks' unscaled medians next to the
// host speed they were scaled by, for a reader checking the scaling.
func (s summary) wallClock() map[string]float64 {
	t := s.timed()
	return map[string]float64{
		"host_speed":       t.median("host_speed"),
		"sim_minsts_per_s": t.median("wall.rate"),
		"round_s":          t.median("wall.round_s"),
	}
}

// endToEndMetrics computes the end-to-end metrics from the untraced
// blocks, and the number of samples behind each.
func (s summary) endToEndMetrics() (map[string]metric, map[string]int) {
	t := s.timed()
	rate := t.samples["rate"]
	vals := map[string]float64{
		"sim_minsts_per_s":     median(rate),
		"sim_minsts_per_s.p10": percentile(rate, 10),
		"round_s":              t.median("round_s"),
		"setup_s":              t.median("setup_s"),
		"peak_rss_mb":          median(t.rss),
	}
	n := map[string]int{
		"sim_minsts_per_s":     len(rate),
		"sim_minsts_per_s.p10": len(rate),
		"round_s":              len(t.samples["round_s"]),
		"setup_s":              len(t.samples["setup_s"]),
		"peak_rss_mb":          len(t.rss),
	}
	out := map[string]metric{}
	for _, m := range endToEnd {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	return out, n
}

// perLayer are the per-layer metrics of a traced run, with their units.
var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	for _, l := range profLayers {
		add("%", "prof."+l+".self_pct")
	}
	add("ns", "sim.ns_per_cycle", "cpu.ns_per_inst", "cache.ns_per_access", "core.ns_per_lookup",
		"memctrl.ns_per_request", "dram.ns_per_cmd", "workload.ns_per_record")
	add("ms", "sim.new_ms")
	add("MB", "runtime.alloc_mb_per_round")
	add("count", "runtime.gc_per_round")
	add("count", "harness.jobs")
	add("ratio", "harness.reuse_ratio", "harness.sim_share")
	add("s", "harness.cold_s")
	add("us", "expcache.encode_us", "expcache.decode_us")
	add("B", "expcache.entry_bytes")
	add("count", "expcache.disk_hits", "expcache.misses")
	add("ms", "expcache.warm_ms", "expcache.warm_ms.p90")
	add("ms", "dispatch.lease_ms.p50", "dispatch.lease_ms.p90", "dispatch.upload_ms.p50", "dispatch.upload_ms.p90")
	add("count", "dispatch.lease_requests")
	add("ratio", "dispatch.uploads_per_job")
	add("count", "dispatch.rejected")
	add("s", "dispatch.fleet_s")
	add("IPC", "cpu.ipc_sum")
	add("MPKI", "cache.llc_mpki")
	add("ratio", "core.indram_hit_rate")
	add("count", "core.inserted", "memctrl.reads", "memctrl.writes")
	add("ns", "memctrl.read_lat_ns.avg", "memctrl.read_lat_ns.p99")
	add("count", "dram.act", "dram.act_fast", "dram.reloc", "dram.reloc_busy")
	add("ratio", "dram.row_hit_rate")
	add("cycles", "sim.cycles")
	add("count", "sim.insts")
	add("%", "bench.trace_overhead_pct")
	add("s", "bench.prof_cpu_s")
	return out
}()

// perLayerMetrics computes the per-layer metrics: CPU shares and host
// cost per modelled event from the profiled blocks, timings of the
// layers' own operations from the unprofiled ones, and the simulated
// statistics, which every block reproduces exactly.
func (s summary) perLayerMetrics() map[string]metric {
	t := s.timed()
	tr := poolBlocks(s.blocks, func(b *blockResult) bool { return b.Profiled })
	all := poolBlocks(s.blocks, func(*blockResult) bool { return true })
	v := map[string]float64{}
	if total := tr.prof["total"]; total > 0 {
		for _, l := range profLayers {
			v["prof."+l+".self_pct"] = 100 * float64(tr.prof[l]) / float64(total)
		}
	}
	v["sim.ns_per_cycle"] = tr.nsPer("cycles", "sim", "ev")
	v["cpu.ns_per_inst"] = tr.nsPer("insts", "cpu")
	v["cache.ns_per_access"] = tr.nsPer("cache_accesses", "cache")
	v["core.ns_per_lookup"] = tr.nsPer("core_lookups", "core")
	v["memctrl.ns_per_request"] = tr.nsPer("mem_requests", "memctrl")
	v["dram.ns_per_cmd"] = tr.nsPer("dram_cmds", "dram")
	v["workload.ns_per_record"] = all.median("ns_per_record")
	v["runtime.alloc_mb_per_round"] = t.perRound("alloc_bytes") / (1 << 20)
	v["runtime.gc_per_round"] = t.perRound("gc_cycles") - t.perRound("forced_gc")

	v["harness.jobs"] = all.median("harness.jobs")
	if built, reused := all.counts["systems_built"], all.counts["systems_reused"]; built+reused > 0 {
		v["harness.reuse_ratio"] = reused / (built + reused)
	}
	v["harness.sim_share"] = t.median("harness.sim_share")
	v["harness.cold_s"] = t.median("cold_s")
	v["expcache.encode_us"] = all.median("encode_us")
	v["expcache.decode_us"] = all.median("decode_us")
	v["expcache.entry_bytes"] = all.median("entry_bytes")
	v["expcache.disk_hits"] = all.median("disk_hits")
	v["expcache.misses"] = all.median("cold_misses")
	v["expcache.warm_ms"] = t.median("warm_ms")
	v["expcache.warm_ms.p90"] = percentile(t.samples["warm_ms"], 90)
	v["dispatch.lease_ms.p50"] = t.median("lease_ms")
	v["dispatch.lease_ms.p90"] = percentile(t.samples["lease_ms"], 90)
	v["dispatch.upload_ms.p50"] = t.median("upload_ms")
	v["dispatch.upload_ms.p90"] = percentile(t.samples["upload_ms"], 90)
	v["dispatch.lease_requests"] = all.median("lease_requests")
	if n := all.counts["uploads_attempted"]; n > 0 {
		v["dispatch.uploads_per_job"] = all.counts["uploads_useful"] / n
	}
	v["dispatch.rejected"] = all.counts["rejected"]
	v["dispatch.fleet_s"] = t.median("fleet_s")

	for k, x := range s.model {
		v[k] = x
	}
	if base := t.median("round_s"); base > 0 && len(tr.samples["round_s"]) > 0 {
		v["bench.trace_overhead_pct"] = 100 * (tr.median("round_s")/base - 1)
	}
	v["bench.prof_cpu_s"] = float64(tr.prof["total"]) / 1e9
	v["sim.new_ms"] = t.median("new_ms")

	out := map[string]metric{}
	for _, m := range perLayer {
		x := v[m.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		out[m.name] = metric{x, m.unit}
	}
	return out
}
