package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/dram"
	"repro/internal/expcache"
	"repro/internal/harness"
	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// workloadNames lists the workloads in the order BENCHMARK.json declares
// them. Why each exists is in bench/README.md.
var workloadNames = []string{"solo-base", "solo-figcache", "mix8-figcache", "matrix-quick"}

// scale sizes the workloads. "full" is the benchmark of record; "tiny"
// keeps the same structure at a size the self-test runs in seconds.
type scale struct {
	soloInsts  int64 // per application of a solo round
	mixInsts   int64 // per core of a mix8 round
	matrix     harness.Scale
	warmPasses int           // warm matrix passes per round
	leaseTTL   time.Duration // the fleet's lease TTL; a worker left without work polls again after a quarter of it
	blocks     int           // child processes per run
}

var scales = map[string]scale{
	"full": {
		soloInsts: 1_000_000, mixInsts: 125_000,
		matrix:     harness.Scale{Insts: 60_000, SingleApps: 4, MixesPerCategory: 1, MCIterations: 500, Parallelism: 2},
		warmPasses: 25, leaseTTL: 4 * time.Second, blocks: 4,
	},
	"tiny": {
		soloInsts: 20_000, mixInsts: 4_000,
		matrix:     harness.Scale{Insts: 2_000, SingleApps: 2, MixesPerCategory: 1, MCIterations: 50, Parallelism: 2},
		warmPasses: 2, leaseTTL: 400 * time.Millisecond, blocks: 2,
	},
}

var (
	soloApps          = []string{"mcf", "lbm", "libquantum", "GemsFDTD"}
	eightCoreMixes    = []string{"mix-100-0", "mix-25-0"}
	matrixExperiments = []string{"fig7", "fig8", "fig9", "fig10", "fig12"}
)

// newLoop builds the closed loop of a workload at a scale.
func newLoop(name, scaleName string, seed uint64) (loop, error) {
	sc, ok := scales[scaleName]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q (full or tiny)", scaleName)
	}
	mixes := func(names []string) ([]workload.Mix, error) {
		var out []workload.Mix
		for _, n := range names {
			m, _, err := workload.FindMix(n)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
		}
		return out, nil
	}
	switch name {
	case "solo-base", "solo-figcache":
		ms, err := mixes(soloApps)
		preset := sim.Base
		if name == "solo-figcache" {
			preset = sim.FIGCacheFast
		}
		return &simLoop{preset: preset, mixes: ms, insts: sc.soloInsts, seed: seed}, err
	case "mix8-figcache":
		ms, err := mixes(eightCoreMixes)
		return &simLoop{preset: sim.FIGCacheFast, mixes: ms, insts: sc.mixInsts, seed: seed}, err
	case "matrix-quick":
		return &matrixLoop{scale: sc.matrix, warm: sc.warmPasses, leaseTTL: sc.leaseTTL}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (one of %s)", name, strings.Join(workloadNames, ", "))
}

// sha returns the hex sha256 of data.
func sha(data []byte) string {
	s := sha256.Sum256(data)
	return hex.EncodeToString(s[:])
}

// simLoop runs every mix once per round, each on a freshly constructed
// System, as one figsim process per run would.
type simLoop struct {
	preset sim.Preset
	mixes  []workload.Mix
	insts  int64
	seed   uint64
}

func (w *simLoop) round(b *block) error {
	rt := b.tr.start("round", 0)
	// scaled sums the runs' times on the host-speed clock, scaled to the
	// reference speed; wall sums their unscaled wall times.
	var scaled, scaledRun, wall, wallRun float64
	var insts int64
	var m modelSum
	for _, mix := range w.mixes {
		cfg := sim.DefaultConfig(w.preset, mix)
		cfg.TargetInsts = w.insts
		cfg.Seed = w.seed
		key := fmt.Sprintf("%s/%s/seed=%d", w.preset, mix.Name, w.seed)

		runtime.GC() // untimed: each run starts on a collected heap, as a fresh process would
		b.add("forced_gc", 1)
		var sys *sim.System
		var res sim.Result
		var setup, run, setupWall, runWall time.Duration
		var err error
		speed := b.hostScale(1, func(now func() time.Duration) {
			t, c := b.tr.start("sim.New", rt.id), now()
			sys, err = sim.New(cfg)
			setup, setupWall = now()-c, t.stop()
			if err == nil {
				t, c = b.tr.start("sim.Run", rt.id), now()
				res, err = sys.Run()
				run, runWall = now()-c, t.stop()
			}
		})
		if err == nil {
			err = checkRun(cfg, res)
		}
		if err == nil {
			var data []byte
			if data, err = json.Marshal(res); err == nil {
				err = b.digest(key, sha(data))
			}
		}
		if !b.op(key, err) {
			continue
		}
		b.sample("setup_s", setup.Seconds()*speed)
		b.sample("new_ms", setup.Seconds()*speed*1e3)
		scaled += (setup + run).Seconds() * speed
		scaledRun += run.Seconds() * speed
		wall += (setupWall + runWall).Seconds()
		wallRun += runWall.Seconds()
		insts += res.TotalInsts
		m.add(res)
		m.addLatency(sys.Controllers())
	}
	rt.stop()
	b.sample("round_s", scaled)
	b.sample("wall.round_s", wall)
	if scaledRun > 0 {
		b.sample("rate", float64(insts)/scaledRun/1e6)
		b.sample("wall.rate", float64(insts)/wallRun/1e6)
	}
	for k, v := range m.events() {
		b.add(k, v)
	}
	if b.Model == nil {
		b.Model = m.model()
	}
	return nil
}

// checkRun rejects a result that cannot be right whatever the timing
// model: a core short of its target, instruction totals that do not add
// up, or in-DRAM cache traffic that contradicts the preset.
func checkRun(cfg sim.Config, res sim.Result) error {
	var sum int64
	for _, c := range res.Cores {
		if c.Insts < cfg.TargetInsts {
			return fmt.Errorf("core %s retired %d of %d instructions", c.App, c.Insts, cfg.TargetInsts)
		}
		sum += c.Insts
	}
	switch {
	case len(res.Cores) != len(cfg.Mix.Apps):
		return fmt.Errorf("%d core results for %d applications", len(res.Cores), len(cfg.Mix.Apps))
	case sum != res.TotalInsts:
		return fmt.Errorf("core instructions sum to %d, total says %d", sum, res.TotalInsts)
	case res.Cycles <= 0:
		return fmt.Errorf("run took %d cycles", res.Cycles)
	case cfg.Preset == sim.Base && (res.DRAM.RELOC != 0 || res.CacheHits+res.CacheMisses != 0):
		return fmt.Errorf("Base run used the in-DRAM cache (%d RELOC, %d lookups)", res.DRAM.RELOC, res.CacheHits+res.CacheMisses)
	case cfg.Preset == sim.FIGCacheFast && (res.DRAM.RELOC == 0 || res.Inserted == 0):
		return fmt.Errorf("FIGCache-Fast run never relocated (%d RELOC, %d inserted)", res.DRAM.RELOC, res.Inserted)
	}
	return nil
}

func (w *simLoop) threads() int { return 1 }

// recordsPerSource is how many trace records micro draws from each source.
const recordsPerSource = 200_000

// micro times trace generation alone: each mix's sources opened with the
// per-core seed, window and layout sim.New derives for them, then read
// record by record.
func (w *simLoop) micro(b *block) {
	geo := dram.Default()
	for _, mix := range w.mixes {
		channels := 1 // sim.Config's default: one channel per single-core run, four otherwise
		if len(mix.Apps) > 1 {
			channels = 4
		}
		span := uint64(1)
		for span*2 <= uint64(geo.ChannelBytes())*uint64(channels)/uint64(len(mix.Apps)) {
			span *= 2
		}
		layout := workload.Layout{RowStrideBytes: uint64(geo.RowBytes) * uint64(channels) * uint64(geo.BanksPerRank()) * uint64(geo.Ranks)}
		for i, src := range mix.Apps {
			t := b.tr.start("workload.Next", 0)
			r, err := src.Open(w.seed+uint64(i)*1315423911, uint64(i)*span, span, layout)
			if err != nil {
				b.op("workload micro "+src.Name(), err)
				continue
			}
			for n := 0; n < recordsPerSource; n++ {
				r.Next()
			}
			b.sample("ns_per_record", float64(t.stop().Nanoseconds())/recordsPerSource)
		}
	}
}

// modelSum aggregates the simulated statistics of a round's runs.
type modelSum struct {
	ipcSum                                float64
	insts, cycles, llcMisses              int64
	hits, misses, inserted, reads, writes int64
	latNS                                 float64 // read latency, summed over reads
	act, actFast, reloc, relocBusy        int64
	rowHits, rowAccesses                  int64
	cacheAccesses, dramCmds               int64
	latSets                               [][]int64
	latReads                              []int64
	clockNS                               float64
}

func (m *modelSum) add(r sim.Result) {
	m.ipcSum += r.IPCSum()
	m.insts += r.TotalInsts
	m.cycles += r.Cycles
	m.llcMisses += r.LLCMisses
	m.hits += r.CacheHits
	m.misses += r.CacheMisses
	m.inserted += r.Inserted
	m.reads += r.MemReads
	m.writes += r.MemWrites
	m.latNS += r.AvgReadLatencyNS * float64(r.MemReads)
	d := r.DRAM
	m.act += d.ACT
	m.actFast += d.ACTFast
	m.reloc += d.RELOC
	m.relocBusy += d.RelocBusy
	m.rowHits += d.RowHits
	m.rowAccesses += d.RowHits + d.RowMisses + d.RowConf
	m.cacheAccesses += r.L1Accesses + r.L2Accesses + r.LLCAccesses
	m.dramCmds += d.ACT + d.PRE + d.RD + d.WR + d.REF + d.RELOC
}

// addLatency keeps the controllers' read-latency samples for the round's
// tail percentile, weighted by each channel's read count.
func (m *modelSum) addLatency(ctrls []*memctrl.Controller) {
	for _, c := range ctrls {
		m.latSets = append(m.latSets, c.LatencySamples())
		m.latReads = append(m.latReads, c.NumReads)
		m.clockNS = c.Channel().Slow.ClockNS
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// model returns the round's simulated statistics: exact, seed-determined
// values that a change meant only to speed up the simulator must leave
// identical.
func (m *modelSum) model() map[string]float64 {
	p99 := 0.0
	if v := stats.WeightedPercentiles(m.latSets, m.latReads, []float64{0.99}); v != nil {
		p99 = float64(v[0]) * m.clockNS
	}
	latAvg := 0.0
	if m.reads > 0 {
		latAvg = m.latNS / float64(m.reads)
	}
	return map[string]float64{
		"cpu.ipc_sum":             m.ipcSum,
		"cache.llc_mpki":          ratio(m.llcMisses*1000, m.insts),
		"core.indram_hit_rate":    ratio(m.hits, m.hits+m.misses),
		"core.inserted":           float64(m.inserted),
		"memctrl.reads":           float64(m.reads),
		"memctrl.writes":          float64(m.writes),
		"memctrl.read_lat_ns.avg": latAvg,
		"memctrl.read_lat_ns.p99": p99,
		"dram.act":                float64(m.act),
		"dram.act_fast":           float64(m.actFast),
		"dram.reloc":              float64(m.reloc),
		"dram.reloc_busy":         float64(m.relocBusy),
		"dram.row_hit_rate":       ratio(m.rowHits, m.rowAccesses),
		"sim.cycles":              float64(m.cycles),
		"sim.insts":               float64(m.insts),
	}
}

// events returns the modelled work of the round, the denominators of the
// per-layer host cost per event.
func (m *modelSum) events() map[string]float64 {
	return map[string]float64{
		"cycles":         float64(m.cycles),
		"insts":          float64(m.insts),
		"cache_accesses": float64(m.cacheAccesses),
		"core_lookups":   float64(m.hits + m.misses),
		"mem_requests":   float64(m.reads + m.writes),
		"dram_cmds":      float64(m.dramCmds),
	}
}

// setupRepeats is how many times a matrix round builds its runner and
// enumerates the matrix.
const setupRepeats = 5

// matrixLoop renders the quick-scale figures three ways per round: cold
// into an empty result cache, warm from that cache, and through an
// in-process dispatch fleet into a second empty directory.
type matrixLoop struct {
	scale    harness.Scale
	warm     int
	leaseTTL time.Duration
	// corrupt, when set, damages the cold directory before the first warm
	// pass; the self-test uses it to prove the warm check fires.
	corrupt func(dir string)
}

func (w *matrixLoop) round(b *block) error {
	dir, err := os.MkdirTemp(b.workDir, "round-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	coldDir, fleetDir := filepath.Join(dir, "cold"), filepath.Join(dir, "fleet")
	rt := b.tr.start("round", 0)
	defer rt.stop()
	// wall sums the round's unscaled phases, round their scaled times.
	var wall, round float64

	// Cold: build the runner and enumerate the matrix (set-up), then
	// render every figure, computing each run once. Set-up is repeated so
	// its median rests on several samples; the last runner does the work.
	var runner *harness.Runner
	var spec dispatch.Spec
	var jobs []sim.Config
	var manifest *expcache.Manifest
	var setups []time.Duration
	var setupWall time.Duration
	scale := b.hostScale(1, func(now func() time.Duration) {
		for i := 0; i < setupRepeats && err == nil; i++ {
			t, c := b.tr.start("harness.setup", rt.id), now()
			runner = harness.NewRunnerWithCache(w.scale, expcache.New(coldDir), false)
			spec, jobs, manifest, err = dispatch.BuildSpec(runner, matrixExperiments)
			setups, setupWall = append(setups, now()-c), t.stop()
		}
	})
	if !b.op("matrix set-up", err) {
		return nil
	}
	for _, d := range setups {
		b.sample("setup_s", d.Seconds()*scale)
	}
	wall += setupWall.Seconds()
	round += setups[len(setups)-1].Seconds() * scale

	t := b.tr.start("harness.cold", rt.id)
	tables, coldWall, cold, err := w.render(b, runner, t.id, true)
	t.stop()
	if !b.op("cold pass", err) {
		return nil
	}
	wall += coldWall
	round += cold
	cs := runner.CacheStats()
	b.sample("cold_s", cold)
	b.sample("harness.jobs", float64(len(jobs)))
	b.sample("harness.sim_share", runner.SimWallSeconds()/coldWall)
	b.sample("cold_misses", float64(cs.Misses))
	b.add("systems_built", float64(runner.SystemsBuilt()))
	b.add("systems_reused", float64(runner.SystemsReused()))

	entries, err := readEntries(coldDir)
	if err == nil && len(entries) != len(jobs) {
		err = fmt.Errorf("%d entries for %d jobs", len(entries), len(jobs))
	}
	var m modelSum
	if b.op("cold entries", err) {
		b.op("entry encode/decode", w.codec(b, jobs, entries, &m))
	}
	b.op("entries digest", b.digest("matrix/entries", digestEntries(entries)))
	b.op("tables digest", b.digest("matrix/tables", sha([]byte(tables))))
	if b.Model == nil {
		b.Model = m.model()
	}

	// Warm: a fresh runner over the cold directory must serve every run
	// from disk and render byte-identical tables.
	for i := 0; i < w.warm; i++ {
		if i == 0 && w.corrupt != nil {
			w.corrupt(coldDir)
		}
		t := b.tr.start("harness.warm", rt.id)
		wr := harness.NewRunnerWithCache(w.scale, expcache.New(coldDir), false)
		wt, warmWall, warm, err := w.render(b, wr, t.id, false)
		t.stop()
		ws := wr.CacheStats()
		if err == nil && (ws.Misses != 0 || ws.Stores != 0) {
			err = fmt.Errorf("%d misses, %d stores", ws.Misses, ws.Stores)
		}
		if err == nil && wt != tables {
			err = errors.New("tables differ from the cold pass")
		}
		b.op("warm pass", err)
		wall += warmWall
		round += warm
		b.sample("warm_ms", warm*1e3)
		b.sample("disk_hits", float64(ws.DiskHits))
	}

	// Fleet: a coordinator and two workers over HTTP fill a second
	// directory, which must match the cold one entry for entry.
	var fleet, fleetWall time.Duration
	scale = b.hostScale(fleetWorkers, func(now func() time.Duration) {
		fleet, fleetWall, err = w.fleet(b, rt.id, spec, manifest, fleetDir, now)
	})
	if err == nil {
		var got map[string][]byte
		if got, err = readEntries(fleetDir); err == nil && digestEntries(got) != digestEntries(entries) {
			err = errors.New("fleet entries differ from the cold directory's")
		}
	}
	wall += fleetWall.Seconds()
	round += fleet.Seconds() * scale
	if b.op("fleet pass", err) {
		// The cold and the fleet pass each simulate every job once; their
		// throughput is taken over both, two measurements of it per round.
		b.sample("fleet_s", fleet.Seconds()*scale)
		b.sample("rate", 2*float64(m.insts)/(cold+fleet.Seconds()*scale)/1e6)
		b.sample("wall.rate", 2*float64(m.insts)/(coldWall+fleetWall.Seconds())/1e6)
		for k, v := range m.events() {
			b.add(k, 2*v)
		}
	}
	b.sample("round_s", round)
	b.sample("wall.round_s", wall)
	return nil
}

// render runs the matrix's experiment builders and returns their
// rendered tables, the wall time they took, and that time scaled to the
// reference host speed. The cold pass (perFigure) spends seconds per
// figure on the runner's parallel workers, so each figure gets its own
// host-speed samples on as many threads; a warm pass takes milliseconds
// on one thread and is scaled as a whole.
func (w *matrixLoop) render(b *block, r *harness.Runner, parent int, perFigure bool) (tables string, wall, scaled float64, err error) {
	names, builders, err := r.SelectExperiments(matrixExperiments)
	if err != nil {
		return "", 0, 0, err
	}
	var out strings.Builder
	// figure builds figure i and returns its time on now and its wall time.
	figure := func(i int, now func() time.Duration) (float64, float64) {
		t, c := b.tr.start("harness."+names[i], parent), now()
		var tab *stats.Table
		tab, err = builders[i]()
		d, dw := (now() - c).Seconds(), t.stop().Seconds()
		if err == nil {
			out.WriteString(tab.Render())
		}
		return d, dw
	}
	if perFigure {
		for i := 0; i < len(builders) && err == nil; i++ {
			var d, dw float64
			s := b.hostScale(w.scale.Parallelism, func(now func() time.Duration) { d, dw = figure(i, now) })
			wall += dw
			scaled += d * s
		}
	} else {
		var d float64
		s := b.hostScale(1, func(now func() time.Duration) {
			for i := 0; i < len(builders) && err == nil; i++ {
				di, dw := figure(i, now)
				d += di
				wall += dw
			}
		})
		scaled = d * s
	}
	return out.String(), wall, scaled, err
}

// codec decodes every cold entry and re-encodes its result, timing both,
// and requires the re-encoded bytes to equal the file: the result cache's
// encoding must round-trip exactly.
func (w *matrixLoop) codec(b *block, jobs []sim.Config, entries map[string][]byte, m *modelSum) error {
	fps := make(map[string]sim.Fingerprint, len(jobs))
	for _, cfg := range jobs {
		fp := cfg.Fingerprint()
		fps[fp.String()] = fp
	}
	for _, name := range sortedKeys(entries) {
		data := entries[name]
		fp, ok := fps[name]
		if !ok {
			return fmt.Errorf("entry %.12s is not in the matrix", name)
		}
		t := b.tr.start("expcache.DecodeEntry", 0)
		res, err := expcache.DecodeEntry(data, name)
		dec := t.stop()
		if err != nil {
			return err
		}
		t = b.tr.start("expcache.EncodeEntry", 0)
		again, err := expcache.EncodeEntry(fp, res)
		enc := t.stop()
		if err != nil {
			return err
		}
		if !bytes.Equal(again, data) {
			return fmt.Errorf("entry %.12s does not re-encode to its own bytes", name)
		}
		b.sample("decode_us", float64(dec.Nanoseconds())/1e3)
		b.sample("encode_us", float64(enc.Nanoseconds())/1e3)
		b.sample("entry_bytes", float64(len(data)))
		m.add(res)
	}
	return nil
}

// fleetWorkers is how many single-simulation workers the fleet pass runs.
const fleetWorkers = 2

// fleet runs a coordinator behind httptest with two single-simulation
// workers until the matrix converges, and returns the time to
// convergence on now and on wall time.
func (w *matrixLoop) fleet(b *block, parent int, spec dispatch.Spec, manifest *expcache.Manifest, dir string, now func() time.Duration) (took, wall time.Duration, err error) {
	t, c := b.tr.start("dispatch.fleet", parent), now()
	coord, err := dispatch.NewCoordinator(spec, expcache.NewDirStore(dir), dispatch.Options{
		LeaseTTL: w.leaseTTL, Batch: 4, Manifest: manifest,
	})
	if err != nil {
		return 0, 0, err
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	rtt := &roundTripTimer{base: &http.Transport{}, tr: b.tr, parent: t.id}
	defer rtt.base.CloseIdleConnections()
	client := &http.Client{Transport: rtt}
	errc := make(chan error, fleetWorkers)
	for i := 0; i < fleetWorkers; i++ {
		id := fmt.Sprintf("w%d", i)
		go func() {
			errc <- dispatch.RunWorker(srv.URL, dispatch.WorkerOptions{ID: id, Parallelism: 1, Client: client})
		}()
	}
	// Convergence is the coordinator's Done; workers polling for more work
	// exit after it on their own schedule, which is not timed.
	var errs []error
	done := coord.Done()
	for pending := fleetWorkers; pending > 0; {
		select {
		case <-done:
			took, wall, done = now()-c, t.stop(), nil
		case err := <-errc:
			pending--
			if err != nil {
				errs = append(errs, err)
			}
		}
	}
	if done != nil {
		errs = append(errs, errors.New("workers exited before the matrix converged"))
	}
	st := coord.Status()
	if st.Rejected > 0 {
		errs = append(errs, fmt.Errorf("coordinator rejected %d uploads", st.Rejected))
	}
	b.sample("lease_ms", rtt.leaseMS...)
	b.sample("upload_ms", rtt.uploadMS...)
	b.sample("lease_requests", float64(len(rtt.leaseMS)))
	b.add("uploads_useful", float64(st.Done-st.Resumed))
	b.add("uploads_attempted", float64(len(rtt.uploadMS)))
	b.add("rejected", float64(st.Rejected))
	return took, wall, errors.Join(errs...)
}

// roundTripTimer times the workers' lease and upload requests.
type roundTripTimer struct {
	base   *http.Transport
	tr     *tracer
	parent int

	mu                sync.Mutex
	leaseMS, uploadMS []float64
}

func (r *roundTripTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	name := "dispatch.http"
	switch {
	case req.URL.Path == "/v1/lease":
		name = "dispatch.lease"
	case strings.HasPrefix(req.URL.Path, "/v1/entry/"):
		name = "dispatch.upload"
	}
	t := r.tr.start(name, r.parent)
	resp, err := r.base.RoundTrip(req)
	ms := float64(t.stop().Microseconds()) / 1e3
	r.mu.Lock()
	defer r.mu.Unlock()
	switch name {
	case "dispatch.lease":
		r.leaseMS = append(r.leaseMS, ms)
	case "dispatch.upload":
		r.uploadMS = append(r.uploadMS, ms)
	}
	return resp, err
}

func (w *matrixLoop) micro(*block) {}

func (w *matrixLoop) threads() int { return max(w.scale.Parallelism, fleetWorkers) }

// readEntries returns a cache directory's entry files by fingerprint.
func readEntries(dir string) (map[string][]byte, error) {
	store := expcache.NewDirStore(dir)
	fps, err := store.ListEntries()
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(fps))
	for _, fp := range fps {
		data, ok, err := store.GetEntry(fp)
		if err != nil {
			return nil, err
		}
		if ok {
			out[fp] = data
		}
	}
	return out, nil
}

// digestEntries hashes a directory's entries in fingerprint order.
func digestEntries(entries map[string][]byte) string {
	h := sha256.New()
	for _, fp := range sortedKeys(entries) {
		fmt.Fprintf(h, "%s %d\n", fp, len(entries[fp]))
		h.Write(entries[fp])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
