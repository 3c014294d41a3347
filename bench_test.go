// Package repro_bench holds the simulator's raw throughput benchmark.
// internal/sim's BenchmarkEngineComparison sets the skip engine against
// the dense reference loop. The paper's tables and figures are rendered
// by cmd/figbench, and the benchmark of record is bench/figperf
// (bash bench/run.sh).
package repro_bench

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// instructions per wall-clock second on the Base configuration.
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec, err := workload.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	mix := workload.Mix{Name: "mcf", Apps: workload.Sources(spec)}
	b.ResetTimer()
	var insts, cycles int64
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(sim.Base, mix)
		cfg.TargetInsts = 50_000
		system, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := system.Run()
		if err != nil {
			b.Fatal(err)
		}
		insts += res.TotalInsts
		cycles += res.Cycles
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-insts/s")
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}
