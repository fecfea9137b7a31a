package perf

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cosmos/internal/experiments"
	"cosmos/internal/memsys"
	"cosmos/internal/rl"
	"cosmos/internal/secmem"
	"cosmos/internal/sim"
	"cosmos/internal/telemetry"
	"cosmos/internal/trace"
)

// SuiteConfig sizes the benchmark suite. The suite takes Samples repeated
// measurements of every metric in interleaved rounds (round-robin across
// benchmarks, not back-to-back per benchmark), so slow environmental drift
// — thermal throttling, a background process — spreads across all metrics
// instead of biasing whichever benchmark ran last.
type SuiteConfig struct {
	// Samples per metric. Statistical floor: the Mann–Whitney test cannot
	// reach significance at alpha 0.05 with fewer than 4 samples per side.
	Samples int
	// StepOps is the number of timed Step calls per sample; WarmSteps
	// drives each system to a steady state first (counter blocks and DRAM
	// rows materialised, caches warm).
	StepOps   int
	WarmSteps int
	// DecodeOps is the length (records) of the trace file the decode
	// benchmark reads back per sample.
	DecodeOps int
	// E2E enables the end-to-end campaign benchmark: one full experiment
	// per sample on a fresh Lab (no memoisation across samples), measuring
	// simulated accesses per wall-clock second.
	E2E           bool
	E2EExperiment string  // default "fig10"
	E2EScale      float64 // experiments.Scaled factor (0 = SmallScale)
	Workers       int     // campaign worker pool (default GOMAXPROCS)
	// Handicap artificially inflates every measured time (and deflates
	// every throughput) by this factor. It exists to prove the ratchet
	// trips: `cosmos-perf -handicap 2` must fail against a clean baseline.
	// 0 or 1 = off; the value is recorded in the report.
	Handicap float64
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// QuickConfig is the CI regime: the fewest samples that still give the
// significance test teeth, and small per-sample op counts.
func QuickConfig() SuiteConfig {
	return SuiteConfig{
		Samples:   5,
		StepOps:   100_000,
		WarmSteps: 400_000,
		DecodeOps: 300_000,
		E2E:       true,
	}
}

// DefaultConfig is the local-baseline regime.
func DefaultConfig() SuiteConfig {
	return SuiteConfig{
		Samples:   10,
		StepOps:   300_000,
		WarmSteps: 400_000,
		DecodeOps: 1_000_000,
		E2E:       true,
	}
}

func (c SuiteConfig) withDefaults() SuiteConfig {
	d := QuickConfig()
	if c.Samples <= 0 {
		c.Samples = d.Samples
	}
	if c.StepOps <= 0 {
		c.StepOps = d.StepOps
	}
	if c.WarmSteps < 0 {
		c.WarmSteps = 0
	}
	if c.DecodeOps <= 0 {
		c.DecodeOps = d.DecodeOps
	}
	if c.E2EExperiment == "" {
		c.E2EExperiment = "fig10"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Handicap <= 0 {
		c.Handicap = 1
	}
	return c
}

func (c SuiteConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// stepDesigns are the representative design points the Step benchmark
// covers: the unprotected baseline, the serialised secure path, and COSMOS.
func stepDesigns() []secmem.Design {
	return []secmem.Design{secmem.DesignNP(), secmem.DesignMorph(), secmem.DesignCosmos()}
}

// benchmark is one suite member: run() takes a single sample of each of its
// metrics (parallel slices with names/units/better).
type benchmark struct {
	label   string
	names   []string
	units   []string
	betters []string
	run     func(ctx context.Context) ([]float64, error)
}

// RunSuite measures the full suite and assembles the report (Seq left to
// the caller). Cancellation via ctx aborts between samples.
func RunSuite(ctx context.Context, cfg SuiteConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	var benches []benchmark

	// Per-design Step latency and allocation rate over a steady-state
	// system — the same code path BenchmarkStep pins in CI.
	for _, d := range stepDesigns() {
		d := d
		cfg.logf("warming %s (%d steps)", d.Name, cfg.WarmSteps)
		s, gen := warmedSystem(d, cfg.WarmSteps)
		benches = append(benches, benchmark{
			label:   "step." + d.Name,
			names:   []string{"step." + d.Name + ".ns_per_op", "step." + d.Name + ".allocs_per_op"},
			units:   []string{"ns/op", "allocs/op"},
			betters: []string{BetterLower, BetterLower},
			run: func(context.Context) ([]float64, error) {
				ns, allocs := measureSteps(s, gen, cfg.StepOps)
				return []float64{ns, allocs}, nil
			},
		})
	}

	// Step latency under the non-default policy kinds, COSMOS only (the
	// only design running both predictors): tabular is the step.COSMOS
	// figure above, so these isolate what swapping the decision engine
	// costs on the hot path.
	for _, kind := range []string{rl.KindPerceptron, rl.KindMLP} {
		kind := kind
		label := "step.COSMOS.policy=" + kind
		cfg.logf("warming %s (%d steps)", label, cfg.WarmSteps)
		s, gen := warmedPolicySystem(kind, cfg.WarmSteps)
		benches = append(benches, benchmark{
			label:   label,
			names:   []string{label + ".ns_per_op", label + ".allocs_per_op"},
			units:   []string{"ns/op", "allocs/op"},
			betters: []string{BetterLower, BetterLower},
			run: func(context.Context) ([]float64, error) {
				ns, allocs := measureSteps(s, gen, cfg.StepOps)
				return []float64{ns, allocs}, nil
			},
		})
	}

	// Trace-file decode throughput: a frozen access stream read back
	// through the CTRC parser, the ingest path of replayed captures.
	tmp, err := os.MkdirTemp("", "cosmos-perf-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	tracePath := filepath.Join(tmp, "decode.ctrc")
	gen := trace.NewUniform(memsys.Region{Base: 1 << 28, Size: 256 << 20, Elem: 1}, 20, 7, 1)
	if _, err := trace.WriteFile(tracePath, gen, uint64(cfg.DecodeOps)); err != nil {
		return nil, fmt.Errorf("perf: write decode trace: %w", err)
	}
	benches = append(benches, benchmark{
		label:   "decode",
		names:   []string{"decode.tracefile.accesses_per_sec"},
		units:   []string{"accesses/sec"},
		betters: []string{BetterHigher},
		run: func(context.Context) ([]float64, error) {
			rate, err := measureDecode(tracePath, cfg.DecodeOps)
			if err != nil {
				return nil, err
			}
			return []float64{rate}, nil
		},
	})

	// Block-decoded run loop: an interleaved multi-core workload driven
	// through RunContext on a fresh system per sample. The "serial" in the
	// name predates the single-engine simulator; it is kept so the
	// perf/HISTORY.jsonl trajectory stays continuous.
	benches = append(benches, benchmark{
		label:   "engine",
		names:   []string{"engine.serial.accesses_per_sec"},
		units:   []string{"accesses/sec"},
		betters: []string{BetterHigher},
		run: func(ctx context.Context) ([]float64, error) {
			rate, err := measureEngine(ctx, cfg)
			if err != nil {
				return nil, err
			}
			return []float64{rate}, nil
		},
	})

	// Per-layer costs of the CTR-miss path's cache work: LCR's victim
	// choice on full 16-way sets, and Level.Probe's miss path for LRU and
	// LCR on a cache whose tag array outgrows the host L2.
	benches = append(benches, layerBenchmarks(16*cfg.StepOps, 4*cfg.StepOps)...)

	// End-to-end campaign throughput: a fresh Lab per sample (nothing
	// memoised between samples) running one whole experiment, measured in
	// simulated accesses per wall-clock second — the number every
	// batching/parallelism PR claims to move.
	if cfg.E2E {
		if _, err := experiments.ByID(cfg.E2EExperiment); err != nil {
			return nil, err
		}
		benches = append(benches, benchmark{
			label:   "e2e." + cfg.E2EExperiment,
			names:   []string{"e2e." + cfg.E2EExperiment + ".accesses_per_sec"},
			units:   []string{"accesses/sec"},
			betters: []string{BetterHigher},
			run: func(ctx context.Context) ([]float64, error) {
				rate, err := measureCampaign(ctx, cfg)
				if err != nil {
					return nil, err
				}
				return []float64{rate}, nil
			},
		})
	}

	report := &Report{
		Schema:      SchemaVersion,
		CreatedUnix: time.Now().Unix(),
		Fingerprint: CollectFingerprint(),
		Suite: SuiteInfo{
			Samples:   cfg.Samples,
			StepOps:   cfg.StepOps,
			WarmSteps: cfg.WarmSteps,
			DecodeOps: cfg.DecodeOps,
			E2EScale:  cfg.E2EScale,
		},
	}
	if cfg.Handicap != 1 {
		report.Suite.Handicap = cfg.Handicap
	}
	// Indices, not pointers: appending to report.Metrics reallocates.
	metricIdx := map[string]int{}
	for _, b := range benches {
		for i := range b.names {
			metricIdx[b.names[i]] = len(report.Metrics)
			report.Metrics = append(report.Metrics, Metric{
				Name: b.names[i], Unit: b.units[i], Better: b.betters[i],
			})
		}
	}

	for round := 0; round < cfg.Samples; round++ {
		for _, b := range benches {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			vals, err := b.run(ctx)
			if err != nil {
				return nil, fmt.Errorf("perf: %s sample %d: %w", b.label, round+1, err)
			}
			for i, v := range vals {
				m := &report.Metrics[metricIdx[b.names[i]]]
				m.Samples = append(m.Samples, applyHandicap(v, m.Unit, cfg.Handicap))
			}
		}
		cfg.logf("sample round %d/%d done", round+1, cfg.Samples)
	}
	report.finalize()
	return report, nil
}

// applyHandicap inflates times / deflates throughputs by the self-test
// factor; counts (allocs) are left alone.
func applyHandicap(v float64, unit string, h float64) float64 {
	if h == 1 {
		return v
	}
	switch unit {
	case "ns/op":
		return v * h
	case "accesses/sec":
		return v / h
	}
	return v
}

// warmedSystem builds one system for the step benchmark and drives it to a
// steady state: the zero-alloc guard's regime (default machine, 32MB uniform
// footprint), where warm steps materialise the lazily-allocated structures so
// timed steps measure pure steady-state work.
func warmedSystem(d secmem.Design, warmSteps int) (*sim.System, trace.Generator) {
	s := sim.New(sim.DefaultConfig(), d)
	gen := trace.NewUniform(memsys.Region{Base: 0, Size: 32 << 20, Elem: 1}, 20, 3, 1)
	for i := 0; i < warmSteps; i++ {
		a, _ := gen.Next()
		s.Step(a)
	}
	return s, gen
}

// warmedPolicySystem is warmedSystem with both predictor roles running the
// given online policy kind on the COSMOS design.
func warmedPolicySystem(kind string, warmSteps int) (*sim.System, trace.Generator) {
	cfg := sim.DefaultConfig()
	spec := &rl.PolicySpec{Kind: kind}
	cfg.MC.Params.DataPolicy = spec
	cfg.MC.Params.CtrPolicy = spec
	s := sim.New(cfg, secmem.DesignCosmos())
	gen := trace.NewUniform(memsys.Region{Base: 0, Size: 32 << 20, Elem: 1}, 20, 3, 1)
	for i := 0; i < warmSteps; i++ {
		a, _ := gen.Next()
		s.Step(a)
	}
	return s, gen
}

// measureSteps times ops Step calls and counts heap allocations across
// them. Allocations are rounded to 1/1000th per op: the guard is "Step does
// not allocate", and a stray runtime allocation across hundreds of
// thousands of ops must not read as a regression against a 0 baseline.
func measureSteps(s *sim.System, gen trace.Generator, ops int) (nsPerOp, allocsPerOp float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < ops; i++ {
		a, _ := gen.Next()
		s.Step(a)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	nsPerOp = float64(elapsed.Nanoseconds()) / float64(ops)
	allocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(ops)
	allocsPerOp = math.Round(allocsPerOp*1000) / 1000
	return nsPerOp, allocsPerOp
}

// measureDecode reads the whole trace file back and returns records/sec.
func measureDecode(path string, want int) (float64, error) {
	fg, err := trace.OpenFile(path)
	if err != nil {
		return 0, err
	}
	defer fg.Close()
	start := time.Now()
	n := 0
	for {
		if _, ok := fg.Next(); !ok {
			break
		}
		n++
	}
	elapsed := time.Since(start)
	if n != want {
		return 0, fmt.Errorf("decoded %d records, want %d", n, want)
	}
	if elapsed <= 0 {
		return 0, fmt.Errorf("decode finished in non-positive time %v", elapsed)
	}
	return float64(n) / elapsed.Seconds(), nil
}

// engineWorkload is the engine benchmark's access stream: four threads of
// uniform traffic over a shared region, interleaved in small chunks so every
// core stays busy within each decode block.
func engineWorkload() trace.Generator {
	region := memsys.Region{Base: 1 << 28, Size: 64 << 20, Elem: 1}
	return trace.NewInterleave("engine-mix", []trace.Generator{
		trace.NewUniform(region, 20, 3, 1),
		trace.NewUniform(region, 20, 5, 1),
		trace.NewUniform(region, 20, 7, 1),
		trace.NewUniform(region, 20, 9, 1),
	}, 8)
}

// measureEngine runs StepOps accesses of the engine workload through a fresh
// COSMOS system and returns simulated accesses per wall second.
func measureEngine(ctx context.Context, cfg SuiteConfig) (float64, error) {
	s := sim.New(sim.DefaultConfig(), secmem.DesignCosmos())
	ops := uint64(cfg.StepOps)
	start := time.Now()
	if _, err := s.RunContext(ctx, trace.Limit(engineWorkload(), ops), ops); err != nil {
		return 0, err
	}
	wall := time.Since(start).Seconds()
	if wall <= 0 {
		return 0, fmt.Errorf("engine run finished in non-positive time")
	}
	return float64(ops) / wall, nil
}

// measureCampaign runs one whole experiment on a fresh Lab and returns
// simulated accesses per wall second, counted by the campaign-level phase
// accumulator (so the figure matches what cosmos-bench reports live).
func measureCampaign(ctx context.Context, cfg SuiteConfig) (float64, error) {
	lab := experiments.NewLab(experiments.Scaled(cfg.E2EScale),
		experiments.WithContext(ctx),
		experiments.WithWorkers(cfg.Workers))
	ph := telemetry.NewPhases()
	lab.Orchestrator().Phases = ph
	e, err := experiments.ByID(cfg.E2EExperiment)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := e.Run(lab); err != nil {
		return 0, err
	}
	wall := time.Since(start).Seconds()
	if wall <= 0 {
		return 0, fmt.Errorf("campaign finished in non-positive time")
	}
	acc := ph.Accesses()
	if acc == 0 {
		return 0, fmt.Errorf("campaign simulated zero accesses")
	}
	return float64(acc) / wall, nil
}
