// Command benchmark is the repository benchmark. It runs one workload — a
// campaign over the evaluation matrix or a single COSMOS simulation — from
// a seed, checks every simulated result, and prints its metrics: the
// end-to-end metrics with -trace 0, the per-layer metrics of a separate
// traced replay with -trace 1. The last line of standard output is one JSON
// object; everything before it is for people.
//
//	benchmark/run.sh --workload mcf-cosmos --seed 42 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads, the metrics and the
// layer each one belongs to.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// Seeds: the default is what the committed digests were recorded with; the
// held-out seed is for checking a claim on data not used while writing the
// change.
const (
	defaultSeed = 42
	heldOutSeed = 7
)

// deadline stops a run that would overrun the benchmark's time limit.
const deadline = 170 * time.Second

// spanDir receives the kept spans of traced runs, relative to the checkout.
const spanDir = ".bench_build/spans"

type metricDef struct{ name, unit string }

// e2eDefs and layerDefs are the metrics of -trace 0 and -trace 1; every
// workload reports all of them, and BENCHMARK.json declares the same names
// and units (main_test.go checks).
var e2eDefs = []metricDef{
	{"setup_s", "s"},
	{"accesses_per_s", "acc/s"},
	{"epoch_ms_p50", "ms"},
	{"epoch_ms_p90", "ms"},
	{"heap_retained_mib", "MiB"},
	{"sim_ipc", "ipc"},
}

var layerDefs = []metricDef{
	{"runner.cells_executed", "count"},
	{"runner.exec_s", "s"},
	{"runner.queue_wait_s", "s"},
	{"runner.busy_frac", "ratio"},
	{"experiments.cosmos_gain_pct", "%"},
	{"workloads.build_s", "s"},
	{"trace.decode_ns_per_access", "ns"},
	{"sim.step_ns_per_access", "ns"},
	{"sim.self_ns_per_access", "ns"},
	{"sim.offchip_per_access", "ratio"},
	{"sim.phase.decode_s", "s"},
	{"sim.phase.step_s", "s"},
	{"cache.self_ns_per_access", "ns"},
	{"cache.l1.probe_ns", "ns"},
	{"cache.l2.probe_ns", "ns"},
	{"cache.llc.probe_ns", "ns"},
	{"cache.l1.miss_rate", "ratio"},
	{"cache.l2.miss_rate", "ratio"},
	{"cache.llc.miss_rate", "ratio"},
	{"cache.writebacks_per_access", "ratio"},
	{"secmem.self_ns_per_access", "ns"},
	{"secmem.ctr_hit_ns", "ns"},
	{"secmem.ctr_miss_ns", "ns"},
	{"secmem.ctr_miss_rate", "ratio"},
	{"secmem.mt_reads_per_ctr_miss", "ratio"},
	{"secmem.mac_ns", "ns"},
	{"secmem.mac_per_access", "ratio"},
	{"secmem.writeback_ns", "ns"},
	{"secmem.traffic_per_access", "ratio"},
	{"dram.self_ns_per_access", "ns"},
	{"dram.access_ns", "ns"},
	{"dram.accesses_per_access", "ratio"},
	{"dram.row_hit_rate", "ratio"},
	{"core.self_ns_per_access", "ns"},
	{"core.data_predict_ns", "ns"},
	{"core.data_learn_ns", "ns"},
	{"core.ctr_observe_ns", "ns"},
	{"core.data_accuracy", "ratio"},
	{"core.ctr_good_frac", "ratio"},
	{"core.cet_hit_rate", "ratio"},
	{"layers.coverage", "ratio"},
	{"replay.count_gap", "ratio"},
	{"tracing.overhead_pct", "%"},
}

// workloadNames are the benchmark's workloads, in BENCHMARK.json order.
var workloadNames = []string{"eval-matrix", "mcf-cosmos", "vgg-cosmos"}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// metrics collects one run's values, keyed by declared name.
type metrics map[string]float64

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: eval-matrix, mcf-cosmos or vgg-cosmos")
	seed := flag.Uint64("seed", defaultSeed, fmt.Sprintf("input seed (held-out seed for claims: %d)", heldOutSeed))
	seconds := flag.Float64("seconds", 30, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced replay")
	record := flag.String("record-digests", "", "run every workload at the default seed and write the result digests to this file")
	flag.Parse()

	timer := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "benchmark: exceeded %v, aborting\n", deadline)
		os.Exit(3)
	})
	defer timer.Stop()
	ctx := context.Background()

	if *record != "" {
		if err := recordDigests(ctx, *record); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		return 2
	}
	chk, err := newChecker(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	var m metrics
	switch {
	case *workload == "eval-matrix" && *traced == 0:
		m, err = timedEval(ctx, *seed, *seconds, chk)
	case *workload == "eval-matrix":
		m, err = tracedEval(ctx, *seed, chk)
	case *traced == 0:
		var c cell
		if c, err = singleCell(*workload, *seed); err == nil {
			m, err = timedSingle(ctx, c, *seconds, chk)
		}
	default:
		var c cell
		if c, err = singleCell(*workload, *seed); err == nil {
			m, err = tracedSingle(ctx, c, chk)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defs := e2eDefs
	if *traced == 1 {
		defs = layerDefs
	}
	res, err := assemble(m, defs, chk)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	for _, d := range defs {
		fmt.Printf("%-30s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	for _, p := range chk.problems {
		fmt.Println("FAILED:", p)
	}
	fmt.Printf("simulations checked %d, failed %d (error rate %.4g)\n",
		chk.attempted, chk.failed, ratio(float64(chk.failed), float64(chk.attempted)))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// assemble checks that the run produced exactly the declared metrics and
// builds the result line.
func assemble(m metrics, defs []metricDef, chk *checker) (result, error) {
	res := result{
		Correct:   chk.failed == 0 && chk.attempted > 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   make(map[string]metricVal, len(defs)),
	}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricVal{Value: v, Unit: d.unit}
	}
	if len(m) != len(defs) {
		var extra []string
		for name := range m {
			if _, ok := res.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return res, fmt.Errorf("undeclared metrics %v", extra)
	}
	return res, nil
}
