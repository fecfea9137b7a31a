package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"cosmos/internal/secmem"
	"cosmos/internal/sim"
	"cosmos/internal/trace"
)

// maxCountGap is the largest replay.count_gap the replay may show: it makes
// exactly the calls Step makes, so every count matches.
const maxCountGap = 0.0

func TestMetricsDeclaredInBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	compare := func(what string, defs []metricDef, declared []struct{ Name, Unit string }) {
		t.Helper()
		want := map[string]string{}
		for _, d := range declared {
			want[d.Name] = d.Unit
		}
		got := map[string]string{}
		for _, d := range defs {
			if !valid.MatchString(d.name) {
				t.Errorf("%s metric %q: name outside [A-Za-z0-9_.-]", what, d.name)
			}
			if _, dup := got[d.name]; dup {
				t.Errorf("%s metric %q emitted twice", what, d.name)
			}
			got[d.name] = d.unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s metrics emitted %v, declared %v", what, got, want)
		}
	}
	compare("end-to-end", e2eDefs, bj.EndToEnd)
	compare("per-layer", layerDefs, bj.PerLayer)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, declared %v", workloadNames, names)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	// The sample counts the benchmark takes its p90 over: epochs of a
	// single simulation, cells of the evaluation matrix.
	for _, n := range []int{singleEpochs, len(evalCells(evalScale(defaultSeed)))} {
		if _, err := percentile(samples(n), 0.9); err != nil {
			t.Errorf("%d samples: %v", n, err)
		}
	}
	if _, err := percentile(samples(99), 0.9); err == nil {
		t.Error("p90 of 99 samples accepted with fewer than 10 beyond it")
	}
	if v, _ := percentile(samples(101), 0.5); v != 50 {
		t.Errorf("p50 of 0..100 = %v, want 50", v)
	}
}

// smallCell is a cell short enough for a test.
func smallCell(t *testing.T, workload string, d secmem.Design, cores int) cell {
	t.Helper()
	sc := evalScale(defaultSeed)
	return cell{label: workload + "_" + d.Name, workload: workload, design: d, cores: cores,
		accesses: 3 * epochLen, seed: defaultSeed, nodes: 50_000, degree: sc.GraphDegree}
}

func traceOnce(t *testing.T, c cell, cal clockCal) (*layerTotals, *checker) {
	t.Helper()
	ctx := context.Background()
	chk := &checker{got: map[string]string{}}
	ref, _, err := c.oneShot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tot := &layerTotals{reg: counters{}}
	if err := traceCell(ctx, c, ref, cal, chk, tot); err != nil {
		t.Fatal(err)
	}
	if chk.failed != 0 {
		t.Fatalf("%s: %v", c.label, chk.problems)
	}
	return tot, chk
}

func TestTracedCountsRepeatExactly(t *testing.T) {
	cal := calibrate()
	c := smallCell(t, "mcf", secmem.DesignCosmos(), 4)
	a, _ := traceOnce(t, c, cal)
	b, _ := traceOnce(t, c, cal)
	if !reflect.DeepEqual(a.reg, b.reg) {
		t.Error("registry counts differ between two traced runs")
	}
	for k := range a.agg {
		if a.agg[k].n != b.agg[k].n {
			t.Errorf("span %s: %d calls, then %d", kindInfo[k].name, a.agg[k].n, b.agg[k].n)
		}
	}
	if a.obsCalls != b.obsCalls {
		t.Errorf("Observe calls %d, then %d", a.obsCalls, b.obsCalls)
	}
	ma, mb := layerMetrics(a, cal), layerMetrics(b, cal)
	for _, name := range []string{"cache.l1.miss_rate", "secmem.ctr_miss_rate", "dram.row_hit_rate",
		"core.data_accuracy", "core.ctr_good_frac", "secmem.traffic_per_access", "replay.count_gap"} {
		if ma[name] != mb[name] {
			t.Errorf("%s: %v, then %v", name, ma[name], mb[name])
		}
	}
}

func TestReplayMatchesRealSystem(t *testing.T) {
	cal := calibrate()
	cases := []cell{
		smallCell(t, "mcf", secmem.DesignCosmos(), 4),
		smallCell(t, "VGG", secmem.DesignCosmos(), 4),
		smallCell(t, "BFS", secmem.DesignNP(), 4),
		smallCell(t, "DFS", secmem.DesignMorph(), 8),
		smallCell(t, "canneal", secmem.DesignEMCC(), 4),
		smallCell(t, "PR", secmem.DesignRMCC(), 4),
		smallCell(t, "omnetpp", secmem.DesignCosmosDP(), 4),
		smallCell(t, "DLRM", secmem.DesignCosmosCP(), 4),
	}
	for _, c := range cases {
		tot, _ := traceOnce(t, c, cal)
		if tot.countGap > maxCountGap {
			t.Errorf("%s: replay.count_gap %v at %s, bound %v", c.label, tot.countGap, tot.gapName, maxCountGap)
		}
		if got := tot.agg[kAccess].n; got != c.accesses {
			t.Errorf("%s: replayed %d accesses, want %d", c.label, got, c.accesses)
		}
	}
}

func TestEpochClockDoesNotPerturb(t *testing.T) {
	ctx := context.Background()
	c := smallCell(t, "mcf", secmem.DesignCosmos(), 4)
	ref, _, err := c.oneShot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := c.build()
	if err != nil {
		t.Fatal(err)
	}
	ec := newEpochClock(trace.Limit(gen, c.accesses), c.accesses)
	r, err := sim.New(c.config(), c.design).RunContext(ctx, ec, c.accesses)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, ref) {
		t.Error("epoch-timed run differs from the plain one-shot run")
	}
	if got := len(ec.epochsMS(time.Now())); got != 3 {
		t.Errorf("%d epochs timed, want 3", got)
	}
}
