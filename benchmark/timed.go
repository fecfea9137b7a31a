package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"cosmos/internal/experiments"
	"cosmos/internal/graph"
	"cosmos/internal/memsys"
	"cosmos/internal/runner"
	"cosmos/internal/secmem"
	"cosmos/internal/sim"
	"cosmos/internal/trace"
	"cosmos/internal/workloads"
)

// epochLen is the access count of one timed epoch; the single simulations
// run singleEpochs of them so the p90 has more than ten samples beyond it.
const (
	epochLen     = 32_768
	singleEpochs = 128
)

// setupReps is how many times each run measures set-up; setup_s is their
// median.
const setupReps = 5

// cell is one simulation: a workload on a design point, as the runner
// would run it.
type cell struct {
	label    string
	workload string
	design   secmem.Design
	cores    int
	accesses uint64
	seed     uint64
	nodes    int
	degree   int
}

// config is the machine runner.Spec derives for a standard cell.
func (c cell) config() sim.Config {
	var cfg sim.Config
	if c.cores == 8 {
		cfg = sim.EightCore()
	} else {
		cfg = sim.DefaultConfig()
		cfg.Cores = c.cores
	}
	cfg.MC.Seed = c.seed
	cfg.MC.Params.Seed = c.seed
	return cfg
}

func (c cell) build() (trace.Generator, error) {
	return workloads.Build(c.workload, workloads.Options{
		Threads: c.cores, Seed: c.seed, GraphNodes: c.nodes, GraphDegree: c.degree,
	})
}

// oneShot is the plain run every other way of running the cell is compared
// with: build, sim.New, one RunContext. It also returns the System so the
// caller can measure what stays live.
func (c cell) oneShot(ctx context.Context) (r sim.Results, s *sim.System, err error) {
	defer recoverInto(&err)
	gen, err := c.build()
	if err != nil {
		return r, nil, err
	}
	s = sim.New(c.config(), c.design)
	r, err = s.RunContext(ctx, trace.Limit(gen, c.accesses), c.accesses)
	return r, s, err
}

func recoverInto(err *error) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("panic: %v", p)
	}
}

func evalScale(seed uint64) experiments.Scale {
	sc := experiments.SmallScale()
	sc.Seed = seed
	return sc
}

// singleCell resolves the two single-simulation workloads.
func singleCell(name string, seed uint64) (cell, error) {
	sc := evalScale(seed)
	c := cell{label: name, design: secmem.DesignCosmos(), cores: 4,
		accesses: singleEpochs * epochLen, seed: seed, nodes: sc.GraphNodes, degree: sc.GraphDegree}
	switch name {
	case "mcf-cosmos":
		c.workload = "mcf"
	case "vgg-cosmos":
		c.workload = "VGG"
	default:
		return c, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return c, nil
}

// evalCells lists the cells experiments.Prewarm runs, in its order: Fig 10's
// eleven irregular workloads on seven designs, Fig 15's 8-core runs and
// Fig 17's ML runs. The campaign's results are read back through the
// orchestrator's memo with these specs, so a difference from Prewarm's own
// list shows up as an unexpected extra simulation.
func evalCells(sc experiments.Scale) []cell {
	var cells []cell
	add := func(w string, d secmem.Design, cores int) {
		c := cell{workload: w, design: d, cores: cores, accesses: sc.Accesses,
			seed: sc.Seed, nodes: sc.GraphNodes, degree: sc.GraphDegree}
		c.label = "eval-matrix/" + c.spec().DisplayLabel()
		cells = append(cells, c)
	}
	designs := []secmem.Design{
		secmem.DesignNP(), secmem.DesignMorph(), secmem.DesignEMCC(),
		secmem.DesignRMCC(), secmem.DesignCosmosDP(), secmem.DesignCosmosCP(),
		secmem.DesignCosmos(),
	}
	for _, w := range append(workloads.GraphNames(), workloads.SpecNames()...) {
		for _, d := range designs {
			add(w, d, 4)
		}
	}
	three := []secmem.Design{secmem.DesignNP(), secmem.DesignMorph(), secmem.DesignCosmos()}
	for _, w := range []string{"BFS", "DFS", "TC", "GC", "CC", "SP", "DC"} {
		for _, d := range three {
			add(w, d, 8)
		}
	}
	for _, w := range workloads.MLNames() {
		for _, d := range three {
			add(w, d, 4)
		}
	}
	return cells
}

func (c cell) spec() runner.Spec {
	return runner.Spec{Workload: c.workload, Design: c.design, Cores: c.cores,
		Accesses: c.accesses, GraphNodes: c.nodes, GraphDegree: c.degree, Seed: c.seed}
}

// matrix is a set of cells one Lab runs through its runner: the evaluation
// matrix, or a single simulation's workload on NP, MorphCtr and COSMOS.
type matrix struct {
	sc       experiments.Scale
	cells    []cell
	gainOver []string // workloads of the COSMOS-vs-MorphCtr average
	start    func(context.Context, *experiments.Lab) error
}

func evalMatrix(seed uint64) matrix {
	sc := evalScale(seed)
	return matrix{sc: sc, cells: evalCells(sc),
		gainOver: append(workloads.GraphNames(), workloads.SpecNames()...),
		start:    func(_ context.Context, l *experiments.Lab) error { return experiments.Prewarm(l) }}
}

// designTriple is the single simulation c beside the same workload on NP
// and MorphCtr, as Fig 17 runs it, so the runner and the COSMOS gain are
// measured on the single-simulation workloads too.
func designTriple(c cell) matrix {
	sc := evalScale(c.seed)
	sc.Accesses = c.accesses
	m := matrix{sc: sc, gainOver: []string{c.workload}}
	var specs []runner.Spec
	for _, d := range []secmem.Design{secmem.DesignNP(), secmem.DesignMorph(), secmem.DesignCosmos()} {
		t := c
		t.design = d
		t.label = c.label + "/" + t.spec().DisplayLabel()
		m.cells = append(m.cells, t)
		specs = append(specs, t.spec())
	}
	m.start = func(ctx context.Context, l *experiments.Lab) error {
		return l.Orchestrator().RunAll(ctx, specs)
	}
	return m
}

// campaign is one run of a matrix and what the runner reported.
type campaign struct {
	wall      time.Duration
	cellTimes map[string]time.Duration // ExecTime of every executed cell
	queueWait time.Duration
	executed  int
	accesses  uint64
	ipcSum    float64
	gainPct   float64
	heapMiB   float64
	results   map[string]sim.Results
}

// runCampaign runs a matrix on a fresh Lab with one worker per CPU and
// checks every cell: against ref when given (a repeat campaign), else by
// digest or invariants. attach, when set, may instrument the Lab's
// orchestrator before the campaign starts.
func runCampaign(ctx context.Context, mx matrix, chk *checker, ref map[string]sim.Results,
	attach func(*runner.Orchestrator)) (campaign, error) {
	var (
		mu sync.Mutex
		cp = campaign{results: map[string]sim.Results{}, cellTimes: map[string]time.Duration{}}
	)
	observe := func(ev runner.Event) {
		if ev.Source != runner.SourceExecuted || ev.Err != nil {
			return
		}
		mu.Lock()
		cp.cellTimes[ev.Label] = ev.ExecTime
		cp.queueWait += ev.QueueWait
		mu.Unlock()
	}
	lab := experiments.NewLab(mx.sc, experiments.WithWorkers(runtime.NumCPU()), experiments.WithObserver(observe))
	orch := lab.Orchestrator()
	if attach != nil {
		attach(orch)
	}
	start := time.Now()
	startErr := mx.start(ctx, lab)
	cp.wall = time.Since(start)
	cp.executed = int(orch.Stats().Executed)

	for _, c := range mx.cells {
		var r sim.Results
		err := startErr
		if err == nil {
			r, err = orch.Run(ctx, c.spec())
		}
		if ref != nil {
			chk.same(c.label+" (repeat campaign)", r, ref[c.label], err)
		} else {
			chk.check(c.label, r, c.accesses, err)
		}
		cp.results[c.label] = r
		cp.accesses += r.Accesses
		cp.ipcSum += r.IPC
	}
	if startErr != nil {
		return cp, nil
	}
	if extra := int(orch.Stats().Executed) - cp.executed; extra != 0 || cp.executed != len(mx.cells) {
		return cp, fmt.Errorf("campaign executed %d cells, the benchmark lists %d (%d outside the campaign)",
			cp.executed, len(mx.cells), extra)
	}

	// COSMOS against MorphCtr over gainOver, from the memo (Fig 10's
	// irregular average on the evaluation matrix).
	var morph, cosmos float64
	for _, w := range mx.gainOver {
		morph += lab.Perf(w, secmem.DesignMorph())
		cosmos += lab.Perf(w, secmem.DesignCosmos())
	}
	if extra := int(orch.Stats().Executed) - cp.executed; extra != 0 {
		return cp, fmt.Errorf("the COSMOS gain ran %d cells outside the campaign", extra)
	}
	cp.gainPct = 100 * (cosmos/morph - 1)
	cp.heapMiB = liveHeapMiB()
	runtime.KeepAlive(lab)
	return cp, nil
}

// liveHeapMiB forces a collection and returns the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// nominalRepS is each workload's host seconds for one repetition at the
// benchmark's introduction, measured on a 2-CPU VM: one campaign with its
// two set-ups, one epoch-timed single simulation.
var nominalRepS = map[string]float64{"eval-matrix": 11, "mcf-cosmos": 3.6, "vgg-cosmos": 1.9}

// repsFor fixes a run's repetition count from --seconds and the nominal
// length of one repetition alone, never from how fast the code under test
// turns out to be, so that a slower change gets as many tries at its
// fastest time as a faster one.
func repsFor(seconds, nominal float64) int {
	return max(1, int(seconds/nominal+0.5))
}

func timedEval(ctx context.Context, seed uint64, seconds float64, chk *checker) (metrics, error) {
	mx := evalMatrix(seed)
	sc := mx.sc
	// Set-up: the campaign's shared input is its scale-free graph, built on
	// first use and then cached for the process. Each repetition builds it
	// without the cache, plus one machine; repetitions are spread between
	// the campaigns.
	var setups []float64
	setup := func() {
		runtime.GC()
		t0 := time.Now()
		g := graph.NewBarabasiAlbert(sc.GraphNodes, sc.GraphDegree, sc.Seed)
		s := sim.New(mx.cells[0].config(), secmem.DesignCosmos())
		setups = append(setups, time.Since(t0).Seconds())
		runtime.KeepAlive(g)
		runtime.KeepAlive(s)
	}
	// Fill the graph cache so that every campaign below starts alike.
	gen, err := workloads.Build("DFS", workloads.Options{Threads: 4, Seed: sc.Seed,
		GraphNodes: sc.GraphNodes, GraphDegree: sc.GraphDegree})
	if err != nil {
		return nil, err
	}
	trace.CloseIfCloser(gen)

	var (
		heaps, walls []float64
		best         = map[string]time.Duration{}
		first        map[string]sim.Results
		ipc, gain    float64
		accesses     uint64
	)
	reps := repsFor(seconds, nominalRepS["eval-matrix"])
	for i := 0; i < reps; i++ {
		setup()
		setup()
		runtime.GC()
		cp, err := runCampaign(ctx, mx, chk, first, nil)
		if err != nil {
			return nil, err
		}
		for label, d := range cp.cellTimes {
			if b, ok := best[label]; !ok || d < b {
				best[label] = d
			}
		}
		heaps = append(heaps, cp.heapMiB)
		walls = append(walls, cp.wall.Seconds())
		if first == nil {
			first = cp.results
			ipc = cp.ipcSum / float64(len(cp.results))
			gain = cp.gainPct
			accesses = cp.accesses
		}
	}
	for len(setups) < setupReps {
		setup()
	}
	epochs := make([]float64, 0, len(best))
	for _, d := range best {
		epochs = append(epochs, d.Seconds()*1e3*epochLen/float64(sc.Accesses))
	}
	fmt.Printf("campaigns %d (walls %.3g s), cells timed %d; Fig 10 COSMOS vs MorphCtr %+.1f%% (paper: +25%%; model unvalidated against hardware)\n",
		reps, walls, len(best), gain)
	m := metrics{
		"setup_s":           median(setups),
		"accesses_per_s":    float64(accesses) / slices.Min(walls),
		"heap_retained_mib": median(heaps),
		"sim_ipc":           ipc,
	}
	return m, putPercentiles(m, "epoch_ms", epochs)
}

// putPercentiles stores the p50 and p90 of samples under prefix, refusing
// a p90 with fewer than ten samples beyond it.
func putPercentiles(m metrics, prefix string, samples []float64) error {
	p50, err := percentile(samples, 0.5)
	if err != nil {
		return fmt.Errorf("%s_p50: %w", prefix, err)
	}
	p90, err := percentile(samples, 0.9)
	if err != nil {
		return fmt.Errorf("%s_p90: %w", prefix, err)
	}
	m[prefix+"_p50"], m[prefix+"_p90"] = p50, p90
	return nil
}

// epochClock hands the wrapped generator's accesses through unchanged and
// stamps the time at every epoch boundary it hands out, so the simulator's
// own block loop can be timed without re-entering RunContext.
type epochClock struct {
	g      trace.Generator
	handed uint64
	next   uint64
	marks  []time.Time
}

func newEpochClock(g trace.Generator, accesses uint64) *epochClock {
	return &epochClock{g: g, marks: make([]time.Time, 0, accesses/epochLen+2)}
}

func (e *epochClock) Name() string { return e.g.Name() }

func (e *epochClock) Next() (memsys.Access, bool) {
	var one [1]memsys.Access
	if e.NextBlock(one[:]) == 0 {
		return memsys.Access{}, false
	}
	return one[0], true
}

func (e *epochClock) NextBlock(dst []memsys.Access) int {
	if e.handed >= e.next {
		e.marks = append(e.marks, time.Now())
		e.next += epochLen
	}
	n := trace.NextBlock(e.g, dst)
	e.handed += uint64(n)
	return n
}

func (e *epochClock) Close() { trace.CloseIfCloser(e.g) }

// epochsMS returns the epoch durations, the last one closed by end.
func (e *epochClock) epochsMS(end time.Time) []float64 {
	marks := append(e.marks, end)
	out := make([]float64, 0, len(marks)-1)
	for i := 1; i < len(marks); i++ {
		out = append(out, float64(marks[i].Sub(marks[i-1]).Nanoseconds())/1e6)
	}
	return out
}

func timedSingle(ctx context.Context, c cell, seconds float64, chk *checker) (metrics, error) {
	// The plain one-shot run is the reference for every timed repetition;
	// it also warms the process up.
	ref, _, err := c.oneShot(ctx)
	chk.check(c.label, ref, c.accesses, err)
	if err != nil {
		return nil, err
	}

	var (
		setups, heaps, rates []float64
		best                 []float64 // per epoch, the fastest repetition
	)
	for i := repsFor(seconds, nominalRepS[c.label]); i > 0; i-- {
		runtime.GC()
		t0 := time.Now()
		gen, err := c.build()
		if err != nil {
			return nil, err
		}
		s := sim.New(c.config(), c.design)
		setups = append(setups, time.Since(t0).Seconds())

		ec := newEpochClock(trace.Limit(gen, c.accesses), c.accesses)
		t1 := time.Now()
		r, err := runRecovered(ctx, s, ec, c.accesses)
		end := time.Now()
		chk.same(c.label+" (epoch-timed)", r, ref, err)
		rates = append(rates, float64(c.accesses)/end.Sub(t1).Seconds())
		for i, e := range ec.epochsMS(end) {
			if i == len(best) {
				best = append(best, e)
			} else {
				best[i] = min(best[i], e)
			}
		}
		heaps = append(heaps, liveHeapMiB())
		runtime.KeepAlive(s)
		runtime.KeepAlive(gen)
	}
	for len(setups) < setupReps {
		runtime.GC()
		t0 := time.Now()
		gen, err := c.build()
		if err != nil {
			return nil, err
		}
		s := sim.New(c.config(), c.design)
		setups = append(setups, time.Since(t0).Seconds())
		trace.CloseIfCloser(gen)
		runtime.KeepAlive(s)
	}
	var sum float64
	for _, e := range best {
		sum += e
	}
	fmt.Printf("repetitions %d of %d epochs x %d accesses; whole-run rates %.3g..%.3g acc/s\n",
		len(rates), len(best), epochLen, slices.Min(rates), slices.Max(rates))
	m := metrics{
		"setup_s":           median(setups),
		"accesses_per_s":    float64(c.accesses) / (sum / 1e3),
		"heap_retained_mib": median(heaps),
		"sim_ipc":           ref.IPC,
	}
	return m, putPercentiles(m, "epoch_ms", best)
}

func runRecovered(ctx context.Context, s *sim.System, g trace.Generator, n uint64) (r sim.Results, err error) {
	defer recoverInto(&err)
	return s.RunContext(ctx, g, n)
}

func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

// percentile is quantile with the rule that a reported percentile needs
// at least ten samples beyond it.
func percentile(xs []float64, q float64) (float64, error) {
	if beyond := float64(len(xs)) * (1 - q); q > 0.5 && beyond < 10 {
		return 0, fmt.Errorf("%d samples leave %.1f beyond p%.0f, need 10", len(xs), beyond, 100*q)
	}
	return quantile(xs, q)
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("no samples")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1], nil
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i]), nil
}
