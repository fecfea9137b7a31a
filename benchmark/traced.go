package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cosmos/internal/memsys"
	"cosmos/internal/runner"
	"cosmos/internal/sim"
	"cosmos/internal/telemetry"
	"cosmos/internal/trace"
	"cosmos/internal/workloads"
)

// spanSampleEvery keeps the spans of one access in this many whole.
const spanSampleEvery = 4096

// evalTraceStride picks the eval-matrix cells the traced run replays: every
// stride-th cell of the campaign order, which covers every design family,
// the 8-core machine and the ML workloads.
const evalTraceStride = 12

// layerTotals sums what the traced run measured over one or more cells.
type layerTotals struct {
	accesses float64
	baseNs   float64 // decode + Step wall of the real System, from its Phases
	decodeS  float64
	stepS    float64
	agg      [numKinds]kindAgg
	obsTicks int64
	obsCalls uint64
	// Self time of CtrAccess hits, misses and secmem writebacks with the
	// standalone Observe cost taken out, in ns.
	ctrHitNs, ctrMissNs, wbMemNs float64
	reg                          counters
	countGap                     float64
	gapName                      string
	spans                        []spanRec
}

// traceChunks is how many slices the real run and the replay of a cell are
// cut into and interleaved, so both see the same machine conditions.
const traceChunks = 32

// openStream hides a generator's Close from RunContext, which closes its
// generator on return; the traced run re-enters RunContext once per chunk
// on the same stream and closes it itself.
type openStream struct{ trace.Generator }

func (g openStream) NextBlock(dst []memsys.Access) int { return trace.NextBlock(g.Generator, dst) }

// traceCell runs one cell's real System, with its registry and phase clock
// attached, interleaved chunk by chunk with the spanned replay of the same
// cell; it checks the real System's Results against ref and adds both
// sides' measurements to tot.
func traceCell(ctx context.Context, c cell, ref sim.Results, cal clockCal, chk *checker, tot *layerTotals) error {
	realGen, err := c.build()
	if err != nil {
		return err
	}
	defer trace.CloseIfCloser(realGen)
	replayGen, err := c.build()
	if err != nil {
		return err
	}
	defer trace.CloseIfCloser(replayGen)

	s := sim.New(c.config(), c.design)
	reg := telemetry.NewRegistry()
	s.RegisterMetrics(reg.Root())
	ph := telemetry.NewPhases()
	s.AttachPhases(ph)
	tr := newTracer(spanSampleEvery)
	rp, err := newReplay(c.config(), c.design, tr)
	if err != nil {
		return err
	}
	runtime.GC()
	stream := openStream{trace.Limit(realGen, c.accesses)}
	var r sim.Results
	for i := uint64(1); i <= traceChunks && err == nil; i++ {
		upto := c.accesses * i / traceChunks
		r, err = runRecovered(ctx, s, stream, upto)
		rp.run(replayGen, upto)
	}
	chk.same(c.label+" (traced run's real System)", r, ref, err)
	if err != nil {
		return err
	}
	cellReg := counters{}
	cellReg.add(reg.Snapshot())
	tot.reg.add(reg.Snapshot())
	tot.accesses += float64(c.accesses)
	tot.decodeS += ph.Seconds(telemetry.PhaseDecode)
	tot.stepS += ph.Seconds(telemetry.PhaseStep)
	tot.baseNs += 1e9 * (ph.Seconds(telemetry.PhaseDecode) + ph.Seconds(telemetry.PhaseStep))

	for k := range tr.agg {
		a := &tot.agg[k]
		a.n += tr.agg[k].n
		a.children += tr.agg[k].children
		a.total += tr.agg[k].total
		a.self += tr.agg[k].self
	}
	tot.obsTicks += rp.obsTicks
	tot.obsCalls += rp.obsCalled
	meanObs := ratio(float64(rp.obsTicks)*cal.nsPerTick, float64(rp.obsCalled))
	tot.ctrHitNs += max(0, cal.selfNs(tr.agg[kCtrHit])-meanObs*float64(tr.agg[kCtrHit].n))
	tot.ctrMissNs += max(0, cal.selfNs(tr.agg[kCtrMiss])-meanObs*float64(tr.agg[kCtrMiss].n))
	tot.wbMemNs += max(0, cal.selfNs(tr.agg[kWbMem])-meanObs*float64(rp.n.ctrWrback))
	tot.spans = append(tot.spans, tr.spans...)
	if gap, name := rp.countGap(cellReg); gap > tot.countGap || tot.gapName == "" {
		tot.countGap, tot.gapName = gap, c.label+": "+name
	}
	return nil
}

func tracedSingle(ctx context.Context, c cell, chk *checker) (metrics, error) {
	ref, _, err := c.oneShot(ctx)
	chk.check(c.label, ref, c.accesses, err)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	gen, err := c.build()
	if err != nil {
		return nil, err
	}
	buildS := time.Since(t0).Seconds()
	trace.CloseIfCloser(gen)

	cal := calibrate()
	tot := &layerTotals{reg: counters{}}
	if err := traceCell(ctx, c, ref, cal, chk, tot); err != nil {
		return nil, err
	}
	// The runner and the COSMOS gain: the same simulation beside NP and
	// MorphCtr through a Lab, its COSMOS cell checked against the one-shot.
	mx := designTriple(c)
	cp, err := runCampaign(ctx, mx, chk, nil, nil)
	if err != nil {
		return nil, err
	}
	cosmos := mx.cells[len(mx.cells)-1]
	chk.same(cosmos.label+" (runner)", cp.results[cosmos.label], ref, nil)

	m := layerMetrics(tot, cal)
	putRunnerMetrics(m, cp)
	m["workloads.build_s"] = buildS
	fmt.Printf("runner: %d cells on %d workers, wall %.2fs; COSMOS vs MorphCtr on %s %+.1f%%\n",
		cp.executed, runtime.NumCPU(), cp.wall.Seconds(), c.workload, cp.gainPct)
	finishTrace(c.label, c.seed, tot, cal)
	return m, nil
}

func tracedEval(ctx context.Context, seed uint64, chk *checker) (metrics, error) {
	sc := evalScale(seed)
	// The first graph workload built in a process builds the graph.
	t0 := time.Now()
	gen, err := workloads.Build("DFS", workloads.Options{Threads: 4, Seed: sc.Seed,
		GraphNodes: sc.GraphNodes, GraphDegree: sc.GraphDegree})
	if err != nil {
		return nil, err
	}
	buildS := time.Since(t0).Seconds()
	trace.CloseIfCloser(gen)

	phases := telemetry.NewPhases()
	cp, err := runCampaign(ctx, evalMatrix(seed), chk, nil, func(o *runner.Orchestrator) { o.Phases = phases })
	if err != nil {
		return nil, err
	}

	cal := calibrate()
	tot := &layerTotals{reg: counters{}}
	cells := evalCells(sc)
	for i := 0; i < len(cells); i += evalTraceStride {
		if err := traceCell(ctx, cells[i], cp.results[cells[i].label], cal, chk, tot); err != nil {
			return nil, err
		}
	}
	m := layerMetrics(tot, cal)
	putRunnerMetrics(m, cp)
	m["workloads.build_s"] = buildS
	// The campaign's own phase split covers all 116 cells; decode includes
	// workload construction, as the runner books it.
	m["sim.phase.decode_s"] = phases.Seconds(telemetry.PhaseDecode)
	m["sim.phase.step_s"] = phases.Seconds(telemetry.PhaseStep)
	fmt.Printf("campaign wall %.2fs on %d workers; replayed %d of %d cells\n",
		cp.wall.Seconds(), runtime.NumCPU(), (len(cells)+evalTraceStride-1)/evalTraceStride, len(cells))
	finishTrace("eval-matrix", seed, tot, cal)
	return m, nil
}

// putRunnerMetrics stores what the runner's Observer reported for a
// campaign: busy is the cells' summed ExecTime ÷ (wall × workers).
func putRunnerMetrics(m metrics, cp campaign) {
	var execS float64
	for _, d := range cp.cellTimes {
		execS += d.Seconds()
	}
	m["runner.cells_executed"] = float64(cp.executed)
	m["runner.exec_s"] = execS
	m["runner.queue_wait_s"] = cp.queueWait.Seconds()
	m["runner.busy_frac"] = execS / (cp.wall.Seconds() * float64(runtime.NumCPU()))
	m["experiments.cosmos_gain_pct"] = cp.gainPct
}

// finishTrace prints the replay's check figures and writes the kept spans.
func finishTrace(label string, seed uint64, tot *layerTotals, cal clockCal) {
	fmt.Printf("replay: %.0f accesses, %d spans kept (1 access in %d), largest count gap %.3g at %s\n",
		tot.accesses, len(tot.spans), spanSampleEvery, tot.countGap, tot.gapName)
	fmt.Printf("clock: %.3f ns/tick, span overhead %.1f ns self + %.1f ns per child\n",
		cal.nsPerTick, cal.selfTicks*cal.nsPerTick, cal.parentTicks*cal.nsPerTick)
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", label, seed))
	if err := writeSpans(path, tot.spans, cal); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: spans not written:", err)
	}
}

// layerMetrics turns the summed spans and registry counts into the
// per-layer metrics.
func layerMetrics(t *layerTotals, cal clockCal) metrics {
	ns := func(k kind) float64 { return cal.selfNs(t.agg[k]) }
	perCall := func(total float64, calls uint64) float64 { return ratio(total, float64(calls)) }
	obsNs := float64(t.obsTicks) * cal.nsPerTick
	meanObs := perCall(obsNs, t.obsCalls)

	var self [numLayers]float64
	for k := kind(0); k < kCalChild; k++ {
		self[kindInfo[k].layer] += ns(k)
	}
	// Observe runs inside CtrAccess; its standalone cost moves to core.
	moved := min(obsNs, self[layerSecmem])
	self[layerSecmem] -= moved
	self[layerCore] += moved
	var total float64
	for _, v := range self {
		total += v
	}
	acc := t.accesses
	reg := t.reg
	n := func(k kind) uint64 { return t.agg[k].n }
	ctrHits, ctrMisses := reg.get("secmem.ctr.hits"), reg.get("secmem.ctr.misses")
	traced := float64(t.agg[kDecode].total+t.agg[kAccess].total) * cal.nsPerTick

	m := metrics{
		"trace.decode_ns_per_access": self[layerTrace] / acc,
		"sim.step_ns_per_access":     (total - self[layerTrace]) / acc,
		"sim.self_ns_per_access":     self[layerSim] / acc,
		"sim.offchip_per_access":     reg.get("sim.offchip_reads") / acc,
		"sim.phase.decode_s":         t.decodeS,
		"sim.phase.step_s":           t.stepS,

		"cache.self_ns_per_access":    self[layerCache] / acc,
		"cache.l1.probe_ns":           perCall(ns(kProbeL1), n(kProbeL1)),
		"cache.l2.probe_ns":           perCall(ns(kProbeL2), n(kProbeL2)),
		"cache.llc.probe_ns":          perCall(ns(kProbeLLC), n(kProbeLLC)),
		"cache.l1.miss_rate":          ratio(reg.sumMatch("core", ".l1.misses"), reg.sumMatch("core", ".l1.accesses")),
		"cache.l2.miss_rate":          ratio(reg.sumMatch("core", ".l2.misses"), reg.sumMatch("core", ".l2.accesses")),
		"cache.llc.miss_rate":         ratio(reg.get("llc.misses"), reg.get("llc.accesses")),
		"cache.writebacks_per_access": (reg.sumMatch("core", ".writebacks") + reg.get("llc.writebacks")) / acc,

		"secmem.self_ns_per_access":    self[layerSecmem] / acc,
		"secmem.ctr_hit_ns":            perCall(t.ctrHitNs, n(kCtrHit)),
		"secmem.ctr_miss_ns":           perCall(t.ctrMissNs, n(kCtrMiss)),
		"secmem.ctr_miss_rate":         ratio(ctrMisses, ctrHits+ctrMisses),
		"secmem.mt_reads_per_ctr_miss": ratio(reg.get("secmem.traffic.mt_read"), ctrMisses),
		"secmem.mac_ns":                perCall(ns(kMAC), n(kMAC)),
		"secmem.mac_per_access":        reg.sumMatch("secmem.mac_cache", ".accesses") / acc,
		"secmem.writeback_ns":          perCall(t.wbMemNs, n(kWbMem)),
		"secmem.traffic_per_access":    reg.get("secmem.traffic.total") / acc,

		"dram.self_ns_per_access":  self[layerDRAM] / acc,
		"dram.access_ns":           perCall(ns(kDRAM)+ns(kWasted), n(kDRAM)+n(kWasted)),
		"dram.accesses_per_access": (reg.get("secmem.dram.reads") + reg.get("secmem.dram.writes")) / acc,
		"dram.row_hit_rate":        reg.rate("secmem.dram.row_hit_rate"),

		"core.self_ns_per_access": self[layerCore] / acc,
		"core.data_predict_ns":    perCall(ns(kPredict), n(kPredict)),
		"core.data_learn_ns":      perCall(ns(kLearn), n(kLearn)),
		"core.ctr_observe_ns":     meanObs,
		"core.data_accuracy":      reg.rate("secmem.data_pred.accuracy"),
		"core.ctr_good_frac":      reg.rate("secmem.ctr_pred.good_fraction"),
		"core.cet_hit_rate":       reg.rate("secmem.ctr_pred.cet_hit_rate"),

		"layers.coverage":      ratio(total, t.baseNs),
		"replay.count_gap":     t.countGap,
		"tracing.overhead_pct": 100 * ratio(traced-t.baseNs, t.baseNs),
	}
	return m
}
