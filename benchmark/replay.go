package main

import (
	"fmt"
	"strings"

	"cosmos/internal/cache"
	"cosmos/internal/core"
	"cosmos/internal/ctr"
	"cosmos/internal/integrity"
	"cosmos/internal/memsys"
	"cosmos/internal/secmem"
	"cosmos/internal/sim"
	"cosmos/internal/telemetry"
	"cosmos/internal/trace"
)

// The replay rebuilds a workload's memory hierarchy from the packages'
// public constructors and drives it with an access loop that makes the
// same public calls sim.System.Step makes, in the same order, so each call
// can be timed from outside the program. It must stay in step with
// internal/sim (Step, planFetch, gradeOnChipHit, composeFetch, advance);
// replay.count_gap compares its call counts with the real System's
// registry and shows when it no longer does.

// replayCounts are the replay's own call counts, compared one by one with
// the real System's registry.
type replayCounts struct {
	accesses   uint64
	l1, l2     uint64 // probes plus writebacks installed, summed over cores
	llc        uint64
	ctrHit     uint64
	ctrMiss    uint64
	mac        uint64
	dataDRAM   uint64 // DataDRAM calls plus data writes inside writebacks
	wasted     uint64
	predict    uint64
	learn      uint64
	memWrbacks uint64
	ctrWrback  uint64 // CtrAccess calls made inside secmem writebacks
}

// timedLevel wraps a hierarchy level so that every dirty victim installed
// into it opens a span; the wrapped level's own behaviour is unchanged.
type timedLevel struct {
	memsys.Level
	r    *replay
	kind kind
	n    *uint64
}

func (l *timedLevel) Writeback(req memsys.Request) {
	*l.n++
	l.r.tr.begin()
	l.Level.Writeback(req)
	l.r.tr.end(l.kind)
}

// timedTerminal wraps secmem.NewLevel's terminal. Writeback on a protected
// line calls CtrAccess inside the engine, so its counter block is queued
// for the standalone locality predictor that estimates Observe's cost.
type timedTerminal struct {
	*secmem.Level
	r *replay
}

func (t *timedTerminal) Writeback(req memsys.Request) {
	r := t.r
	r.n.memWrbacks++
	r.n.dataDRAM++
	addr := memsys.LineToAddr(req.Line)
	if r.design.Secure && r.eng.InSecureRegion(addr) {
		r.observed(req.Line)
		r.n.ctrWrback++
		r.n.mac++
	}
	r.tr.begin()
	t.Level.Writeback(req)
	r.tr.end(kWbMem)
}

type replay struct {
	cfg    sim.Config
	design secmem.Design
	eng    *secmem.Engine
	chains [][]*cache.Level
	lats   []uint64
	l1Lat  uint64
	walk   uint64

	early       secmem.EarlyMode
	secureAll   bool
	secureBound uint64

	threadCycles []uint64

	tr *tracer
	n  replayCounts

	// The engine calls its CTR locality predictor inside CtrAccess, out
	// of the replay's reach. The counter blocks it sees are queued here
	// and fed, outside any span, to a standalone predictor built with the
	// same parameters; its measured cost is moved from secmem to core.
	layout    *integrity.SecureLayout
	obsPred   *core.LocalityPredictor
	obsQueue  []uint64
	obsTicks  int64
	obsCalled uint64
}

// obsFlushAt bounds the queue of counter blocks awaiting the standalone
// predictor; an access adds at most a handful.
const obsFlushAt = 1 << 14

func newReplay(cfg sim.Config, design secmem.Design, tr *tracer) (*replay, error) {
	if len(cfg.Levels) > 0 || cfg.Fault != nil {
		return nil, fmt.Errorf("replay: only the classic fault-free L1/L2/LLC machine is mirrored")
	}
	cfg.MC.Cores = cfg.Cores
	r := &replay{cfg: cfg, design: design, tr: tr, early: design.Early}
	r.eng = secmem.NewEngine(cfg.MC, design)
	if design.Secure {
		if cfg.MC.SecureRegionBytes == 0 {
			r.secureAll = true
		} else {
			r.secureBound = cfg.MC.SecureRegionBytes
		}
	}
	if design.UseLCR {
		coverage := ctr.Morph().LinesPerBlock
		if cfg.MC.MEETree {
			coverage = 8
		}
		r.layout = integrity.NewSecureLayout(cfg.MC.MemBytes, coverage)
		r.obsPred = core.NewLocalityPredictor(cfg.MC.Params)
		r.obsQueue = make([]uint64, 0, obsFlushAt+64)
	}

	newCache := func(name string, bytes, ways int, lat uint64, down memsys.Level) *cache.Level {
		return cache.NewLevel(cache.New(name, bytes, ways, cache.NewLRU()), lat, down)
	}
	term := &timedTerminal{Level: secmem.NewLevel(r.eng), r: r}
	llc := newCache("llc", cfg.LLCBytes, cfg.LLCWays, cfg.LLCLat, term)
	llcIn := &timedLevel{Level: llc, r: r, kind: kWbLLC, n: &r.n.llc}
	r.chains = make([][]*cache.Level, cfg.Cores)
	for c := range r.chains {
		l2 := newCache("l2", cfg.L2Bytes, cfg.L2Ways, cfg.L2Lat, llcIn)
		l2In := &timedLevel{Level: l2, r: r, kind: kWbL2, n: &r.n.l2}
		l1 := newCache("l1", cfg.L1Bytes, cfg.L1Ways, cfg.L1Lat, l2In)
		r.chains[c] = []*cache.Level{l1, l2, llc}
	}
	r.lats = []uint64{cfg.L1Lat, cfg.L2Lat, cfg.LLCLat}
	r.l1Lat = cfg.L1Lat
	r.walk = cfg.L2Lat + cfg.LLCLat
	r.threadCycles = make([]uint64, cfg.Cores)
	return r, nil
}

// observed queues the counter block CtrAccess classifies for dataLine.
func (r *replay) observed(dataLine uint64) {
	if r.obsPred != nil {
		r.obsQueue = append(r.obsQueue, r.layout.CtrBlockOf(dataLine))
	}
}

// flushObserve runs the queued counter blocks through the standalone
// predictor, timing the batch. Called between accesses only.
func (r *replay) flushObserve() {
	if len(r.obsQueue) == 0 {
		return
	}
	t0 := ticks()
	for _, b := range r.obsQueue {
		r.obsPred.Observe(b)
	}
	r.obsTicks += ticks() - t0
	r.obsCalled += uint64(len(r.obsQueue))
	r.obsQueue = r.obsQueue[:0]
}

// run replays accesses from gen until n have been replayed in total,
// decoding in blocks of the size sim.RunContext uses.
func (r *replay) run(gen trace.Generator, n uint64) {
	var buf [256]memsys.Access
	for r.n.accesses < n {
		want := n - r.n.accesses
		if want > uint64(len(buf)) {
			want = uint64(len(buf))
		}
		got := 0
		for uint64(got) < want {
			r.tr.begin()
			m := trace.NextBlock(gen, buf[got:want])
			r.tr.end(kDecode)
			if m == 0 {
				break
			}
			got += m
		}
		for i := 0; i < got; i++ {
			r.tr.beginAccess(r.n.accesses)
			r.step(buf[i])
			r.tr.endAccess()
			if len(r.obsQueue) >= obsFlushAt {
				r.flushObserve()
			}
		}
		if got == 0 {
			break
		}
	}
	if r.obsPred != nil {
		r.flushObserve()
	}
}

func (r *replay) probe(k kind, l *cache.Level, line uint64, write bool, sig uint16, c int, now uint64) bool {
	r.tr.begin()
	hit := l.Probe(line, write, sig, c, now)
	r.tr.end(k)
	return hit
}

var probeKinds = [3]kind{kProbeL1, kProbeL2, kProbeLLC}

// step mirrors sim.System.Step for a fault-free, span-free system.
func (r *replay) step(a memsys.Access) {
	c := int(a.Thread) % r.cfg.Cores
	now := r.threadCycles[c]
	write := a.Type == memsys.Write
	line := a.Addr.Line()
	chain := r.chains[c]
	r.n.accesses++

	r.n.l1++
	lat := r.l1Lat
	if r.probe(kProbeL1, chain[0], line, write, a.Region, c, now) {
		r.advance(c, write, a.Dep, lat)
		return
	}
	p := r.planFetch(c, now, line, a.Addr)
	for i := 1; i < len(chain); i++ {
		if i == 1 {
			r.n.l2++
		} else {
			r.n.llc++
		}
		hit := r.probe(probeKinds[i], chain[i], line, false, a.Region, c, now)
		lat += r.lats[i]
		if hit {
			r.gradeOnChipHit(p, now, a.Addr, write, i == len(chain)-1)
			r.advance(c, write, a.Dep, lat)
			return
		}
	}
	f := r.composeFetch(c, now, line, a.Addr, p)
	r.advance(c, write, a.Dep, r.l1Lat+f.finish())
}

func (r *replay) advance(c int, write, dep bool, lat uint64) {
	stall := lat
	switch {
	case write:
		stall = r.l1Lat
	case dep:
	case lat > r.l1Lat:
		stall = r.l1Lat + (lat-r.l1Lat)/r.cfg.MLP
	}
	r.threadCycles[c] += r.cfg.NonMemCycles + stall
}

type plan struct {
	secure, predictedOff, earlyCtr bool
	pred                           core.Prediction
	ctrRes                         secmem.CtrResult
}

func (r *replay) ctrAccess(c int, now, line uint64) secmem.CtrResult {
	r.observed(line)
	r.tr.begin()
	res := r.eng.CtrAccess(c, now, line, false)
	if res.Hit {
		r.tr.end(kCtrHit)
		r.n.ctrHit++
	} else {
		r.tr.end(kCtrMiss)
		r.n.ctrMiss++
	}
	return res
}

func (r *replay) learn(p core.Prediction, off bool) {
	r.n.learn++
	r.tr.begin()
	r.eng.DataPred.Learn(p, off)
	r.tr.end(kLearn)
}

func (r *replay) planFetch(c int, now, line uint64, addr memsys.Addr) plan {
	var p plan
	p.secure = r.secureAll || uint64(addr) < r.secureBound
	switch r.early {
	case secmem.EarlyPredicted:
		r.n.predict++
		r.tr.begin()
		p.pred = r.eng.DataPred.Predict(uint64(addr))
		r.tr.end(kPredict)
		p.predictedOff = p.pred.OffChip
		if p.predictedOff && p.secure {
			p.ctrRes = r.ctrAccess(c, now, line)
			p.earlyCtr = true
		}
	case secmem.EarlyAll:
		if p.secure {
			p.ctrRes = r.ctrAccess(c, now, line)
			p.earlyCtr = true
		}
	}
	return p
}

func (r *replay) gradeOnChipHit(p plan, now uint64, addr memsys.Addr, write, last bool) {
	if r.early != secmem.EarlyPredicted {
		return
	}
	r.learn(p.pred, false)
	if p.predictedOff && (last || !write) {
		r.n.wasted++
		r.tr.begin()
		r.eng.WastedFetch(now, addr)
		r.tr.end(kWasted)
	}
}

// fetch is the resolved off-chip path; finish mirrors the simulator's
// critical-path composition (data ready vs OTP ready, plus the final XOR).
type fetch struct {
	walk, data, ctrLat             uint64
	secure, earlyCtr, predictedOff bool
}

func (f fetch) finish() uint64 {
	dataReady := f.walk + f.data
	if f.predictedOff {
		dataReady = max(f.walk, f.data)
	}
	var ctrReady uint64
	if f.secure {
		start := f.walk
		if f.earlyCtr {
			start = 0
		}
		ctrReady = start + f.ctrLat
	}
	end := max(dataReady, ctrReady)
	if f.secure {
		end++
	}
	return end
}

func (r *replay) composeFetch(c int, now, line uint64, addr memsys.Addr, p plan) fetch {
	if r.early == secmem.EarlyPredicted {
		r.learn(p.pred, true)
	}
	f := fetch{walk: r.walk, secure: p.secure, earlyCtr: p.earlyCtr, predictedOff: p.predictedOff}
	res := p.ctrRes
	if !p.earlyCtr && p.secure {
		res = r.ctrAccess(c, now, line)
	}
	r.n.dataDRAM++
	r.tr.begin()
	f.data = r.eng.DataDRAM(now, addr, false)
	r.tr.end(kDRAM)
	if p.secure {
		r.n.mac++
		r.tr.begin()
		r.eng.MACAccess(c, now, line, false)
		r.tr.end(kMAC)
		f.ctrLat = res.Latency + r.cfg.MC.AESLat
	}
	return f
}

// countGap is the largest relative gap between one of the replay's call
// counts and the corresponding count in the real System's registry.
func (r *replay) countGap(reg counters) (float64, string) {
	pairs := []struct {
		name   string
		replay uint64
		real   float64
	}{
		{"sim.accesses", r.n.accesses, reg.get("sim.accesses")},
		{"l1.accesses", r.n.l1, reg.sumMatch("core", ".l1.accesses")},
		{"l2.accesses", r.n.l2, reg.sumMatch("core", ".l2.accesses")},
		{"llc.accesses", r.n.llc, reg.get("llc.accesses")},
		{"ctr.accesses", r.n.ctrHit + r.n.ctrMiss + r.n.ctrWrback, reg.get("secmem.ctr.hits") + reg.get("secmem.ctr.misses")},
		{"mac.accesses", r.n.mac, reg.sumMatch("secmem.mac_cache", ".accesses")},
		{"mem.writebacks", r.n.memWrbacks, reg.get("llc.writebacks")},
		{"data_dram", r.n.dataDRAM, reg.get("secmem.traffic.data_read") + reg.get("secmem.traffic.data_write")},
		{"wasted_fetch", r.n.wasted, reg.get("secmem.traffic.wasted_fetch")},
		{"data_pred.predict", r.n.predict, reg.dataPredTotal()},
		{"data_pred.learn", r.n.learn, reg.dataPredTotal()},
		{"ctr_pred.observe", r.obsCalled, reg.get("secmem.ctr_pred.pred_good") + reg.get("secmem.ctr_pred.pred_bad")},
	}
	worst, which := 0.0, ""
	for _, p := range pairs {
		gap := relGap(float64(p.replay), p.real)
		if gap > worst || which == "" {
			worst, which = gap, p.name
		}
	}
	return worst, which
}

func relGap(a, b float64) float64 {
	if a == b {
		return 0
	}
	return abs(a-b) / max(abs(a), abs(b))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// counters is one registry snapshot, summed over cells when several are
// traced: counters by name, and each rate's numerator and denominator.
type counters map[string]float64

func (c counters) add(samples []telemetry.Sample) {
	for _, s := range samples {
		switch s.Kind {
		case telemetry.KindCounter:
			c[s.Name] += float64(s.Counter)
		case telemetry.KindRate:
			c[s.Name+"#num"] += float64(s.Num)
			c[s.Name+"#den"] += float64(s.Den)
		}
	}
}

func (c counters) get(name string) float64 { return c[name] }

func (c counters) rate(name string) float64 {
	return ratio(c[name+"#num"], c[name+"#den"])
}

// sumMatch sums the counters whose names start with prefix and end with
// suffix (per-core cache levels, per-core metadata caches).
func (c counters) sumMatch(prefix, suffix string) float64 {
	var t float64
	for k, v := range c {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			t += v
		}
	}
	return t
}

func (c counters) dataPredTotal() float64 {
	return c.get("secmem.data_pred.pred_on_correct") + c.get("secmem.data_pred.pred_on_wrong") +
		c.get("secmem.data_pred.pred_off_correct") + c.get("secmem.data_pred.pred_off_wrong")
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
