package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// layer names one module of the repository the traced run attributes host
// time to.
type layer int

const (
	layerTrace layer = iota
	layerSim
	layerCache
	layerSecmem
	layerDRAM
	layerCore
	numLayers
)

var layerNames = [numLayers]string{"trace", "sim", "cache", "secmem", "dram", "core"}

// kind is one span boundary of the replay: a public call into a layer.
type kind int

const (
	kDecode  kind = iota // trace.NextBlock, one span per decoded block
	kAccess              // one replayed Step
	kProbeL1             // cache.Level.Probe per level
	kProbeL2
	kProbeLLC
	kWbL2     // dirty victim installed into L2 (cache.Level.Writeback)
	kWbLLC    // dirty victim installed into the LLC
	kWbMem    // secmem.Level.Writeback: data write + counter bump + MAC
	kCtrHit   // secmem.Engine.CtrAccess that hit the CTR cache
	kCtrMiss  // CtrAccess that missed: LCR victim choice + MT walk
	kMAC      // secmem.Engine.MACAccess
	kDRAM     // secmem.Engine.DataDRAM
	kWasted   // secmem.Engine.WastedFetch (killed speculative read)
	kPredict  // core.DataPredictor.Predict
	kLearn    // core.DataPredictor.Learn
	kCalChild // clock calibration only
	kCalParent
	numKinds
)

var kindInfo = [numKinds]struct {
	name  string
	layer layer
}{
	kDecode:    {"trace.next_block", layerTrace},
	kAccess:    {"sim.step", layerSim},
	kProbeL1:   {"cache.l1.probe", layerCache},
	kProbeL2:   {"cache.l2.probe", layerCache},
	kProbeLLC:  {"cache.llc.probe", layerCache},
	kWbL2:      {"cache.l2.writeback", layerCache},
	kWbLLC:     {"cache.llc.writeback", layerCache},
	kWbMem:     {"secmem.writeback", layerSecmem},
	kCtrHit:    {"secmem.ctr_hit", layerSecmem},
	kCtrMiss:   {"secmem.ctr_miss", layerSecmem},
	kMAC:       {"secmem.mac", layerSecmem},
	kDRAM:      {"dram.data", layerDRAM},
	kWasted:    {"dram.wasted_fetch", layerDRAM},
	kPredict:   {"core.data_predict", layerCore},
	kLearn:     {"core.data_learn", layerCore},
	kCalChild:  {"calibration.child", layerSim},
	kCalParent: {"calibration.parent", layerSim},
}

// kindAgg aggregates every span of one kind: call count, total and self
// ticks, and how many child spans opened inside them (for the clock
// overhead correction).
type kindAgg struct {
	n, children uint64
	total, self int64
}

type frame struct {
	start    int64
	child    int64
	children uint64
	id       int32
}

// spanRec is one span of a sampled access, as written to the span file.
type spanRec struct {
	Access uint64 `json:"access"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records nested spans around the replay's calls into each layer.
// Every span is aggregated; the spans of a deterministic 1-in-sampleEvery
// subset of accesses are also kept whole and written out at the end.
type tracer struct {
	stack [32]frame
	depth int
	agg   [numKinds]kindAgg

	sampleEvery uint64
	sampling    bool
	access      uint64
	nextID      int32
	origin      int64
	spans       []spanRec
}

func newTracer(sampleEvery uint64) *tracer {
	return &tracer{sampleEvery: sampleEvery, origin: ticks()}
}

// beginAccess marks the start of replayed access i; it decides whether the
// access's spans are kept whole.
func (t *tracer) beginAccess(i uint64) {
	t.access = i
	t.sampling = t.sampleEvery > 0 && i%t.sampleEvery == 0
	t.begin()
}

// endAccess closes the access span opened by beginAccess.
func (t *tracer) endAccess() {
	t.end(kAccess)
	t.sampling = false
}

func (t *tracer) begin() {
	f := &t.stack[t.depth]
	t.depth++
	f.child, f.children = 0, 0
	if t.sampling {
		t.nextID++
		f.id = t.nextID
	}
	f.start = ticks()
}

// end closes the innermost span as kind k (a CtrAccess learns whether it
// hit only when it returns, so the kind is given at the end).
func (t *tracer) end(k kind) {
	now := ticks()
	t.depth--
	f := &t.stack[t.depth]
	dur := now - f.start
	a := &t.agg[k]
	a.n++
	a.children += f.children
	a.total += dur
	a.self += dur - f.child
	parent := int32(0)
	if t.depth > 0 {
		p := &t.stack[t.depth-1]
		p.child += dur
		p.children++
		parent = p.id
	}
	if t.sampling {
		t.spans = append(t.spans, spanRec{
			Access: t.access, ID: f.id, Parent: parent,
			Name: kindInfo[k].name, Layer: layerNames[kindInfo[k].layer],
			Start: f.start - t.origin, End: now - t.origin,
		})
	}
}

// clockCal converts ticks to nanoseconds and holds the measured cost the
// span bookkeeping itself adds: selfTicks to each span's own self time,
// parentTicks to its parent's self time per child span.
type clockCal struct {
	nsPerTick   float64
	selfTicks   float64
	parentTicks float64
}

// calibrate measures the tick rate against the monotonic clock and the
// overhead of an empty span nested in a parent, with the same code path
// the replay uses.
func calibrate() clockCal {
	t0, k0 := time.Now(), ticks()
	for time.Since(t0) < 50*time.Millisecond {
	}
	el, k1 := time.Since(t0), ticks()
	c := clockCal{nsPerTick: float64(el.Nanoseconds()) / float64(k1-k0)}

	const rounds, inner = 20, 5000
	selfs := make([]float64, 0, rounds)
	parents := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		tr := newTracer(0)
		tr.begin()
		for i := 0; i < inner; i++ {
			tr.begin()
			tr.end(kCalChild)
		}
		tr.end(kCalParent)
		selfs = append(selfs, float64(tr.agg[kCalChild].self)/inner)
		parents = append(parents, float64(tr.agg[kCalParent].self)/inner)
	}
	c.selfTicks = median(selfs)
	c.parentTicks = median(parents)
	return c
}

// selfNs returns the aggregated self time of one kind in nanoseconds, with
// the span bookkeeping's own cost removed.
func (c clockCal) selfNs(a kindAgg) float64 {
	ticks := float64(a.self) - c.selfTicks*float64(a.n) - c.parentTicks*float64(a.children)
	if ticks < 0 {
		ticks = 0
	}
	return ticks * c.nsPerTick
}

// writeSpans writes the kept spans as JSON lines, converting ticks to
// nanoseconds since the tracer started.
func writeSpans(path string, spans []spanRec, c clockCal) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		s.Start = int64(float64(s.Start) * c.nsPerTick)
		s.End = int64(float64(s.End) * c.nsPerTick)
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}
