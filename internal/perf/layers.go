package perf

import (
	"context"
	"time"

	"cosmos/internal/cache"
)

// Per-layer micro-benchmarks: the cache work on the CTR-miss path, timed in
// isolation so a change to one layer shows in its own metric instead of
// only in the step.* and e2e.* totals.

// probeCacheBytes sizes the probe benchmarks' cache: 32 MB of 64-byte lines
// in 16 ways is a 4 MB full-tag array, larger than a typical host L2, so the
// victim-tag load misses host cache the way the simulated LLC's does.
const probeCacheBytes = 32 << 20

// sink keeps measured results observable so the compiler cannot drop the
// timed calls.
var sink int

// layerBenchmarks returns the per-layer members of the suite. victimOps and
// probeOps are the timed operations per sample.
func layerBenchmarks(victimOps, probeOps int) []benchmark {
	lcr := victimSet()
	benches := []benchmark{layerBenchmark("cache.lcr.victim.ns_per_op", func() float64 {
		return measureVictim(lcr, victimOps)
	})}
	for _, pol := range []cache.Policy{cache.NewLRU(), cache.NewLCR()} {
		p := newProbeBench(pol)
		benches = append(benches, layerBenchmark("cache.probe."+pol.Name()+".miss.ns_per_op", func() float64 {
			return p.measure(probeOps)
		}))
	}
	return benches
}

func layerBenchmark(name string, measure func() float64) benchmark {
	return benchmark{
		label:   name,
		names:   []string{name},
		units:   []string{"ns/op"},
		betters: []string{BetterLower},
		run:     func(context.Context) ([]float64, error) { return []float64{measure()}, nil },
	}
}

// victimSet builds a full 16-way LCR cache of 64 sets whose lines carry
// mixed hints: about half good, scores spread over the full 8 bits.
func victimSet() *cache.LCR {
	const ways, sets = 16, 64
	lcr := cache.NewLCR()
	c := cache.New("victim", sets*ways*64, ways, lcr)
	x := uint64(0x9E3779B97F4A7C15)
	for line := uint64(0); line < sets*ways; line++ {
		r := c.Access(line, false, 0)
		x = xorshift(x)
		lcr.SetHint(r.Set, r.Way, x&1 == 0, uint8(x>>8))
	}
	return lcr
}

// measureVictim times ops Victim calls round-robin over the set's 64 sets.
func measureVictim(lcr *cache.LCR, ops int) float64 {
	start := time.Now()
	s := 0
	for i := 0; i < ops; i++ {
		s += lcr.Victim(i & 63)
	}
	elapsed := time.Since(start)
	sink += s
	return float64(elapsed.Nanoseconds()) / float64(ops)
}

// probeBench drives Level.Probe with clean read misses on a warmed,
// full cache, so every timed probe runs the lookup, victim choice and fill.
type probeBench struct {
	lvl *cache.Level
	x   uint64
}

func newProbeBench(pol cache.Policy) *probeBench {
	c := cache.New("probe", probeCacheBytes, 16, pol)
	p := &probeBench{lvl: cache.NewLevel(c, 0, nil), x: 0x2545F4914F6CDD1D}
	p.run(2 * probeCacheBytes / 64)
	return p
}

// run probes n random lines from a 2^40-line space, so hits are negligible.
func (p *probeBench) run(n int) {
	x, hits := p.x, 0
	for i := 0; i < n; i++ {
		x = xorshift(x)
		if p.lvl.Probe(x>>24, false, 0, 0, 0) {
			hits++
		}
	}
	p.x = x
	sink += hits
}

func (p *probeBench) measure(ops int) float64 {
	start := time.Now()
	p.run(ops)
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}
