package cache

import (
	"testing"
	"testing/quick"
)

func TestGeometry(t *testing.T) {
	c := New("l1", 32*1024, 2, NewLRU())
	if c.Sets() != 256 || c.Ways() != 2 {
		t.Fatalf("32KB/2w: sets=%d ways=%d, want 256/2", c.Sets(), c.Ways())
	}
	if c.SizeBytes() != 32*1024 {
		t.Fatalf("SizeBytes=%d", c.SizeBytes())
	}
	llc := New("llc", 8<<20, 16, NewLRU())
	if llc.Sets() != 8192 {
		t.Fatalf("8MB/16w: sets=%d, want 8192", llc.Sets())
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	bad := [][2]int{{0, 2}, {100, 3}, {96 * 1024, 2} /* 768 sets: not pow2 */}
	for _, g := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) should panic", g[0], g[1])
				}
			}()
			New("x", g[0], g[1], NewLRU())
		}()
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := New("c", 4096, 4, NewLRU())
	if r := c.Access(100, false, 0); r.Hit {
		t.Fatal("first access must miss")
	}
	if r := c.Access(100, false, 0); !r.Hit {
		t.Fatal("second access must hit")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats: %+v", c.Stats)
	}
}

func TestDirtyWriteback(t *testing.T) {
	// Direct-mapped 64B cache: 1 set, 1 way.
	c := New("c", 64, 1, NewLRU())
	c.Access(1, true, 0) // dirty fill
	r := c.Access(2, false, 0)
	if !r.Evicted || !r.EvictedDirty {
		t.Fatalf("expected dirty eviction, got %+v", r)
	}
	if r.EvictedLine != 1 {
		t.Fatalf("evicted line = %d, want 1", r.EvictedLine)
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats.Writebacks)
	}
	// Clean eviction.
	r = c.Access(3, false, 0)
	if !r.Evicted || r.EvictedDirty {
		t.Fatalf("expected clean eviction, got %+v", r)
	}
}

func TestEvictedLineReconstruction(t *testing.T) {
	c := New("c", 64*8, 1, NewLRU()) // 8 sets, direct-mapped
	f := func(raw uint32) bool {
		line := uint64(raw)
		c.Access(line, false, 0)
		r := c.Access(line+8, false, 0) // same set (8 sets), different tag
		return r.Evicted && r.EvictedLine == line
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLRUOrder(t *testing.T) {
	c := New("c", 64*4, 4, NewLRU()) // 1 set, 4 ways
	for i := uint64(0); i < 4; i++ {
		c.Access(i, false, 0)
	}
	c.Access(0, false, 0) // 0 is now MRU; LRU order: 1,2,3,0
	r := c.Access(10, false, 0)
	if !r.Evicted || r.EvictedLine != 1 {
		t.Fatalf("LRU should evict line 1, got %+v", r)
	}
	r = c.Access(11, false, 0)
	if r.EvictedLine != 2 {
		t.Fatalf("next LRU victim should be 2, got %d", r.EvictedLine)
	}
}

func TestContainsDoesNotDisturb(t *testing.T) {
	c := New("c", 64*4, 4, NewLRU())
	for i := uint64(0); i < 4; i++ {
		c.Access(i, false, 0)
	}
	if !c.Contains(0) || c.Contains(99) {
		t.Fatal("Contains wrong")
	}
	before := c.Stats
	c.Contains(0) // must not touch LRU state or stats
	if c.Stats != before {
		t.Fatal("Contains must not change stats")
	}
	r := c.Access(10, false, 0)
	if r.EvictedLine != 0 {
		t.Fatalf("victim should still be 0 (Contains must not refresh LRU), got %d", r.EvictedLine)
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	c := New("c", 64*4, 4, NewLRU())
	c.Access(1, true, 0)
	c.Access(2, false, 0)
	if p, d := c.Invalidate(1); !p || !d {
		t.Fatal("invalidate dirty line")
	}
	if p, _ := c.Invalidate(1); p {
		t.Fatal("double invalidate should miss")
	}
	if c.Contains(1) {
		t.Fatal("line still present after invalidate")
	}
	c.Access(3, true, 0)
	if d := c.Flush(); d != 1 {
		t.Fatalf("flush dropped %d dirty lines, want 1", d)
	}
	if c.Contains(2) || c.Contains(3) {
		t.Fatal("flush must empty the cache")
	}
}

func TestSetIndexingIsolation(t *testing.T) {
	// Lines mapping to different sets must not evict each other.
	c := New("c", 64*16, 1, NewLRU()) // 16 sets direct-mapped
	for i := uint64(0); i < 16; i++ {
		if r := c.Access(i, false, 0); r.Evicted {
			t.Fatalf("line %d caused eviction in an empty cache", i)
		}
	}
	for i := uint64(0); i < 16; i++ {
		if r := c.Access(i, false, 0); !r.Hit {
			t.Fatalf("line %d should hit", i)
		}
	}
}

// --- policy behaviour ---

func policyNames() map[string]func() Policy {
	return map[string]func() Policy{
		"LRU":        func() Policy { return NewLRU() },
		"Random":     func() Policy { return NewRandom(1) },
		"RRIP":       func() Policy { return NewRRIP() },
		"SHiP":       func() Policy { return NewSHiP() },
		"Mockingjay": func() Policy { return NewMockingjay() },
		"LCR":        func() Policy { return NewLCR() },
	}
}

func TestAllPoliciesFunctional(t *testing.T) {
	// Every policy must keep the cache coherent under a mixed workload:
	// hits for recently accessed lines, victims always valid ways.
	for name, mk := range policyNames() {
		t.Run(name, func(t *testing.T) {
			c := New("c", 16*1024, 8, mk())
			state := uint64(12345)
			for i := 0; i < 50000; i++ {
				state ^= state << 13
				state ^= state >> 7
				state ^= state << 17
				line := state % 4096
				c.Access(line, state&1 == 0, uint16(line>>4))
			}
			if c.Stats.Hits == 0 {
				t.Error("policy produced zero hits on a 4096-line footprint")
			}
			if c.Stats.Accesses != 50000 {
				t.Errorf("accesses = %d", c.Stats.Accesses)
			}
			if c.Stats.Hits+c.Stats.Misses != c.Stats.Accesses {
				t.Error("hits+misses != accesses")
			}
		})
	}
}

func TestRRIPIsScanResistant(t *testing.T) {
	// A small hot set plus a long streaming scan. LRU lets the scan wipe
	// out the hot lines; SRRIP inserts scans at distant RRPV while hits
	// promote hot lines to 0, so the hot set survives.
	run := func(p Policy) float64 {
		c := New("c", 64*8, 8, p) // 1 set, 8 ways
		scan := uint64(1000)
		for rep := 0; rep < 500; rep++ {
			for h := uint64(0); h < 4; h++ {
				c.Access(h, false, 1)
				c.Access(h, false, 1)
			}
			for s := 0; s < 12; s++ { // scan longer than capacity
				c.Access(scan, false, 2)
				scan++
			}
		}
		return c.Stats.HitRate()
	}
	lru := run(NewLRU())
	rrip := run(NewRRIP())
	if rrip <= lru {
		t.Errorf("RRIP hit rate (%v) should beat LRU (%v) under scans", rrip, lru)
	}
}

func TestSHiPLearnsDeadRegions(t *testing.T) {
	// Region A lines are reused; region B lines are touched once. SHiP
	// should learn to insert B lines dead, protecting A.
	ship := NewSHiP()
	c := New("c", 64*8, 8, ship)
	hot := []uint64{0, 1, 2, 3}
	cold := uint64(100)
	for i := 0; i < 4000; i++ {
		for _, h := range hot {
			c.Access(h, false, 7) // signature 7: reused
		}
		c.Access(cold, false, 999) // signature 999: streaming
		cold++
	}
	// After warmup, hot lines should hit nearly always.
	h0 := c.Stats.Hits
	a0 := c.Stats.Accesses
	for i := 0; i < 1000; i++ {
		for _, h := range hot {
			c.Access(h, false, 7)
		}
		c.Access(cold, false, 999)
		cold++
	}
	hotHits := float64(c.Stats.Hits-h0) / float64(c.Stats.Accesses-a0)
	if hotHits < 0.75 {
		t.Errorf("steady-state hit rate %v, want ≥0.75 (hot lines protected)", hotHits)
	}
}

func TestMockingjayPrefersDistantReuse(t *testing.T) {
	mj := NewMockingjay()
	c := New("c", 64*4, 4, mj)
	// Short-reuse lines (sig 1) and a one-shot stream (sig 2).
	for i := 0; i < 3000; i++ {
		c.Access(0, false, 1)
		c.Access(1, false, 1)
		c.Access(uint64(1000+i), false, 2)
	}
	// Lines 0 and 1 should be resident virtually always now.
	h0 := c.Stats.Hits
	for i := 0; i < 500; i++ {
		c.Access(0, false, 1)
		c.Access(1, false, 1)
		c.Access(uint64(50000+i), false, 2)
	}
	gained := c.Stats.Hits - h0
	if gained < 900 { // 1000 hot accesses in the tail
		t.Errorf("hot lines hit %d/1000 in steady state", gained)
	}
}

func TestLCRVictimSelection(t *testing.T) {
	lcr := NewLCR()
	c := New("c", 64*4, 4, lcr) // 1 set, 4 ways
	for i := uint64(0); i < 4; i++ {
		c.Access(i, false, 0)
	}
	// ways hold lines 0..3. Mark: way0 good/200, way1 bad/50, way2 bad/220, way3 good/10.
	lcr.SetHint(0, 0, true, 200)
	lcr.SetHint(0, 1, false, 50)
	lcr.SetHint(0, 2, false, 220)
	lcr.SetHint(0, 3, true, 10)
	if v := lcr.Victim(0); v != 2 {
		t.Fatalf("victim = way %d, want 2 (highest-scored bad line)", v)
	}
	lcr.SetHint(0, 2, true, 150)
	if v := lcr.Victim(0); v != 1 {
		t.Fatalf("victim = way %d, want 1 (only bad line)", v)
	}
	lcr.SetHint(0, 1, true, 90)
	if v := lcr.Victim(0); v != 3 {
		t.Fatalf("victim = way %d, want 3 (lowest-scored good line)", v)
	}
}

func TestLCRDefaultsToBadOnInsert(t *testing.T) {
	lcr := NewLCR()
	c := New("c", 64*2, 2, lcr)
	c.Access(0, false, 0)
	good, score := lcr.Hint(0, 0)
	if good || score != 128 {
		t.Fatalf("fresh insert hint = (%v,%d), want (false,128)", good, score)
	}
}

func TestLCRRetainsGoodLocalityLines(t *testing.T) {
	// Good-flagged lines must survive a stream of bad-flagged fills.
	lcr := NewLCR()
	c := New("c", 64*8, 8, lcr)
	c.Access(42, false, 0)
	// re-access to learn its way, then mark it good with max confidence
	res := c.Access(42, false, 0)
	lcr.SetHint(res.Set, res.Way, true, 255)
	for i := uint64(100); i < 400; i++ {
		r := c.Access(i, false, 0)
		lcr.SetHint(r.Set, r.Way, false, 100)
	}
	if !c.Contains(42) {
		t.Error("good-locality line was evicted while bad lines streamed through")
	}
}

func TestStatsRates(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 || s.HitRate() != 0 {
		t.Error("empty stats should report 0 rates")
	}
	s = Stats{Accesses: 10, Hits: 3, Misses: 7}
	if s.MissRate() != 0.7 || s.HitRate() != 0.3 {
		t.Errorf("rates: %v %v", s.MissRate(), s.HitRate())
	}
}
