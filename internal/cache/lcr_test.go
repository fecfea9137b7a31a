package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// refLCR is Algorithm 2 written out the long way: flag, score and stamp in
// separate slices, and a two-pass victim choice — the highest-scored bad
// line, else the lowest-scored good line, the older stamp winning ties.
// It is the specification the packed-key LCR must match.
type refLCR struct {
	ways  int
	flag  []bool
	score []uint8
	stamp []uint64
	clock uint64
}

func (p *refLCR) Name() string { return "refLCR" }

func (p *refLCR) Reset(sets, ways int) {
	p.ways = ways
	p.flag = make([]bool, sets*ways)
	p.score = make([]uint8, sets*ways)
	p.stamp = make([]uint64, sets*ways)
	p.clock = 0
}

func (p *refLCR) touch(set, way int) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}

func (p *refLCR) OnHit(set, way int, _ Event) { p.touch(set, way) }

func (p *refLCR) OnInsert(set, way int, _ Event) {
	i := set*p.ways + way
	p.flag[i], p.score[i] = false, 128
	p.touch(set, way)
}

func (p *refLCR) OnEvict(int, int) {}

func (p *refLCR) SetHint(set, way int, good bool, score uint8) {
	i := set*p.ways + way
	p.flag[i], p.score[i] = good, score
}

func (p *refLCR) Victim(set int) int {
	base := set * p.ways
	// better reports whether way a beats way b among lines of one flag.
	better := func(a, b int, good bool) bool {
		sa, sb := p.score[base+a], p.score[base+b]
		if sa != sb {
			if good {
				return sa < sb
			}
			return sa > sb
		}
		return p.stamp[base+a] < p.stamp[base+b]
	}
	for _, good := range []bool{false, true} {
		v := -1
		for w := 0; w < p.ways; w++ {
			if p.flag[base+w] == good && (v < 0 || better(w, v, good)) {
				v = w
			}
		}
		if v >= 0 {
			return v
		}
	}
	panic("refLCR: empty set")
}

// TestLCRMatchesReferenceAlgorithm2 drives the packed-key LCR and the
// reference in lockstep through random fills, hits and hints, and demands
// the same victim on every eviction and on every full set after each step.
// Scores favour the edges (0, 128, 255) and near-ties so the flag boundary,
// the bad-score inversion and the stamp tie-break are all exercised; the
// hint mode makes whole sets good or bad as well as mixed.
func TestLCRMatchesReferenceAlgorithm2(t *testing.T) {
	scores := []uint8{0, 1, 127, 128, 129, 254, 255}
	for _, ways := range []int{2, 8, 16} {
		for mode, name := range []string{"mixed", "all-good", "all-bad"} {
			t.Run(fmt.Sprintf("%dway/%s", ways, name), func(t *testing.T) {
				const sets = 4
				rng := rand.New(rand.NewSource(int64(ways*10 + mode)))
				lcr, ref := NewLCR(), &refLCR{}
				c := New("lcr", sets*ways*64, ways, lcr)
				r := New("ref", sets*ways*64, ways, ref)
				universe := uint64(3 * sets * ways)
				evictions := 0
				for step := 0; step < 20000; step++ {
					line := rng.Uint64() % universe
					got, want := c.Access(line, false, 0), r.Access(line, false, 0)
					if got != want {
						t.Fatalf("step %d line %d: LCR %+v, reference %+v", step, line, got, want)
					}
					if got.Evicted {
						evictions++
					}
					if rng.Intn(4) != 0 {
						good := rng.Intn(2) == 0
						switch mode {
						case 1:
							good = true
						case 2:
							good = false
						}
						score := scores[rng.Intn(len(scores))]
						if rng.Intn(4) == 0 {
							score = uint8(rng.Intn(256))
						}
						lcr.SetHint(got.Set, got.Way, good, score)
						ref.SetHint(got.Set, got.Way, good, score)
						if g, s := lcr.Hint(got.Set, got.Way); g != good || s != score {
							t.Fatalf("Hint = (%v,%d) after SetHint(%v,%d)", g, s, good, score)
						}
					}
					for s := 0; s < sets; s++ {
						if c.valid[s] != c.wmask {
							continue
						}
						if v, rv := lcr.Victim(s), ref.Victim(s); v != rv {
							t.Fatalf("step %d set %d: victim way %d, reference %d", step, s, v, rv)
						}
					}
				}
				if evictions < 1000 {
					t.Fatalf("only %d evictions: the run does not exercise Victim", evictions)
				}
			})
		}
	}
}
