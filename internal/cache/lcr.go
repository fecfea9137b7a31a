package cache

// LCR is the paper's locality-centric replacement policy (Algorithm 2).
// Every line carries a 1-bit locality flag (1 = good locality, 0 = bad) and
// an 8-bit locality score, both supplied by the RL-based CTR locality
// predictor via SetHint. Eviction targets, in order:
//
//  1. among bad-locality lines, the one with the HIGHEST bad score
//     (most confidently bad);
//  2. if every line is good, the one with the LOWEST good score
//     (least confidently good).
//
// Ties break to the older last touch so behaviour stays deterministic.
//
// Each way's flag, score and last-touch stamp live in one uint64 key, the
// way a hardware tag entry keeps a policy's hint bits beside its recency
// state:
//
//	bit 63      good flag (1 = good), so every bad line sorts below every good one
//	bits 62..55 score, stored inverted (^score) for bad lines, so the most
//	            confidently bad line sorts lowest
//	bits 54..0  last-touch stamp, so the older line wins on equal scores
//
// Algorithm 2's victim is then the way with the smallest key: one min-scan
// over ways contiguous words, with no branch on the flag. The 55-bit stamp
// wraps only after 3.6×10^16 touches, far beyond any run.
type LCR struct {
	ways  int
	key   []uint64
	clock uint64
}

const (
	lcrGood       = 1 << 63
	lcrScoreShift = 55
	lcrStampMask  = 1<<lcrScoreShift - 1
)

// NewLCR returns the LCR policy. Lines inserted before any hint arrives are
// treated as bad locality with a neutral score, matching the hardware where
// the prediction bit accompanies the fill.
func NewLCR() *LCR { return &LCR{} }

// Name implements Policy.
func (p *LCR) Name() string { return "LCR" }

// Reset implements Policy.
func (p *LCR) Reset(sets, ways int) {
	p.ways = ways
	p.key = make([]uint64, sets*ways)
	p.clock = 0
}

// hintBits encodes a flag/score pair into the key's upper nine bits.
func hintBits(good bool, score uint8) uint64 {
	if good {
		return lcrGood | uint64(score)<<lcrScoreShift
	}
	return uint64(^score) << lcrScoreShift
}

func (p *LCR) touch(set, way int) {
	p.clock++
	i := set*p.ways + way
	p.key[i] = p.key[i]&^lcrStampMask | p.clock&lcrStampMask
}

// OnHit implements Policy.
func (p *LCR) OnHit(set, way int, _ Event) { p.touch(set, way) }

// OnInsert implements Policy: default to bad locality / neutral score until
// the predictor hint lands.
func (p *LCR) OnInsert(set, way int, _ Event) {
	p.key[set*p.ways+way] = hintBits(false, 128)
	p.touch(set, way)
}

// OnEvict implements Policy.
func (p *LCR) OnEvict(int, int) {}

// SetHint attaches the predictor's locality classification to a resident
// line: good=true marks good locality; score is the 8-bit confidence from
// the CTR Q-table.
func (p *LCR) SetHint(set, way int, good bool, score uint8) {
	i := set*p.ways + way
	p.key[i] = p.key[i]&lcrStampMask | hintBits(good, score)
}

// Hint reports the current flag/score of a line (for tests and stats).
func (p *LCR) Hint(set, way int) (good bool, score uint8) {
	k := p.key[set*p.ways+way]
	good = k&lcrGood != 0
	score = uint8(k >> lcrScoreShift)
	if !good {
		score = ^score
	}
	return good, score
}

// Victim implements Algorithm 2 as a min-scan over the set's keys (see the
// LCR type comment for why the smallest key is the victim).
func (p *LCR) Victim(set int) int {
	keys := p.key[set*p.ways : (set+1)*p.ways]
	victim, best := 0, keys[0]
	for w, k := range keys[1:] {
		if k < best {
			victim, best = w+1, k
		}
	}
	return victim
}

// StorageBitsPerLine is the LCR metadata cost per cache line (Table 2:
// 1 prediction bit + 8 score bits).
const StorageBitsPerLine = 9
