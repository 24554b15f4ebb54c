package sweep

import "math/rand"

// NewRand returns a *rand.Rand whose every draw equals that of
// rand.New(rand.NewSource(seed)), re-seeding included, but whose seeding
// is O(1): the source computes its 607-entry table lazily, entry by
// entry, as the first draws read it. A seeded random walk that draws a
// few dozen values therefore no longer pays for the 1,841 generator
// steps math/rand spends filling the whole table. Like math/rand's
// sources, the result is not safe for concurrent use.
func NewRand(seed int64) *rand.Rand {
	src := new(lazySource)
	src.Seed(seed)
	return rand.New(src)
}

// math/rand's additive lagged Fibonacci generator (rng.go): a 607-entry
// table read at a feed and a tap index 273 apart.
const (
	rngLen  = 607
	rngTap  = 273
	rngFeed = rngLen - rngTap // the feed index right after Seed
	rngMask = 1<<63 - 1

	// Seed fills the table from a Lehmer generator x_{k+1} = 48271·x_k
	// mod 2^31−1, discarding x_1…x_20 and taking x_21…x_1841 three at
	// a time.
	lehmerMod   = 1<<31 - 1
	lehmerMul   = 48271
	lehmerSteps = 20 + 3*rngLen
)

var (
	// lehmerPow[k] is 48271^k mod 2^31−1, so the k-th Lehmer value of a
	// reduced seed s is s·lehmerPow[k] mod 2^31−1.
	lehmerPow [lehmerSteps + 1]uint64
	// cooked is math/rand's rngCooked table: entry i of a seeded table
	// is its three Lehmer values XOR cooked[i].
	cooked [rngLen]uint64
)

func init() {
	lehmerPow[0] = 1
	for k := 1; k <= lehmerSteps; k++ {
		lehmerPow[k] = lehmerPow[k-1] * lehmerMul % lehmerMod
	}
	// Recover cooked from math/rand itself rather than copying its
	// constants: its streams are fixed by the Go 1 compatibility promise,
	// and the stream-identity test proves the recovery. Draw d (from 1)
	// adds the tap entry to the feed entry, writes the sum back and
	// returns it. The first 607 draws use every index as the feed exactly
	// once, so the draws are the table after them; undoing the additions
	// in reverse order gives the table Seed(1) wrote, and XOR-ing out
	// seed 1's Lehmer bits leaves cooked.
	ref := rand.NewSource(1).(rand.Source64)
	var vec [rngLen]uint64
	for d := 1; d <= rngLen; d++ {
		vec[feedIndex(d)] = ref.Uint64()
	}
	for d := rngLen; d >= 1; d-- {
		vec[feedIndex(d)] -= vec[tapIndex(d)]
	}
	for i := range vec {
		cooked[i] = vec[i] ^ lehmerBits(1, i)
	}
}

// feedIndex and tapIndex are the table indices draw d (1 ≤ d ≤ 607) reads
// after a Seed.
func feedIndex(d int) int { return (rngFeed - d + rngLen) % rngLen }
func tapIndex(d int) int  { return (rngLen - d) % rngLen }

// lehmer is the k-th Lehmer value x_k of the reduced seed s.
func lehmer(s uint64, k int) uint64 { return s * lehmerPow[k] % lehmerMod }

// lehmerBits is the Lehmer part of table entry i for the reduced seed s:
// x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i}, three multiply-mods.
func lehmerBits(s uint64, i int) uint64 {
	k := 21 + 3*i
	return lehmer(s, k)<<40 ^ lehmer(s, k+1)<<20 ^ lehmer(s, k+2)
}

// lazySource is math/rand's rngSource with a lazy Seed.
//
// Seed only records the reduced seed and resets the indices; no entry is
// written. Draw d (counting from 1 after Seed) reads the feed entry
// 334−d and the tap entry 607−d (mod 607) and writes their sum to the
// feed entry. Entry i of the freshly seeded table is a pure function of
// (seed, i), so an entry can be computed when a draw first reads it:
//
//   - For d ≤ 334 the feed entry 334−d has not been touched since Seed:
//     the feed indices of draws 1…334 are distinct. Compute it first.
//   - For d ≤ 273 the tap entry 607−d lies in 334…606, which no draw
//     before the 335th writes. Compute it and store it.
//   - For 273 < d ≤ 334 the tap entry 607−d lies in 273…333, the feed
//     entry of draw d−273, which already wrote it.
//
// After draw 334, indices 0…333 have been written as feeds and 334…606
// stored as taps, so the table is exactly math/rand's after the same
// draws and the plain recurrence takes over. fresh counts the draws left
// before that point.
type lazySource struct {
	tap, feed int
	fresh     int
	s         uint64 // the last Seed's reduced seed
	vec       [rngLen]int64
}

// Seed implements rand.Source in O(1). It reduces the seed exactly as
// math/rand's Seed does: mod 2^31−1, made non-negative, with 0 (a fixed
// point of the generator) replaced by 89482311.
func (r *lazySource) Seed(seed int64) {
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = 89482311
	}
	r.s = uint64(seed)
	r.tap, r.feed, r.fresh = 0, rngFeed, rngFeed
}

// seeded is table entry i as math/rand's Seed writes it.
func (r *lazySource) seeded(i int) int64 {
	return int64(lehmerBits(r.s, i) ^ cooked[i])
}

// Int63 implements rand.Source.
func (r *lazySource) Int63() int64 {
	return int64(r.Uint64() & rngMask)
}

// Uint64 implements rand.Source64.
func (r *lazySource) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	if r.fresh > 0 {
		r.fresh--
		r.vec[r.feed] = r.seeded(r.feed)
		if r.tap >= rngFeed {
			r.vec[r.tap] = r.seeded(r.tap)
		}
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}
