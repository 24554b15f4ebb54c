package sweep

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// streamDraws is how many calls each stream comparison makes: past the
// 334 draws that seed the table lazily and past a full 607-entry wrap.
const streamDraws = 1300

// streamSeeds are the seeds the stream tests compare on: the edges of
// math/rand's seed reduction (0 and 89482311 give one stream, ±(2^31−1)
// reduce to 0, 2^31 to 1, the int64 extremes to their residues) and a
// few hundred seeds as the explore walks derive them.
func streamSeeds() []int64 {
	seeds := []int64{0, 1, -1, lehmerMod, -lehmerMod, 1 << 31, 89482311, math.MinInt64, math.MaxInt64}
	for i := 0; i < 300; i++ {
		seeds = append(seeds, Derive(int64(i%3)*1e9+7, i))
	}
	return seeds
}

// streamMethods draws from a *rand.Rand through each method the
// repository's walks and sweeps use; call i returns what one call gave.
var streamMethods = []struct {
	name string
	call func(r *rand.Rand, i int) []int64
}{
	{"Uint64", func(r *rand.Rand, _ int) []int64 { return []int64{int64(r.Uint64())} }},
	{"Int63", func(r *rand.Rand, _ int) []int64 { return []int64{r.Int63()} }},
	{"Intn", func(r *rand.Rand, i int) []int64 { return []int64{int64(r.Intn(1 + i%9))} }},
	{"Int63n", func(r *rand.Rand, i int) []int64 { return []int64{r.Int63n(int64(2 + i%5))} }},
	{"Shuffle", func(r *rand.Rand, _ int) []int64 {
		s := []int64{0, 1, 2, 3, 4, 5, 6, 7}
		r.Shuffle(len(s), func(a, b int) { s[a], s[b] = s[b], s[a] })
		return s
	}},
}

// sameStream reports the first call at which got and want disagree over
// n calls of method m, or -1.
func sameStream(got, want *rand.Rand, m func(*rand.Rand, int) []int64, n int) int {
	for i := 0; i < n; i++ {
		if !slices.Equal(m(got, i), m(want, i)) {
			return i
		}
	}
	return -1
}

// TestNewRandIsMathRandStream checks that NewRand(s) and
// rand.New(rand.NewSource(s)) give identical results, method by method.
func TestNewRandIsMathRandStream(t *testing.T) {
	for _, m := range streamMethods {
		for _, s := range streamSeeds() {
			if i := sameStream(NewRand(s), rand.New(rand.NewSource(s)), m.call, streamDraws); i >= 0 {
				t.Fatalf("%s: seed %d: streams differ at call %d", m.name, s, i)
			}
		}
	}
}

// TestNewRandReseed checks that re-seeding a used NewRand yields exactly a
// fresh stream, whether the old stream stopped inside the lazily seeded
// draws, at their end or past a full wrap of the table.
func TestNewRandReseed(t *testing.T) {
	seeds := streamSeeds()
	for j, used := range []int{0, 1, 80, 273, 274, 333, 334, 335, 700} {
		r := NewRand(seeds[j])
		for i := 0; i < used; i++ {
			r.Uint64()
		}
		s := seeds[len(seeds)-1-j]
		r.Seed(s)
		if i := sameStream(r, rand.New(rand.NewSource(s)), streamMethods[0].call, streamDraws); i >= 0 {
			t.Fatalf("re-seeded after %d draws: seed %d: streams differ at call %d", used, s, i)
		}
	}
}
