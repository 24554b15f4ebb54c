package shmem

import "testing"

// The word/bit helpers guard the classic boundary hazards of uint64-word
// bitsets: bit 0, bit 63 (last of a word), and bit/width 64 (first of the
// next word — and, for MaskUpTo, the full-width shift Go defines as 0).

func TestWordOfBoundaries(t *testing.T) {
	cases := []struct {
		bit, word int
	}{
		{0, 0}, {1, 0}, {63, 0},
		{64, 1}, {65, 1}, {127, 1},
		{128, 2}, {191, 2}, {192, 3},
	}
	for _, tc := range cases {
		if got := WordOf(tc.bit); got != tc.word {
			t.Errorf("WordOf(%d) = %d, want %d", tc.bit, got, tc.word)
		}
	}
}

func TestBitOfBoundaries(t *testing.T) {
	cases := []struct {
		bit  int
		mask uint64
	}{
		{0, 1},
		{1, 2},
		{63, 1 << 63},
		{64, 1},        // first bit of the next word wraps to position 0
		{127, 1 << 63}, // last bit of the second word
		{128, 1},
	}
	for _, tc := range cases {
		if got := BitOf(tc.bit); got != tc.mask {
			t.Errorf("BitOf(%d) = %#x, want %#x", tc.bit, got, tc.mask)
		}
	}
}

func TestMaskUpToBoundaries(t *testing.T) {
	cases := []struct {
		k    int
		mask uint64
	}{
		{0, 0},
		{1, 1},
		{2, 3},
		{63, 1<<63 - 1},  // all but the top bit
		{64, ^uint64(0)}, // full word: the naive 1<<64 - 1 is 0 in Go
	}
	for _, tc := range cases {
		if got := MaskUpTo(tc.k); got != tc.mask {
			t.Errorf("MaskUpTo(%d) = %#x, want %#x", tc.k, got, tc.mask)
		}
	}
	// Every mask must have exactly k bits set and be a prefix of the next.
	prev := uint64(0)
	for k := 0; k <= 64; k++ {
		m := MaskUpTo(k)
		if m&prev != prev {
			t.Errorf("MaskUpTo(%d) = %#x is not an extension of MaskUpTo(%d) = %#x", k, m, k-1, prev)
		}
		if bits := popcount(m); bits != k {
			t.Errorf("MaskUpTo(%d) has %d bits set", k, bits)
		}
		prev = m
	}
}

func TestMaskUpToPanicsOutOfRange(t *testing.T) {
	for _, k := range []int{-1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MaskUpTo(%d) did not panic", k)
				}
			}()
			MaskUpTo(k)
		}()
	}
}

// TestHelpersComposeLikeABitset checks the three helpers against a
// straightforward map-of-ints model across both sides of a word boundary.
func TestHelpersComposeLikeABitset(t *testing.T) {
	words := make([]uint64, 3)
	set := []int{0, 1, 62, 63, 64, 65, 126, 127, 128}
	for _, i := range set {
		words[WordOf(i)] |= BitOf(i)
	}
	in := func(i int) bool { return words[WordOf(i)]&BitOf(i) != 0 }
	for i := 0; i < 192; i++ {
		want := false
		for _, s := range set {
			if s == i {
				want = true
			}
		}
		if in(i) != want {
			t.Errorf("bit %d: got %v, want %v", i, in(i), want)
		}
	}
	// MaskUpTo(64) must cover exactly word 0's population.
	if got := popcount(words[0] & MaskUpTo(64)); got != 4 {
		t.Errorf("word 0 has %d bits under a full mask, want 4", got)
	}
	if got := popcount(words[0] & MaskUpTo(63)); got != 3 {
		t.Errorf("word 0 has %d bits under MaskUpTo(63), want 3 (bit 63 excluded)", got)
	}
}

func popcount(v uint64) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

func TestPidBitsBasics(t *testing.T) {
	var b PidBits
	if b.Count() != 0 || b.Contains(0) || b.Contains(-1) {
		t.Fatal("zero PidBits must be the empty set")
	}
	for _, p := range []int{0, 63, 64, 130, 63} {
		b.Add(p)
	}
	if b.Count() != 4 {
		t.Fatalf("Count = %d, want 4 (duplicate Add must not double-count)", b.Count())
	}
	want := []int{0, 63, 64, 130}
	got := b.Sorted()
	if len(got) != len(want) {
		t.Fatalf("Sorted = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sorted = %v, want %v", got, want)
		}
	}
	for _, p := range want {
		if !b.Contains(p) {
			t.Fatalf("Contains(%d) = false after Add", p)
		}
	}
	if b.Contains(1) || b.Contains(65) || b.Contains(131) || b.Contains(1000) {
		t.Fatal("Contains reports absent elements")
	}
	b.Clear()
	if b.Count() != 0 {
		t.Fatal("Clear must empty the set")
	}
	if cap(b) == 0 {
		t.Fatal("Clear must keep the backing array")
	}
}

func TestPidBitsSortedNonNilWhenEmpty(t *testing.T) {
	var b PidBits
	if b.Sorted() == nil {
		t.Fatal("Sorted of the empty set must be non-nil (snapshot compatibility)")
	}
}

func TestPidBitsAppendBinaryCanonical(t *testing.T) {
	// Equal sets with different backing capacities must render identically:
	// trailing zero words are trimmed.
	var a PidBits
	a.Add(3)
	b := PidBits{0, 0, 0}
	b.Add(3) // word 0; words 1, 2 remain zero
	ra, rb := a.AppendBinary(nil), b.AppendBinary(nil)
	if string(ra) != string(rb) {
		t.Fatalf("AppendBinary not canonical: %x vs %x", ra, rb)
	}
	// The empty set renders as a bare zero count regardless of capacity.
	var empty PidBits
	cleared := PidBits{0, 0}
	if string(empty.AppendBinary(nil)) != string(cleared.AppendBinary(nil)) {
		t.Fatal("AppendBinary of empty sets must not depend on capacity")
	}
	// Distinct sets must render distinctly.
	var c PidBits
	c.Add(4)
	if string(a.AppendBinary(nil)) == string(c.AppendBinary(nil)) {
		t.Fatal("AppendBinary collided on distinct sets")
	}
	// Appends to dst, preserving the prefix.
	out := a.AppendBinary([]byte("prefix"))
	if string(out[:6]) != "prefix" {
		t.Fatalf("AppendBinary clobbered dst prefix: %q", out)
	}
}

func TestPidBitsEachAscending(t *testing.T) {
	var b PidBits
	for _, p := range []int{200, 5, 64, 0} {
		b.Add(p)
	}
	var got []int
	b.Each(func(p int) { got = append(got, p) })
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("Each not ascending: %v", got)
		}
	}
	if len(got) != 4 {
		t.Fatalf("Each visited %d elements, want 4", len(got))
	}
}
