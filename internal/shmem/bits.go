package shmem

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Word/bit helpers for uint64-word bitsets (core.PidSet and friends).
// They exist in one place so the word-boundary arithmetic — the classic
// off-by-one hazards at bits 0, 63 and 64 — is written and tested once.

// WordOf returns the index of the 64-bit word holding bit i (i ≥ 0).
func WordOf(i int) int { return i >> 6 }

// BitOf returns the single-bit mask of bit i within its word.
func BitOf(i int) uint64 { return 1 << uint(i&63) }

// MaskUpTo returns the mask with the low k bits set, for k in [0, 64]:
// MaskUpTo(0) = 0, MaskUpTo(64) = all ones. The k = 64 case is why this
// helper exists: the naive 1<<k − 1 shifts a uint64 by its full width,
// which Go defines as 0 — the mask would silently lose a whole word.
func MaskUpTo(k int) uint64 {
	if k < 0 || k > 64 {
		panic(fmt.Sprintf("shmem: MaskUpTo(%d) out of range [0, 64]", k))
	}
	if k == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(k)) - 1
}

// PidBits is a set of process ids as a []uint64 bitset — the register-file
// Pset representation (DESIGN §11). The hot path cares about two
// operations: adding the caller on LL (one OR) and clearing the whole set
// on a successful SC, swap, or move (zeroing words in place, no
// allocation — the map representation it replaced allocated a fresh map
// per clear). The zero value is the empty set.
//
// core.PidSet is the same shape with a cached cardinality; PidBits lives
// here, below it, because package core imports shmem.
type PidBits []uint64

// Add inserts pid (non-negative), growing the word slice as needed.
func (b *PidBits) Add(pid int) {
	w := WordOf(pid)
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= BitOf(pid)
}

// Contains reports membership.
func (b PidBits) Contains(pid int) bool {
	if pid < 0 {
		return false
	}
	w := WordOf(pid)
	return w < len(b) && b[w]&BitOf(pid) != 0
}

// Clear empties the set in place, keeping the backing array.
func (b PidBits) Clear() {
	for i := range b {
		b[i] = 0
	}
}

// Count returns the cardinality.
func (b PidBits) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Each calls f for every element in increasing order.
func (b PidBits) Each(f func(pid int)) {
	for i, w := range b {
		for w != 0 {
			t := bits.TrailingZeros64(w)
			f(i<<6 + t)
			w &^= 1 << uint(t)
		}
	}
}

// Sorted returns the elements in increasing order. The result is non-nil
// even for the empty set, matching the []int Pset snapshots that predate
// the bitset representation.
func (b PidBits) Sorted() []int {
	out := make([]int, 0, b.Count())
	b.Each(func(pid int) { out = append(out, pid) })
	return out
}

// AppendBinary appends a canonical binary rendering of the set to dst:
// a uvarint word count followed by that many little-endian words, with
// trailing zero words trimmed so equal sets render identically regardless
// of backing-array capacity. Memory fingerprints build on it (DESIGN §11).
func (b PidBits) AppendBinary(dst []byte) []byte {
	n := len(b)
	for n > 0 && b[n-1] == 0 {
		n--
	}
	dst = binary.AppendUvarint(dst, uint64(n))
	for _, w := range b[:n] {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// ApproxBits estimates the size of a register value in bits, as 8× the
// length of its rendered form (nil counts as 0). The estimate is crude but
// order-of-magnitude faithful, which is all the register-width experiment
// needs: it contrasts constructions whose registers hold whole operation
// logs (Θ(n) records → Θ(n·w) bits) with ones whose registers hold a
// counter or a toggle (O(log n) bits). See Section 7 of the paper: the
// Ω(log n) lower bound is tight only because register size is unbounded,
// and any size restriction is delicate precisely because practical
// constructions differ so widely on this axis.
func ApproxBits(v Value) int {
	if v == nil {
		return 0
	}
	return 8 * len(fmt.Sprint(v))
}

// WithBitTracking makes the memory record the largest value (per
// ApproxBits) ever written to each register. Tracking serializes every
// written value, which costs as much as the write itself for log-carrying
// constructions — leave it off except in the register-width experiment.
func WithBitTracking() Option {
	return func(m *Memory) { m.trackBits = true }
}

// MaxRegisterBits returns the largest ApproxBits over all values written so
// far, or 0 if the memory was created without WithBitTracking.
func (m *Memory) MaxRegisterBits() int { return m.maxBits }

func (m *Memory) noteBits(v Value) {
	if !m.trackBits {
		return
	}
	if b := ApproxBits(v); b > m.maxBits {
		m.maxBits = b
	}
}
