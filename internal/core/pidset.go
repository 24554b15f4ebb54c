package core

import (
	"fmt"
	"math/bits"
	"strings"

	"jayanti98/internal/shmem"
)

// PidSet is a set of process identifiers, represented as a bitset. The UP
// sets of Section 5.3 and the subset S of the (S,A)-run are PidSets; the
// adversary unions them for every process every round, so the
// representation is chosen for O(n/64) bulk operations.
//
// The zero value is the empty set ∅. PidSet values stored in run records
// are immutable — mutate only sets you created or cloned — which is what
// lets a round record share an unchanged UP set with the round before it.
type PidSet struct {
	words []uint64
	count int
}

// NewPidSet builds a set from the given pids.
func NewPidSet(pids ...int) PidSet {
	var s PidSet
	for _, p := range pids {
		s.Add(p)
	}
	return s
}

// Add inserts pid (non-negative).
func (s *PidSet) Add(pid int) {
	w := shmem.WordOf(pid)
	for len(s.words) <= w {
		s.words = append(s.words, 0)
	}
	bit := shmem.BitOf(pid)
	if s.words[w]&bit == 0 {
		s.words[w] |= bit
		s.count++
	}
}

// Contains reports membership.
func (s PidSet) Contains(pid int) bool {
	if pid < 0 {
		return false
	}
	w := shmem.WordOf(pid)
	return w < len(s.words) && s.words[w]&shmem.BitOf(pid) != 0
}

// Len returns the cardinality.
func (s PidSet) Len() int { return s.count }

// Clone returns an independent copy.
func (s PidSet) Clone() PidSet {
	return PidSet{words: append([]uint64(nil), s.words...), count: s.count}
}

// UnionWith adds every element of o to s (in place).
func (s *PidSet) UnionWith(o PidSet) {
	for len(s.words) < len(o.words) {
		s.words = append(s.words, 0)
	}
	count := 0
	for i := range s.words {
		if i < len(o.words) {
			s.words[i] |= o.words[i]
		}
		count += bits.OnesCount64(s.words[i])
	}
	s.count = count
}

// union returns s ∪ o. When o ⊆ s the result is s itself (callers rely on
// stored sets being immutable); otherwise it is a fresh set built with one
// allocation.
func (s PidSet) union(o PidSet) PidSet {
	if o.SubsetOf(s) {
		return s
	}
	out := PidSet{words: make([]uint64, max(len(s.words), len(o.words)))}
	copy(out.words, s.words)
	out.UnionWith(o)
	return out
}

// copyFrom makes s a copy of o, reusing s's storage.
func (s *PidSet) copyFrom(o PidSet) {
	s.words = append(s.words[:0], o.words...)
	s.count = o.count
}

// reset empties s in place, keeping its storage.
func (s *PidSet) reset() {
	clear(s.words)
	s.count = 0
}

// SubsetOf reports whether every element of s is in o.
func (s PidSet) SubsetOf(o PidSet) bool {
	for i, w := range s.words {
		if w == 0 {
			continue
		}
		if i >= len(o.words) || w&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// Each calls f for every element in increasing order.
func (s PidSet) Each(f func(pid int)) {
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(i<<6 + b)
			w &^= 1 << uint(b)
		}
	}
}

// Sorted returns the elements in increasing order.
func (s PidSet) Sorted() []int {
	out := make([]int, 0, s.count)
	s.Each(func(pid int) { out = append(out, pid) })
	return out
}

// String renders the set as {p0, p3, ...}.
func (s PidSet) String() string {
	parts := make([]string, 0, s.count)
	s.Each(func(p int) { parts = append(parts, fmt.Sprintf("p%d", p)) })
	return "{" + strings.Join(parts, ", ") + "}"
}
