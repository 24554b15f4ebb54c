// Package wakeup implements algorithms for the n-process wakeup problem of
// Fischer, Moran, Rudich and Taubenfeld, as specified in Section 1.1 of the
// paper: (1) every process terminates in a finite number of its own steps,
// returning 0 or 1; (2) in every run in which all processes terminate, at
// least one process returns 1; and (3) no process returns 1 before every
// process has taken at least one step.
//
// The algorithms here communicate only through LL, SC, validate, swap, and
// move on shared memory — the operation set the lower bound is proved
// against — so the adversary of package core applies to all of them:
//
//   - SetRegister: correct; one unbounded register accumulating ids;
//     wait-free with O(n) worst-case steps (the adversary forces Θ(n)).
//   - DoubleRegister: correct and randomized; ids accumulate in one of two
//     registers chosen by coin toss; exercises the randomized form of
//     Theorem 6.1 (Lemma 3.1 with termination probability c = 1).
//   - Cheater: deliberately incorrect — it returns 1 after one operation.
//     CatchFastWakeup exhibits its spec violation via the (S,A)-run,
//     demonstrating the proof mechanics of Theorem 6.1.
//   - Reductions via shared objects (reduction.go): the Theorem 6.2
//     algorithms in which each process performs at most two operations on
//     one linearizable object (fetch&increment, fetch&and, fetch&or,
//     fetch&complement, fetch&multiply, queue, stack, read/increment).
package wakeup

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"jayanti98/internal/machine"
	"jayanti98/internal/shmem"
)

// setReg is the single shared register used by SetRegister.
const setReg = 0

// EncodeBits encodes a pid set as a canonical comma-separated string —
// the unbounded register contents of the set-accumulation algorithms (a
// bitset iterates in increasing order, so no sort is needed). The algorithm bodies use the bitset form on their LL/SC retry
// loops, where the encoding runs on every SC attempt, so it sizes the
// rendering exactly up front and writes the digits itself: one
// allocation, the string.
func EncodeBits(set shmem.PidBits) string {
	size := encodedLen(set)
	if size == 0 {
		return ""
	}
	var b strings.Builder
	b.Grow(size)
	for i, w := range set {
		for ; w != 0; w &= w - 1 {
			if b.Len() > 0 {
				b.WriteByte(',')
			}
			writeDecimal(&b, i<<6+bits.TrailingZeros64(w))
		}
	}
	return b.String()
}

// encodedLen returns len(EncodeBits(set)): n−1 commas, one digit per pid,
// and one more digit for every pid ≥ 10, every pid ≥ 100, and so on.
func encodedLen(set shmem.PidBits) int {
	n := set.Count()
	if n == 0 {
		return 0
	}
	size := 2*n - 1
	for t := 10; ; t *= 10 {
		c := countFrom(set, t)
		if c == 0 {
			return size
		}
		size += c
	}
}

// countFrom returns the number of elements of set that are ≥ t.
func countFrom(set shmem.PidBits, t int) int {
	w := shmem.WordOf(t)
	if w >= len(set) {
		return 0
	}
	c := bits.OnesCount64(set[w] &^ shmem.MaskUpTo(t&63))
	for _, x := range set[w+1:] {
		c += bits.OnesCount64(x)
	}
	return c
}

// writeDecimal writes p ≥ 0 in decimal. Pids below 1000 — every system
// size the experiments run — take a branch with no loop.
func writeDecimal(b *strings.Builder, p int) {
	switch {
	case p < 10:
		b.WriteByte(byte('0' + p))
	case p < 100:
		b.WriteByte(byte('0' + p/10))
		b.WriteByte(byte('0' + p%10))
	case p < 1000:
		b.WriteByte(byte('0' + p/100))
		b.WriteByte(byte('0' + p/10%10))
		b.WriteByte(byte('0' + p%10))
	default:
		var digits [20]byte
		i := len(digits)
		for ; p > 0; p /= 10 {
			i--
			digits[i] = byte('0' + p%10)
		}
		b.Write(digits[i:])
	}
}

// DecodeBits decodes EncodeBits output into dst (cleared
// first), reusing dst's backing array — the retry loops decode on every
// LL, so the register hot path stays allocation-light. A value that is not
// a string decodes to the empty set; a string that is not a comma-separated
// list of integers panics.
func DecodeBits(v shmem.Value, dst shmem.PidBits) shmem.PidBits {
	s, _ := v.(string)
	return decodeString(s, dst)
}

// maxPlainDigits is the longest run of decimal digits that cannot overflow
// an int.
const maxPlainDigits = 9 * strconv.IntSize / 32

// decodeString is DecodeBits on the string itself. It parses canonical
// parts — plain digits, at most maxPlainDigits of them — in one pass;
// anything else (an empty part, a sign, a space, a long part) goes through
// strconv.Atoi, so it accepts exactly the strings and values Atoi does and
// panics on the rest.
func decodeString(s string, dst shmem.PidBits) shmem.PidBits {
	dst.Clear()
	for rest := s; rest != ""; {
		p, i := 0, 0
		for ; i < len(rest) && i < maxPlainDigits && '0' <= rest[i] && rest[i] <= '9'; i++ {
			p = p*10 + int(rest[i]-'0')
		}
		if i == 0 || i < len(rest) && rest[i] != ',' {
			i = strings.IndexByte(rest, ',')
			if i < 0 {
				i = len(rest)
			}
			var err error
			if p, err = strconv.Atoi(rest[:i]); err != nil {
				panic(fmt.Sprintf("wakeup: corrupt pid set register %q", s))
			}
		}
		dst.Add(p)
		if i < len(rest) {
			i++ // the comma
		}
		rest = rest[i:]
	}
	return dst
}

// SetRegister returns the set-accumulation wakeup algorithm: one unbounded
// register holds the set of processes known to be up; each process
// LL/SC-retries to insert its own id; the process whose successful SC
// completes the set returns 1 (there is exactly one such process, because
// the register's set grows monotonically).
//
// Wait-freedom: every failed SC is caused by another process's successful
// SC, and each process performs exactly one successful SC, so a process
// retries at most n−1 times — O(n) worst-case shared accesses. The
// adversary in fact forces Θ(n): in its lockstep rounds only the smallest
// linked pid succeeds each round.
//
// Each instance codes its pid sets through one pidMemo, shared by both
// engines (the VM's natives receive it as the host value), in runs of
// memoMinN or more processes.
func SetRegister() machine.Algorithm {
	memo := new(pidMemo)
	return machine.NewHosted("wakeup/set-register", func(e *machine.Env) shmem.Value {
		m := memo.forN(e.N())
		var set shmem.PidBits
		for {
			set = m.decode(e.LL(setReg), set)
			set.Add(e.ID())
			ok, _ := e.SC(setReg, m.encode(set))
			if ok {
				if set.Count() == e.N() {
					return 1
				}
				return 0
			}
		}
	}, setRegisterChunk, memo)
}

// DoubleRegister returns the randomized variant: each process tosses a coin
// to pick one of two set registers, inserts its id there (LL/SC retry
// loop), and then reads both registers; it returns 1 iff their union covers
// all n processes. The process whose final reads happen last sees every
// insertion, so condition (2) holds in every terminating run; condition (3)
// holds because an id enters a register only by its owner's step. The
// algorithm terminates with probability 1 (indeed always), so the
// randomized bound of Theorem 6.1 applies with c = 1.
func DoubleRegister() machine.Algorithm {
	return machine.NewCompiled("wakeup/double-register", func(e *machine.Env) shmem.Value {
		reg := int(e.Toss()) & 1
		var set shmem.PidBits
		for {
			set = DecodeBits(e.LL(reg), set)
			set.Add(e.ID())
			if ok, _ := e.SC(reg, EncodeBits(set)); ok {
				break
			}
		}
		union := DecodeBits(e.Read(0), nil)
		DecodeBits(e.Read(1), nil).Each(union.Add)
		if union.Count() == e.N() {
			return 1
		}
		return 0
	}, doubleRegisterChunk)
}

// Cheater returns the deliberately incorrect algorithm: each process
// announces itself with one swap and immediately claims every process is
// up. For n > 4 this violates Theorem 6.1 (1 < log₄ n), and the violation
// is exhibited by core.CatchFastWakeup: in the ({p},A)-run the winner still
// returns 1 although no other process ever takes a step.
func Cheater() machine.Algorithm {
	return machine.NewCompiled("wakeup/cheater", func(e *machine.Env) shmem.Value {
		e.Swap(e.ID(), 1)
		return 1
	}, cheaterChunk)
}

// MoveCourier is a correct wakeup algorithm that exercises move and swap:
// each process publishes its knowledge with swap on its own register, uses
// move to copy its register into a shared relay slot, and accumulates
// knowledge by reading the relay and other processes' registers through an
// LL/SC set register. It is deliberately operation-diverse so that the
// adversary's move phase (and the secretive schedule) is exercised by a
// real algorithm; its step complexity is O(n).
func MoveCourier() machine.Algorithm {
	const (
		relay = 1 // moves land here
		acc   = 0 // LL/SC set register
	)
	ownReg := func(pid int) int { return 10 + pid }
	return machine.NewCompiled("wakeup/move-courier", func(e *machine.Env) shmem.Value {
		// Publish own id.
		var own shmem.PidBits
		own.Add(e.ID())
		e.Swap(ownReg(e.ID()), EncodeBits(own))
		// Copy own register into the relay: the move phase of each round
		// now has real work, scheduled secretively by the adversary.
		e.Move(ownReg(e.ID()), relay)
		// Accumulate: merge what the relay shows, then LL/SC-insert into
		// the shared set register until our insertion lands.
		var know shmem.PidBits
		know.Add(e.ID())
		DecodeBits(e.Read(relay), nil).Each(know.Add)
		var set shmem.PidBits
		for {
			set = DecodeBits(e.LL(acc), set)
			set.Each(know.Add)
			if ok, _ := e.SC(acc, EncodeBits(know)); ok {
				break
			}
		}
		if know.Count() == e.N() {
			return 1
		}
		// One last look: the set register may have completed meanwhile;
		// but only claim victory if we were the completing writer.
		return 0
	}, moveCourierChunk)
}
