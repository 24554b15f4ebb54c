// Package tas implements randomized test-and-set algorithms from the
// related work (PAPERS.md) as machine.Algorithm values: a Tromp–Vitányi
// style two-process TAS built from the paper's shared-memory operations,
// and a Giakkoupis–Woelfel style tournament-tree TAS that composes the
// two-process protocol up a binary tree for arbitrary n.
//
// Both are randomized: a process that sees its opponent's flag up tosses a
// coin to decide between holding its flag and retreating (lowering it,
// re-checking, and raising it again). Against an adversary that always
// schedules the two contenders in lockstep with identical coin outcomes the
// protocol livelocks — that is the price of randomized TAS from registers
// and swaps (deterministic wait-free TAS does not exist in this model) —
// but any asymmetry in the toss streams breaks the symmetry and one process
// wins. Coin tosses go through machine.Env.Toss, so the exploration
// harness's adversary schedules stay deterministic per toss-stream, and
// exhaustive search treats an exhausted step budget as a truncated (not
// failed) run.
//
// The no-double-winner argument for one match is the Tromp–Vitányi
// invariant: a process wins only after reading the opponent's flag as
// absent (nil) or down while its own flag has been continuously up since it
// last raised it. If both won, each one's decisive read preceded the
// other's last raise, which precedes the other's decisive read — a cycle in
// the real-time order. The loser learns the outcome from the winner's `won`
// marker. In the tournament, at most the winners of the two child subtrees
// ever contend at a node, so every match is two-process; the doorway
// register makes the composition linearizable: a process that finds the
// doorway marked loses immediately, and every loser marks the doorway
// before returning, so no loser can complete strictly before the eventual
// winner takes its first step.
//
// Each algorithm is a machine.NewCompiled pair — a direct-style Go body and
// a vmachine program compiled at package init. machine.Start runs the
// program on the VM; package lockstep holds the two forms step-equivalent.
package tas

import (
	"jayanti98/internal/machine"
	"jayanti98/internal/shmem"
)

// Flag values of one two-process match. Registers start nil (no flag).
const (
	up   = 1 // contending
	down = 2 // retreated
	won  = 3 // match decided: the register's owner advanced
)

// doorReg is the tournament's doorway register: nil until the first loser
// marks it. Match flags live at registers 2..2W-1 (register v is the flag
// of position v's occupant; positions v and v^1 contend at their parent),
// so the doorway never collides with a flag.
const doorReg = 0

// TrompVitanyi returns the two-process randomized test-and-set: process
// pid's flag is register pid, the winner returns 0, the loser 1. Valid for
// n ≤ 2 (algos.New enforces it); at n = 1 the solo process reads the
// absent opponent flag and wins in 3 steps.
func TrompVitanyi() machine.Algorithm {
	return machine.NewCompiled("tas-tv", tvBody, tvChunk)
}

func tvBody(e *machine.Env) shmem.Value {
	me := e.ID()
	opp := 1 - me
	e.Swap(me, up)
	for {
		v := e.Read(opp)
		if v == won {
			return 1
		}
		if v != up { // absent or down: the opponent is out of the way
			e.Swap(me, won)
			return 0
		}
		if e.Toss()&1 == 0 { // retreat
			e.Swap(me, down)
			if e.Read(opp) == won {
				return 1
			}
			e.Swap(me, up)
		}
	}
}

// Tournament returns the tournament-tree randomized test-and-set for any
// n ≥ 1: leaves are positions W+pid (W the next power of two ≥ n), and the
// winner of the match between positions v and v^1 advances to position
// v/2; the occupant of position 1 is the champion and returns 0. A process
// that loses a match marks the doorway and returns 1; a process that finds
// the doorway already marked returns 1 in one shared access.
func Tournament() machine.Algorithm {
	return machine.NewCompiled("tas-tournament", tournamentBody, tournamentChunk)
}

func tournamentBody(e *machine.Env) shmem.Value {
	if e.Read(doorReg) != nil { // doorway: somebody already lost, so somebody won
		return 1
	}
	v := leafIndex(e.ID(), e.N())
	for {
		if v == 1 {
			return 0 // champion
		}
		e.Swap(v, up)
		for {
			w := e.Read(v ^ 1)
			if w == won { // the sibling advanced: this match is lost
				e.Swap(doorReg, 1)
				return 1
			}
			if w != up { // absent or down: free to take the match
				e.Swap(v, won)
				break
			}
			if e.Toss()&1 == 0 { // retreat
				e.Swap(v, down)
				if e.Read(v^1) == won {
					e.Swap(doorReg, 1)
					return 1
				}
				e.Swap(v, up)
			}
		}
		v >>= 1
	}
}

// leafIndex returns the tree position process id starts at: W + id for W
// the smallest power of two ≥ n (so sibling positions differ in the last
// bit and halving walks toward the root at position 1).
func leafIndex(id, n int) int {
	w := 1
	for w < n {
		w <<= 1
	}
	return w + id
}
