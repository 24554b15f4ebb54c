// Package counting implements the bitonic counting network of Aspnes,
// Herlihy and Shavit on the paper's LL/SC shared memory.
//
// Why it belongs in this reproduction: the paper closes by observing that
// sublogarithmic — indeed, any good — implementations must exploit the
// semantics of the implemented type, and that the O(log n) tightness of
// its bound leans on unbounded registers (Section 7; the Group-Update
// registers hold whole operation logs). A counting network is the classic
// semantics-exploiting counterpoint: it distributes tokens over w output
// wires using only single-bit balancer registers and w small counters —
// register width O(log n) rather than Θ(n·w) — at the price of
// O(log² w) shared accesses per traversal and a weaker consistency
// guarantee (quiescent consistency rather than linearizability). It also
// solves the wakeup problem: initialize the per-wire counters so values
// 0..n−1 are handed out; the process that draws n−1 knows all n tokens
// entered. Its measured cost lands, as it must, between the paper's
// Ω(log n) lower bound and the O(log² n) of the Chandra–Jayanti–Tan
// closed-object construction cited in Section 2.
//
// The network is Batcher's bitonic structure: Bitonic[w] is two
// Bitonic[w/2] in parallel followed by Merger[w]; Merger[w] splits its
// inputs between two Merger[w/2] (evens of the first half with odds of the
// second, and vice versa) and finishes with a layer of balancers. A
// balancer is a one-bit toggle updated with an LL/SC retry loop: tokens
// alternate between its two outputs. Traversals are lock-free but not
// wait-free — a balancer SC can fail only because another token's SC
// succeeded.
package counting

import (
	"fmt"

	"jayanti98/internal/machine"
)

// Network is a bitonic counting network of a fixed power-of-two width,
// occupying a contiguous block of registers. The descriptor is stateless:
// all balancer toggles and output counters live in shared registers, so a
// single Network value may be used by any number of processes on either
// memory backend.
type Network struct {
	width int
	base  int
	// balancerReg maps a balancer's structural key to its register.
	balancerReg map[string]int
	nBalancers  int
}

// New builds the descriptor of a bitonic network with the given width
// (rounded up to a power of two, minimum 2), with registers allocated from
// base: first one register per balancer, then one counter per output wire.
func New(width, base int) *Network {
	w := 2
	for w < width {
		w *= 2
	}
	nw := &Network{width: w, base: base, balancerReg: make(map[string]int)}
	nw.enumBitonic(w, "")
	return nw
}

// Depth returns the balancer depth of a bitonic network of the given
// width (rounded up to a power of two, minimum 2) without building the
// descriptor — d(w) = log₂w·(log₂w+1)/2. Report code uses it to quote the
// lockstep traversal cost of a width-n network without allocating one per
// table row.
func Depth(width int) int {
	w := 2
	for w < width {
		w *= 2
	}
	lg := 0
	for v := w; v > 1; v /= 2 {
		lg++
	}
	return lg * (lg + 1) / 2
}

// Width returns the (power-of-two) network width.
func (nw *Network) Width() int { return nw.width }

// Depth returns the number of balancers on every input-to-output path:
// d(w) = log₂w·(log₂w+1)/2.
func (nw *Network) Depth() int { return Depth(nw.width) }

// Balancers returns the total number of balancers in the network.
func (nw *Network) Balancers() int { return nw.nBalancers }

// enumBitonic pre-allocates balancer registers by walking the network
// structure exactly as traversals do, so every traversal-time lookup hits.
func (nw *Network) enumBitonic(w int, id string) {
	if w <= 1 {
		return
	}
	nw.enumBitonic(w/2, id+"T")
	nw.enumBitonic(w/2, id+"B")
	nw.enumMerger(w, id+"M")
}

func (nw *Network) enumMerger(w int, id string) {
	if w == 2 {
		nw.alloc(key(id, 0))
		return
	}
	nw.enumMerger(w/2, id+"A")
	nw.enumMerger(w/2, id+"B")
	for j := 0; j < w/2; j++ {
		nw.alloc(key(id+"F", j))
	}
}

func (nw *Network) alloc(k string) {
	if _, dup := nw.balancerReg[k]; dup {
		panic(fmt.Sprintf("counting: duplicate balancer key %q", k))
	}
	nw.balancerReg[k] = nw.base + nw.nBalancers
	nw.nBalancers++
}

func key(id string, idx int) string { return fmt.Sprintf("%s#%d", id, idx) }

// counterReg returns the register of output wire j's counter.
func (nw *Network) counterReg(j int) int { return nw.base + nw.nBalancers + j }

// balance sends the token through the balancer identified by (id, idx) and
// returns 0 or 1. The toggle is flipped with an LL/SC retry loop; each
// failed SC is caused by another token's success, so traversals are
// lock-free.
func (nw *Network) balance(p machine.Port, id string, idx int) int {
	reg, ok := nw.balancerReg[key(id, idx)]
	if !ok {
		panic(fmt.Sprintf("counting: unknown balancer %q (width %d)", key(id, idx), nw.width))
	}
	for {
		v := 0
		if raw := p.LL(reg); raw != nil {
			v = raw.(int)
		}
		if ok, _ := p.SC(reg, 1-v); ok {
			return v
		}
	}
}

// bitonic routes a token entering Bitonic[w] on wire i and returns its
// output wire.
func (nw *Network) bitonic(p machine.Port, w, i int, id string) int {
	if w == 1 {
		return 0
	}
	half := w / 2
	var j int
	if i < half {
		j = nw.bitonic(p, half, i, id+"T")
	} else {
		j = half + nw.bitonic(p, half, i-half, id+"B")
	}
	return nw.merger(p, w, j, id+"M")
}

// merger routes a token entering Merger[w] on wire i and returns its
// output wire.
func (nw *Network) merger(p machine.Port, w, i int, id string) int {
	if w == 2 {
		return nw.balance(p, id, 0)
	}
	half := w / 2
	var sub string
	var pos int
	switch {
	case i < half && i%2 == 0: // even of first half → A
		sub, pos = "A", i/2
	case i < half: // odd of first half → B
		sub, pos = "B", i/2
	case (i-half)%2 == 1: // odd of second half → A
		sub, pos = "A", half/2+(i-half)/2
	default: // even of second half → B
		sub, pos = "B", half/2+(i-half)/2
	}
	j := nw.merger(p, half, pos, id+sub)
	if sub == "A" {
		return 2*j + nw.balance(p, id+"F", j)
	}
	// Tokens from sub-merger B enter the final balancer j on its second
	// input; the balancer still alternates outputs 2j and 2j+1.
	return 2*j + nw.balance(p, id+"F", j)
}

// Traverse sends one token into the network on wire `enter mod width` and
// returns its output wire.
func (nw *Network) Traverse(p machine.Port, enter int) int {
	i := enter % nw.width
	if i < 0 {
		i += nw.width
	}
	return nw.bitonic(p, nw.width, i, "")
}

// Next draws the next counter value: the token traverses the network to an
// output wire and atomically fetches that wire's counter, which advances
// by the network width. Wire j hands out j, j+w, j+2w, ... so values are
// globally distinct, and at quiescence the issued values are exactly
// 0..m−1 for m tokens.
func (nw *Network) Next(p machine.Port) int {
	j := nw.Traverse(p, p.ID())
	reg := nw.counterReg(j)
	for {
		v := j
		if raw := p.LL(reg); raw != nil {
			v = raw.(int)
		}
		if ok, _ := p.SC(reg, v+nw.width); ok {
			return v
		}
	}
}
