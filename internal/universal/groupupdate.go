package universal

import (
	"fmt"

	"jayanti98/internal/machine"
	"jayanti98/internal/objtype"
)

// GroupUpdate is the Group-Update universal construction of Afek, Dauber
// and Touitou, adapted per the paper's remark that "with two minor
// modifications" it becomes an O(log n) oblivious universal construction on
// this memory. The two modifications, which exploit the model's unbounded
// registers (Section 3 allows them — and Section 7 explains why the lower
// bound cannot be strengthened without restricting them):
//
//  1. Unbounded tree registers. Every node of a binary combining tree
//     stores the full log of announced operation records of its subtree,
//     instead of a bounded summary. One read of a node therefore conveys
//     everything known below it, and the root register is the
//     linearization log itself.
//
//  2. Response by local replay. A process computes its operation's
//     response by replaying the sequential specification over the root
//     log's prefix up to its own record, instead of waiting for a helper
//     to deposit a response. Propagation to the root is thus the only
//     synchronization an operation needs.
//
// An operation costs: 2 steps to announce at the process's leaf (validate
// own leaf + swap), at most 2·(1 LL + 2 validates + 1 SC) = 8 steps per
// tree level to propagate (the try-twice rule below), and 1 final validate
// of the root — i.e. at most 8·⌈log₂ n⌉ + 3 shared accesses, worst case,
// wait-free.
//
// Try-twice rule: at each internal node the process attempts
// {LL(node); validate both children; SC(node, merge)} at most twice. If
// both SCs fail, two successful SCs by other processes occurred after the
// process's first LL of the node; the second such SC read the children
// after the first succeeded — hence after the process's record was already
// in a child — so it carried the record upward on the process's behalf.
// Either way the record is in the node after two attempts.
//
// The construction is oblivious: the type is used only inside replay.
type GroupUpdate struct {
	typ    objtype.Type
	n      int
	base   int
	leaves int // number of leaf slots: smallest power of two ≥ n
}

var _ Construction = (*GroupUpdate)(nil)

// NewGroupUpdate instantiates the construction for an n-process object of
// the given type, occupying registers [base, base+2L): the tree is
// heap-indexed 1..2L−1 (index 0 unused), for L leaves, n rounded up to a
// power of two.
func NewGroupUpdate(typ objtype.Type, n, base int) *GroupUpdate {
	leaves := 1
	for leaves < n {
		leaves *= 2
	}
	return &GroupUpdate{typ: typ, n: n, base: base, leaves: leaves}
}

// Name implements Construction.
func (g *GroupUpdate) Name() string { return "group-update" }

// Type implements Construction.
func (g *GroupUpdate) Type() objtype.Type { return g.typ }

// StepBound implements Construction.
func (g *GroupUpdate) StepBound() int { return 8*log2Ceil(g.leaves) + 3 }

// Depth returns the tree height ⌈log₂ n⌉.
func (g *GroupUpdate) Depth() int { return log2Ceil(g.leaves) }

// node register index for heap node i (1 = root; leaves at L..2L−1).
func (g *GroupUpdate) node(i int) int { return g.base + i }

// leaf returns the heap index of pid's leaf.
func (g *GroupUpdate) leaf(pid int) int { return g.leaves + pid }

// checkedLeaf is leaf for a pid Invoke has not yet range-checked.
func (g *GroupUpdate) checkedLeaf(pid int) int {
	if pid < 0 || pid >= g.n {
		panic(fmt.Sprintf("universal: pid %d out of range for %d-process object", pid, g.n))
	}
	return g.leaf(pid)
}

// Invoke implements Construction.
func (g *GroupUpdate) Invoke(p machine.Port, op objtype.Op) objtype.Value {
	pid := p.ID()

	// Announce: append a fresh record to the single-writer leaf.
	leaf := g.checkedLeaf(pid)
	mine := asLog(p.Read(g.node(leaf)))
	seq := len(mine)
	rec := Record{Pid: pid, Seq: seq, Op: op}
	p.Swap(g.node(leaf), merge(mine, Log{rec}))

	// Propagate: climb from the leaf's parent to the root, trying twice at
	// each node.
	for v := leaf / 2; v >= 1; v /= 2 {
		left, right := 2*v, 2*v+1
		for attempt := 0; attempt < 2; attempt++ {
			cur := asLog(p.LL(g.node(v)))
			lv := asLog(p.Read(g.node(left)))
			rv := asLog(p.Read(g.node(right)))
			if ok, _ := p.SC(g.node(v), merge(cur, lv, rv)); ok {
				break
			}
		}
	}

	// The record is now in the root log; respond by local replay.
	root := asLog(p.Read(g.node(1)))
	return replayResponse(g.typ, g.n, root, pid, seq)
}

// log2Ceil returns ⌈log₂ v⌉ for v ≥ 1.
func log2Ceil(v int) int {
	d, x := 0, 1
	for x < v {
		x *= 2
		d++
	}
	return d
}
