//go:build mutation

package universal

import (
	"jayanti98/internal/machine"
	"jayanti98/internal/objtype"
)

// MutantAvailable reports whether the deliberately broken construction is
// compiled in (true under -tags mutation).
const MutantAvailable = true

// NewBrokenGroupUpdate returns a GroupUpdate variant with a seeded
// merge-order bug, used to prove the schedule-exploration harness (package
// explore) actually detects real linearizability violations.
//
// The bug: at each internal node the correct construction computes
// merge(cur, lv, rv) — the node's current log extended with the children's
// records — so that records whose order is already committed in the node
// keep their positions. The mutant computes merge(lv, rv, cur) instead,
// letting a freshly read left-child log reorder records ahead of ones the
// node already committed. The mistake is schedule-dependent: solo and
// lockstep round-robin executions still linearize (which is why ordinary
// unit tests miss it), but any schedule in which one process's record is
// committed at a node before a left-sibling's propagation rewrites it
// yields, e.g., duplicate fetch&increment tickets.
func NewBrokenGroupUpdate(typ objtype.Type, n, base int) (Construction, error) {
	return &brokenGroupUpdate{GroupUpdate: *NewGroupUpdate(typ, n, base)}, nil
}

type brokenGroupUpdate struct {
	GroupUpdate
}

// Name implements Construction.
func (g *brokenGroupUpdate) Name() string { return "group-update-broken" }

// Invoke implements Construction: identical to GroupUpdate.Invoke except
// for the argument order of the merge at internal nodes. Its compiled twin
// is InvokeStmts("group-update-broken", …), the Group-Update twin with the
// same merge order.
func (g *brokenGroupUpdate) Invoke(p machine.Port, op objtype.Op) objtype.Value {
	pid := p.ID()
	leaf := g.checkedLeaf(pid)
	mine := asLog(p.Read(g.node(leaf)))
	seq := len(mine)
	rec := Record{Pid: pid, Seq: seq, Op: op}
	p.Swap(g.node(leaf), merge(mine, Log{rec}))

	for v := leaf / 2; v >= 1; v /= 2 {
		left, right := 2*v, 2*v+1
		for attempt := 0; attempt < 2; attempt++ {
			cur := asLog(p.LL(g.node(v)))
			lv := asLog(p.Read(g.node(left)))
			rv := asLog(p.Read(g.node(right)))
			// BUG (deliberate): base must be cur, so the node's committed
			// order is preserved; basing on lv lets it be rewritten.
			if ok, _ := p.SC(g.node(v), merge(lv, rv, cur)); ok {
				break
			}
		}
	}

	root := asLog(p.Read(g.node(1)))
	return replayResponse(g.typ, g.n, root, pid, seq)
}
