package universal

import (
	"jayanti98/internal/machine"
	"jayanti98/internal/objtype"
)

// Central is the simplest correct construction: the entire linearization
// log lives in a single register and every operation is an LL/SC retry
// loop. It is linearizable and lock-free — a failed SC implies some other
// operation's SC succeeded — but NOT wait-free: a process can starve for as
// long as others keep succeeding, so StepBound reports 0. Under the
// adversary's lockstep rounds a single operation by the unluckiest process
// costs Θ(n) steps (one competitor succeeds per round).
//
// The construction is oblivious: the type is used only inside replay.
type Central struct {
	typ  objtype.Type
	n    int
	base int
}

var _ Construction = (*Central)(nil)

// NewCentral instantiates the construction for an n-process object of the
// given type, occupying the single register base.
func NewCentral(typ objtype.Type, n, base int) *Central {
	return &Central{typ: typ, n: n, base: base}
}

// Name implements Construction.
func (c *Central) Name() string { return "central" }

// Type implements Construction.
func (c *Central) Type() objtype.Type { return c.typ }

// StepBound implements Construction: 0 means not wait-free.
func (c *Central) StepBound() int { return 0 }

// Invoke implements Construction.
func (c *Central) Invoke(p machine.Port, op objtype.Op) objtype.Value {
	pid := p.ID()
	for attempt := 0; ; attempt++ {
		cur := asLog(p.LL(c.base))
		seq := nextSeq(cur, pid)
		next := merge(cur, Log{{Pid: pid, Seq: seq, Op: op}})
		if ok, _ := p.SC(c.base, next); ok {
			return replayResponse(c.typ, c.n, next, pid, seq)
		}
	}
}

// nextSeq returns one past the largest sequence number pid has in the log.
func nextSeq(l Log, pid int) int {
	seq := 0
	for _, r := range l {
		if r.Pid == pid && r.Seq >= seq {
			seq = r.Seq + 1
		}
	}
	return seq
}
