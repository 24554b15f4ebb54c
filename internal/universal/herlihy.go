package universal

import (
	"jayanti98/internal/machine"
	"jayanti98/internal/objtype"
)

// Herlihy is the classic announce-and-help universal construction, restated
// on unbounded LL/SC registers: one main register holds the full
// linearization log; each process additionally owns an announce register.
// To perform an operation a process announces it, then repeatedly tries to
// extend the main log — helping along every announced-but-unapplied
// operation it can see — until its own record is in the log.
//
// Scanning the n announce registers makes every attempt cost n+2 shared
// accesses, and the try-twice argument (see GroupUpdate) bounds the number
// of attempts by 2 plus a final read: if both of a process's SCs fail, the
// second successful competitor scanned the announce registers after the
// process's announcement and therefore already helped it. Worst case:
// 2 announce steps + 2·(n+2) + 1 = 2n + 7 shared accesses — the Θ(n)
// baseline that the paper's introduction contrasts with sublogarithmic
// hand-crafted implementations.
//
// The construction is oblivious: the type is used only inside replay.
type Herlihy struct {
	typ  objtype.Type
	n    int
	base int
}

var _ Construction = (*Herlihy)(nil)

// NewHerlihy instantiates the construction for an n-process object of the
// given type, occupying registers [base, base+1+n): the main register and
// n announce registers.
func NewHerlihy(typ objtype.Type, n, base int) *Herlihy {
	return &Herlihy{typ: typ, n: n, base: base}
}

// Name implements Construction.
func (h *Herlihy) Name() string { return "herlihy" }

// Type implements Construction.
func (h *Herlihy) Type() objtype.Type { return h.typ }

// StepBound implements Construction.
func (h *Herlihy) StepBound() int { return 2*(h.n+2) + 3 }

func (h *Herlihy) main() int            { return h.base }
func (h *Herlihy) announce(pid int) int { return h.base + 1 + pid }

// Invoke implements Construction.
func (h *Herlihy) Invoke(p machine.Port, op objtype.Op) objtype.Value {
	pid := p.ID()

	// Announce: append a fresh record to the single-writer announce
	// register.
	mine := asLog(p.Read(h.announce(pid)))
	seq := len(mine)
	rec := Record{Pid: pid, Seq: seq, Op: op}
	p.Swap(h.announce(pid), merge(mine, Log{rec}))

	// Help until our record is applied: at most two attempts are needed.
	for attempt := 0; attempt < 2; attempt++ {
		cur := asLog(p.LL(h.main()))
		if cur.Contains(pid, seq) {
			break
		}
		announced := make([]Log, 0, h.n)
		for q := 0; q < h.n; q++ {
			announced = append(announced, asLog(p.Read(h.announce(q))))
		}
		if ok, _ := p.SC(h.main(), merge(cur, announced...)); ok {
			break
		}
	}

	log := asLog(p.Read(h.main()))
	return replayResponse(h.typ, h.n, log, pid, seq)
}
