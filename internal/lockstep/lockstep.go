// Package lockstep is the differential-testing harness that proves the two
// machine engines equivalent: it runs a goroutine-engine fleet of a
// compiled algorithm's direct-style body and a VM-engine fleet of its
// chunk over the same schedule, against two independent shared memories,
// and asserts after every single step that everything observable matches
// — pending actions, memory responses, history digests, step and toss
// counts, register-file fingerprints, terminal status and return values.
//
// The harness runs in three modes: Run replays one explicit schedule
// (driven directly by tests and by the FuzzVMEquivalence fuzz target);
// Exhaustive explores every schedule of a system up to memoized state
// equality (run at n ∈ {2, 3} for every compiled construction); and the
// race stress test steps many independent pairs concurrently to prove
// compiled chunks are safely shared read-only.
//
// Equivalence here is the operational form of the statement that an
// Algorithm and its compiled chunk denote the same process automaton: if
// the two engines emitted different actions anywhere, the adversary of
// Section 5 could distinguish them, and every theorem measured on one
// engine would be meaningless on the other.
package lockstep

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"jayanti98/internal/machine"
	"jayanti98/internal/shmem"
)

// Mismatch reports the first observable divergence between the two engines.
type Mismatch struct {
	Alg   string // algorithm name
	N     int    // system size
	Pid   int    // process being stepped when the divergence surfaced
	Step  int    // 0-based index into the schedule
	Field string // what diverged ("action", "response", "digest", ...)
	Goro  string // goroutine-engine observation
	VM    string // vm-engine observation
}

func (e *Mismatch) Error() string {
	return fmt.Sprintf("lockstep: %s n=%d: step %d (pid %d): %s diverged:\n  goroutine: %s\n  vm:        %s",
		e.Alg, e.N, e.Step, e.Pid, e.Field, e.Goro, e.VM)
}

// Pair is a goroutine-engine fleet and a VM-engine fleet of the same
// algorithm, advanced in lockstep. Always Close a Pair.
type Pair struct {
	alg  machine.Algorithm
	n    int
	gms  []*machine.Machine
	vms  []*machine.Machine
	gmem *shmem.Memory
	vmem *shmem.Memory
	step int
}

// NewPair starts both fleets: the VM fleet runs alg itself, and the
// goroutine fleet runs its body wrapped as a plain algorithm
// (machine.New). The algorithm must be compiled (machine.Compiled);
// otherwise both fleets would run the same body and the comparison would
// be vacuous.
func NewPair(alg machine.Algorithm, n int) (*Pair, error) {
	if _, ok := alg.(machine.Compiled); !ok {
		return nil, fmt.Errorf("lockstep: %s is not a compiled algorithm", alg.Name())
	}
	p := &Pair{
		alg:  alg,
		n:    n,
		gms:  machine.StartAll(machine.New(alg.Name(), alg.Run), n),
		vms:  machine.StartAll(alg, n),
		gmem: shmem.New(),
		vmem: shmem.New(),
	}
	return p, nil
}

// Close releases both fleets.
func (p *Pair) Close() {
	machine.CloseAll(p.gms)
	machine.CloseAll(p.vms)
}

// Memories exposes the two register files (goroutine-fleet, VM-fleet) so
// tests can interleave external mutations — the adversary's RMW of
// Section 7 — on both sides identically.
func (p *Pair) Memories() (goro, vm *shmem.Memory) { return p.gmem, p.vmem }

// Terminal reports whether process pid has returned or crashed (the two
// fleets are step-identical, so asking either is asking both).
func (p *Pair) Terminal(pid int) bool {
	return p.gms[pid].Terminated() || p.gms[pid].Crashed() != nil
}

// AllTerminal reports whether every process has returned or crashed.
func (p *Pair) AllTerminal() bool {
	for pid := 0; pid < p.n; pid++ {
		if !p.Terminal(pid) {
			return false
		}
	}
	return true
}

func (p *Pair) mismatch(pid int, field, goro, vm string) error {
	return &Mismatch{Alg: p.alg.Name(), N: p.n, Pid: pid, Step: p.step, Field: field, Goro: goro, VM: vm}
}

// Step advances process pid one step in both fleets, verifying every
// observable along the way. Stepping a terminal process verifies terminal
// agreement and reports advanced=false.
func (p *Pair) Step(pid int, toss machine.TossAssignment) (advanced bool, err error) {
	gm, vm := p.gms[pid], p.vms[pid]
	ga, va := gm.Peek(), vm.Peek()
	if ga.Kind != va.Kind {
		return false, p.mismatch(pid, "action kind", ga.Kind.String(), va.Kind.String())
	}
	switch ga.Kind {
	case machine.ActToss:
		outcome := toss(pid, gm.NumTosses())
		gm.DeliverToss(outcome)
		vm.DeliverToss(outcome)
	case machine.ActOp:
		if ga.Op.String() != va.Op.String() || !shmem.ValuesEqual(ga.Op.Arg, va.Op.Arg) {
			return false, p.mismatch(pid, "operation", ga.Op.String(), va.Op.String())
		}
		gr := p.gmem.Apply(pid, ga.Op)
		vr := p.vmem.Apply(pid, va.Op)
		if gr.OK != vr.OK || !shmem.ValuesEqual(gr.Val, vr.Val) {
			return false, p.mismatch(pid, "response", gr.String(), vr.String())
		}
		gm.DeliverOpResponse(gr)
		vm.DeliverOpResponse(vr)
	case machine.ActReturn, machine.ActCrash:
		if err := p.verifyTerminal(pid); err != nil {
			return false, err
		}
		return false, p.verifyState(pid)
	}
	p.step++
	// Settle: peek the next action on both sides. This absorbs a final
	// return/crash into the machines' terminal state (so Terminal is
	// accurate immediately after the step) and pins the next pending
	// action kind while we are at it.
	if gn, vn := gm.Peek(), vm.Peek(); gn.Kind != vn.Kind {
		return true, p.mismatch(pid, "post-step action kind", gn.Kind.String(), vn.Kind.String())
	}
	return true, p.verifyState(pid)
}

// verifyState compares every per-process observable and the two register
// files after a step of pid.
func (p *Pair) verifyState(pid int) error {
	for q := 0; q < p.n; q++ {
		gm, vm := p.gms[q], p.vms[q]
		if g, v := gm.HistoryKey(), vm.HistoryKey(); g != v {
			return p.mismatch(q, "history digest", g, v)
		}
		if g, v := gm.Steps(), vm.Steps(); g != v {
			return p.mismatch(q, "step count", fmt.Sprint(g), fmt.Sprint(v))
		}
		if g, v := gm.NumTosses(), vm.NumTosses(); g != v {
			return p.mismatch(q, "toss count", fmt.Sprint(g), fmt.Sprint(v))
		}
	}
	gfp := p.gmem.AppendFingerprint(nil)
	vfp := p.vmem.AppendFingerprint(nil)
	if !bytes.Equal(gfp, vfp) {
		return p.mismatch(pid, "register file", fmt.Sprintf("%x", gfp), fmt.Sprintf("%x", vfp))
	}
	return p.verifyTerminal(pid)
}

// verifyTerminal compares terminal status, return values and crash messages
// for process pid.
func (p *Pair) verifyTerminal(pid int) error {
	gm, vm := p.gms[pid], p.vms[pid]
	if g, v := gm.Terminated(), vm.Terminated(); g != v {
		return p.mismatch(pid, "terminated", fmt.Sprint(g), fmt.Sprint(v))
	}
	gc, vc := gm.Crashed(), vm.Crashed()
	if (gc == nil) != (vc == nil) || (gc != nil && gc.Error() != vc.Error()) {
		return p.mismatch(pid, "crash", fmt.Sprint(gc), fmt.Sprint(vc))
	}
	if gm.Terminated() {
		if g, v := gm.ReturnValue(), vm.ReturnValue(); !shmem.ValuesEqual(g, v) {
			return p.mismatch(pid, "return value", fmt.Sprintf("%T(%v)", g, g), fmt.Sprintf("%T(%v)", v, v))
		}
	}
	return nil
}

// StateKey returns a compact binary key of the pair's product state:
// per-process history digests and toss counts plus the register-file
// fingerprint. Step verification has already pinned the VM side to the
// goroutine side, so the key only encodes the reference fleet. Exhaustive
// uses it to prune revisited states.
func (p *Pair) StateKey() string {
	var b []byte
	for _, m := range p.gms {
		ev, sum, _ := m.HistoryDigest()
		b = binary.AppendUvarint(b, uint64(ev))
		b = binary.LittleEndian.AppendUint64(b, sum)
		b = binary.AppendUvarint(b, uint64(m.NumTosses()))
	}
	return string(p.gmem.AppendFingerprint(b))
}

// Run replays one schedule from a fresh pair: schedule[i] is the pid to
// step at time i; steps aimed at terminal processes verify terminal
// agreement and are otherwise skipped. It returns the number of steps that
// actually advanced and the first divergence, if any.
func Run(alg machine.Algorithm, n int, schedule []int, toss machine.TossAssignment) (steps int, err error) {
	p, err := NewPair(alg, n)
	if err != nil {
		return 0, err
	}
	defer p.Close()
	for _, pid := range schedule {
		if pid < 0 || pid >= n {
			return steps, fmt.Errorf("lockstep: schedule pid %d out of range [0,%d)", pid, n)
		}
		advanced, err := p.Step(pid, toss)
		if err != nil {
			return steps, err
		}
		if advanced {
			steps++
		}
	}
	return steps, nil
}
