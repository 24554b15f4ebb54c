package machine

import (
	"jayanti98/internal/shmem"
	"jayanti98/internal/vmachine"
)

// vmDriver is the bytecode engine: the process is a vmachine.Exec stepped
// in-line on the scheduler's goroutine. No goroutine, no channels — next()
// reads the yield the last resume produced, and resume calls run the chunk
// synchronously to its next yield point. The Machine above this driver does
// all recording, so a VM machine's digests, counts and terminal state are
// computed by exactly the same code as a goroutine machine's.
type vmDriver struct {
	x *vmachine.Exec
	// queued holds the yield produced by the last resume (or Start), not
	// yet consumed by next(). hasQueued is false both before the first
	// next() and while an action is pending with the scheduler.
	queued    vmachine.Yield
	hasQueued bool
}

func startVMDriver(chunk *vmachine.Chunk, id, n int, host any) *vmDriver {
	x := vmachine.NewExec(chunk, id, n)
	x.SetHost(host)
	return &vmDriver{x: x}
}

// fork copies the driver: a cloned Exec bound to host, and the queued
// yield (immutable once produced).
func (d *vmDriver) fork(host any) *vmDriver {
	x := d.x.Clone()
	x.SetHost(host)
	return &vmDriver{x: x, queued: d.queued, hasQueued: d.hasQueued}
}

func actionOf(y vmachine.Yield) Action {
	switch y.Kind {
	case vmachine.YToss:
		return Action{Kind: ActToss}
	case vmachine.YOp:
		return Action{Kind: ActOp, Op: y.Op}
	case vmachine.YReturn:
		return Action{Kind: ActReturn, Ret: y.Ret}
	default:
		return Action{Kind: ActCrash, Ret: y.Ret}
	}
}

func (d *vmDriver) next() Action {
	if d.hasQueued {
		d.hasQueued = false
		return actionOf(d.queued)
	}
	return actionOf(d.x.Start())
}

func (d *vmDriver) toss(outcome int64) {
	d.queued = d.x.ResumeToss(outcome)
	d.hasQueued = true
}

func (d *vmDriver) resp(r shmem.Response) {
	d.queued = d.x.ResumeOp(r)
	d.hasQueued = true
}

func (d *vmDriver) close() {}

// reset restores the Exec to the state NewExec gave it, keeping its host,
// and drops the queued yield.
func (d *vmDriver) reset() {
	d.x.Restore(vmachine.State{})
	d.queued, d.hasQueued = vmachine.Yield{}, false
}

// Reset puts a VM machine back in the state Start gave it: its Exec at pc
// 0 with zero locals and still bound to its host, no pending action, not
// terminated, no steps or tosses and an empty history digest. Whether it
// keeps history (DisableHistory) is unchanged. Stepped along the same
// inputs as a freshly started machine, a reset one reports the same
// actions, counts and digests, so a caller that runs one algorithm many
// times can keep its machines instead of starting new ones. Reset reports
// false and changes nothing for a goroutine machine, as Fork does: a body
// parked mid-call on its goroutine cannot be rewound.
func (m *Machine) Reset() bool {
	d, ok := m.drv.(*vmDriver)
	if !ok {
		return false
	}
	d.reset()
	*m = Machine{
		id:        m.id,
		drv:       d,
		engine:    m.engine,
		dig:       digest{sum: fnvOffset64, scratch: m.dig.scratch},
		noHistory: m.noHistory,
	}
	return true
}
