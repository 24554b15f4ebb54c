package machine

import (
	"jayanti98/internal/vmachine"
)

// Compiled is an Algorithm that also carries a bytecode chunk compiled from
// the same logic as its direct-style body. Start runs a Compiled algorithm
// on the VM engine, so its body runs only where a caller wraps Run in New
// to get the goroutine reference (package lockstep does, holding every
// Compiled algorithm to step-equivalence: identical action streams given
// identical inputs). An algorithm only the VM runs may have no body at all
// (see NewHosted).
type Compiled interface {
	Algorithm
	// Chunk returns the compiled body; it must be non-nil and is shared
	// read-only across all process instances.
	Chunk() *vmachine.Chunk
}

type compiledAlgorithm struct {
	funcAlgorithm
	chunk *vmachine.Chunk
	host  any
}

func (a *compiledAlgorithm) Chunk() *vmachine.Chunk { return a.chunk }

// NewCompiled wraps a direct-style Body together with its compiled twin.
// Start runs chunk; body is the goroutine reference the twin is checked
// against (machine.New(alg.Name(), alg.Run)).
func NewCompiled(name string, body Body, chunk *vmachine.Chunk) Algorithm {
	return NewHosted(name, body, chunk, nil)
}

// NewHosted is NewCompiled for a chunk whose natives reach per-run state
// through the Exec host value (vmachine.HostE): every VM machine started
// from the algorithm binds host. A direct-style body reaches the same
// state through its closure, so both engines observe one run's state, and
// the chunk itself stays compiled once and shared. body may be nil for an
// algorithm only the VM runs; calling Run on such an algorithm panics.
func NewHosted(name string, body Body, chunk *vmachine.Chunk, host any) Algorithm {
	if chunk == nil {
		panic("machine: NewHosted with nil chunk")
	}
	return &compiledAlgorithm{
		funcAlgorithm: funcAlgorithm{name: name, body: body},
		chunk:         chunk,
		host:          host,
	}
}
