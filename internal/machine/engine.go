package machine

import (
	"fmt"
	"os"
	"sync/atomic"

	"jayanti98/internal/vmachine"
)

// Engine selects how a Machine executes its algorithm.
type Engine int32

const (
	// EngineAuto picks the VM engine when the algorithm carries a compiled
	// chunk (see Compiled) and the goroutine engine otherwise. This is the
	// default: compiled algorithms are proven step-equivalent to their
	// direct-style bodies by package lockstep, so auto is safe everywhere.
	EngineAuto Engine = iota
	// EngineGoroutine forces the direct-style goroutine engine.
	EngineGoroutine
	// EngineVM requests the bytecode engine. Algorithms without a compiled
	// chunk still fall back to the goroutine engine — every scheduler runs
	// unchanged under every Engine value.
	EngineVM
)

// String names the engine (the same spellings ParseEngine accepts).
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineGoroutine:
		return "goroutine"
	case EngineVM:
		return "vm"
	default:
		return fmt.Sprintf("Engine(%d)", int32(e))
	}
}

// ParseEngine parses an engine name as used by the -engine flag of the
// cmd/ tools and the LB_ENGINE environment variable.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "auto":
		return EngineAuto, nil
	case "goroutine", "go", "interp":
		return EngineGoroutine, nil
	case "vm", "bytecode":
		return EngineVM, nil
	default:
		return EngineAuto, fmt.Errorf("machine: unknown engine %q (want auto, goroutine or vm)", s)
	}
}

// defaultEngine is the process-wide engine used by Start/StartAll, stored
// atomically so tests can flip it around sections without racing other
// goroutines' reads.
var defaultEngine atomic.Int32

func init() {
	if s := os.Getenv("LB_ENGINE"); s != "" {
		e, err := ParseEngine(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "machine: ignoring LB_ENGINE: %v\n", err)
			return
		}
		defaultEngine.Store(int32(e))
	}
}

// DefaultEngine returns the process-wide default engine. It starts as
// EngineAuto, overridable by the LB_ENGINE environment variable (auto,
// goroutine, vm).
func DefaultEngine() Engine { return Engine(defaultEngine.Load()) }

// SetDefaultEngine sets the process-wide default engine and returns the
// previous value, for defer-restore in tests:
//
//	prev := machine.SetDefaultEngine(machine.EngineVM)
//	defer machine.SetDefaultEngine(prev)
func SetDefaultEngine(e Engine) (prev Engine) {
	return Engine(defaultEngine.Swap(int32(e)))
}

// Compiled is an Algorithm that also carries a bytecode chunk compiled from
// the same logic as its direct-style body. The two must be step-equivalent:
// identical action streams given identical inputs. Package lockstep holds
// every Compiled algorithm to that contract.
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
// The goroutine engine runs body; the VM engine runs chunk; which one a
// Machine uses is an Engine decision invisible to schedulers.
func NewCompiled(name string, body Body, chunk *vmachine.Chunk) Algorithm {
	return NewHosted(name, body, chunk, nil)
}

// NewHosted is NewCompiled for a chunk whose natives reach per-run state
// through the Exec host value (vmachine.HostE): every VM machine started
// from the algorithm binds host. The direct-style body reaches the same
// state through its closure, so both engines observe one run's state, and
// the chunk itself stays compiled once and shared.
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

// StartEngine launches process id of n running alg under an explicit
// engine, overriding the process-wide default for this machine only.
func StartEngine(alg Algorithm, id, n int, eng Engine) *Machine {
	m := &Machine{id: id, alg: alg, dig: newDigest()}
	var chunk *vmachine.Chunk
	if eng != EngineGoroutine {
		if c, ok := alg.(Compiled); ok {
			chunk = c.Chunk()
		}
	}
	if chunk != nil {
		var host any
		if ca, ok := alg.(*compiledAlgorithm); ok {
			host = ca.host
		}
		m.drv = startVMDriver(chunk, id, n, host)
		m.engine = "vm"
	} else {
		m.drv = startGoDriver(alg, id, n)
		m.engine = "goroutine"
	}
	return m
}
