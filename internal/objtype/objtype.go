// Package objtype defines sequential specifications of shared object types.
//
// A Type is a sequential state machine: an initial state plus a transition
// function Apply(state, op) → (state', response). Universal constructions
// (package universal) are instantiated with a Type to obtain a wait-free
// linearizable shared object of that type; they are *oblivious* — they use
// the Type only through this interface, never its semantics — which is
// exactly the class of constructions the paper's lower bound applies to.
//
// The package implements every type named in Theorem 6.2 — k-bit
// fetch&increment, fetch&and, fetch&or, fetch&complement, fetch&multiply,
// queue, stack, and the read/increment counter — plus test&set, the
// algorithm zoo's object.
//
// States and responses are shmem.Values and must be immutable; numeric
// states are canonical lowercase-hex strings so that structural equality,
// formatting, and history keys are all stable.
package objtype

import (
	"fmt"

	"jayanti98/internal/shmem"
)

// Value aliases shmem.Value: object states, operation arguments and
// responses all travel through shared registers.
type Value = shmem.Value

// Op is one operation instance on an object: an operation name from the
// type's repertoire plus an optional argument.
type Op struct {
	Name string
	Arg  Value
}

// String renders the op invocation.
func (o Op) String() string {
	if o.Arg == nil {
		return o.Name + "()"
	}
	return fmt.Sprintf("%s(%v)", o.Name, o.Arg)
}

// Type is a sequential object specification.
type Type interface {
	// Name identifies the type, e.g. "fetch&increment(8)".
	Name() string
	// Init returns the initial state for an n-process system.
	Init(n int) Value
	// Apply performs op on state, returning the new state and the
	// operation's response. Apply must be pure: it must not modify state
	// and must return a fresh (or immutable) new state.
	Apply(state Value, op Op) (newState, response Value)
}

// Replay applies a log of operations to the type's initial state and
// returns the final state and the per-operation responses. It is the
// linearization engine used by universal constructions and checkers.
func Replay(t Type, n int, log []Op) (final Value, responses []Value) {
	state := t.Init(n)
	responses = make([]Value, len(log))
	for i, op := range log {
		state, responses[i] = t.Apply(state, op)
	}
	return state, responses
}

// errUnknownOp panics with a uniform message; applying an operation a type
// does not support is a programming error, not a runtime condition.
func errUnknownOp(t Type, op Op) {
	panic(fmt.Sprintf("objtype: type %s does not support operation %q", t.Name(), op.Name))
}
