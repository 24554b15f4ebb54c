package objtype

import "fmt"

// Operation names of the register-like types.
const (
	OpRead      = "read"
	OpIncrement = "increment"
)

// readIncrement is the k-bit object of Theorem 6.2 item 4: increment adds 1
// to the state and returns only an acknowledgement (nil); read returns the
// state. Because detecting "everyone is up" through it takes two operations
// (increment then read), its lower bound is halved: (log₄ n)/2 per op.
type readIncrement struct {
	k int
}

func (t *readIncrement) Name() string { return fmt.Sprintf("read/increment(%d)", t.k) }
func (t *readIncrement) Init(int) Value {
	return HexUint(0)
}

func (t *readIncrement) Apply(state Value, op Op) (Value, Value) {
	s, ok := state.(string)
	if !ok {
		panic(fmt.Sprintf("objtype: %s state must be a hex string, got %T", t.Name(), state))
	}
	switch op.Name {
	case OpRead:
		return s, s
	case OpIncrement:
		v := ParseHex(s)
		v.Add(v, one())
		v.Mod(v, pow2(t.k))
		return Hex(v), nil
	default:
		errUnknownOp(t, op)
		return nil, nil // unreachable
	}
}

// NewReadIncrement returns the k-bit read/increment counter of Theorem 6.2.
// Wakeup needs k ≥ log₂ n (the paper's statement of k ≥ n is a typo carried
// from the previous item; the counter only ever reaches n).
func NewReadIncrement(k int) Type { return &readIncrement{k: k} }
