package objtype

import "fmt"

// OpTestAndSet is the single operation of the test&set type.
const OpTestAndSet = "test&set"

// tasObject is the one-shot test&set object of the related-work algorithms
// (Tromp–Vitányi, Giakkoupis–Woelfel): the state is 0 (unset) or 1 (set);
// test&set sets it and returns the previous state. In any linearization the
// first operation returns 0 ("wins") and every later one returns 1
// ("loses"), so a concurrent history is linearizable exactly when it has at
// most one winner and no completed loser that precedes the winner in real
// time.
//
// TAS is *not* perturbable in the paper's sense — once the state is 1 no
// suffix of operations changes any future response — so Theorem 6.1 does
// not apply to it directly; the wakeup reduction (wakeup.TASReduction)
// only goes through at n = 2. See DESIGN §15.
type tasObject struct{}

func (tasObject) Name() string   { return "test&set" }
func (tasObject) Init(int) Value { return 0 }

func (t tasObject) Apply(state Value, op Op) (Value, Value) {
	s, ok := state.(int)
	if !ok {
		panic(fmt.Sprintf("objtype: %s state must be an int, got %T", t.Name(), state))
	}
	switch op.Name {
	case OpTestAndSet:
		return 1, s
	case OpRead:
		return s, s
	default:
		errUnknownOp(t, op)
		return nil, nil // unreachable
	}
}

// NewTAS returns the one-shot test&set type.
func NewTAS() Type { return tasObject{} }
