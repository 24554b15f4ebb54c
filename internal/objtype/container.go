package objtype

import "fmt"

// Operation names of the container types.
const (
	OpEnqueue = "enqueue"
	OpDequeue = "dequeue"
	OpPush    = "push"
	OpPop     = "pop"
)

// Empty is the response of a dequeue or pop on an empty container.
const Empty = "⊥empty"

// container state is a []Value treated as immutable: Apply copies on write.
type container struct {
	name string
	init func(n int) []Value
	lifo bool
}

func (t *container) Name() string { return t.name }

func (t *container) Init(n int) Value {
	items := t.init(n)
	// Copy: callers may retain the constructor slice.
	out := make([]Value, len(items))
	copy(out, items)
	return out
}

func (t *container) Apply(state Value, op Op) (Value, Value) {
	items, ok := state.([]Value)
	if !ok {
		panic(fmt.Sprintf("objtype: %s state must be []Value, got %T", t.name, state))
	}
	insert, remove := OpEnqueue, OpDequeue
	if t.lifo {
		insert, remove = OpPush, OpPop
	}
	switch op.Name {
	case insert:
		next := make([]Value, len(items)+1)
		copy(next, items)
		next[len(items)] = op.Arg
		return next, nil
	case remove:
		if len(items) == 0 {
			return items, Empty
		}
		var head Value
		var next []Value
		if t.lifo {
			head = items[len(items)-1]
			next = append([]Value(nil), items[:len(items)-1]...)
		} else {
			head = items[0]
			next = append([]Value(nil), items[1:]...)
		}
		return next, head
	default:
		errUnknownOp(t, op)
		return nil, nil // unreachable
	}
}

// NewQueue returns a FIFO queue type whose initial state is produced by
// init (front of the queue first). Theorem 6.2 uses a queue initially
// holding items 1..n with n at the rear; see NewWakeupQueue.
func NewQueue(init func(n int) []Value) Type {
	return &container{name: "queue", init: init}
}

// NewStack returns a LIFO stack type whose initial state is produced by
// init (bottom of the stack first).
func NewStack(init func(n int) []Value) Type {
	return &container{name: "stack", init: init, lifo: true}
}

// NewEmptyQueue returns a queue that starts empty.
func NewEmptyQueue() Type {
	return NewQueue(func(int) []Value { return nil })
}

// NewWakeupQueue returns the queue of Theorem 6.2's wakeup reduction:
// initially holding 1, 2, ..., n with n at the rear, so the process that
// dequeues n knows all n dequeues are underway.
func NewWakeupQueue() Type {
	return NewQueue(func(n int) []Value {
		items := make([]Value, n)
		for i := range items {
			items[i] = i + 1
		}
		return items
	})
}

// NewWakeupStack returns the stack analogue: initially holding n items with
// the distinguished item n at the bottom, so the process that pops the
// bottom item knows all n pops are underway.
func NewWakeupStack() Type {
	return NewStack(func(n int) []Value {
		items := make([]Value, n)
		items[0] = n // bottom
		for i := 1; i < n; i++ {
			items[i] = n - i
		}
		return items
	})
}
