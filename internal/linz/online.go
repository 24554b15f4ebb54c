// Online incremental linearizability checking, in the style of Lowe's
// just-in-time linearization: instead of checking a completed history
// post-hoc (Check), an Online checker consumes invoke/return events as
// they happen and maintains the set of all "configurations" — pairs of
// (sequential object state, set of pending operations already linearized
// with their forced responses) — consistent with the events so far.
//
// The config set is a pure function of the event sequence, so it serves
// two purposes for the schedule-exploration harness (package explore):
//
//  1. Early, exact detection: the history seen so far is linearizable
//     iff the config set is non-empty, so a violation is flagged at the
//     precise return event that makes the history inconsistent — no need
//     to run the schedule to completion.
//
//  2. Sound state memoization: two schedule prefixes that agree on
//     machine states and memory contents can still differ in which
//     real-time orders their histories admit. The canonical Key of the
//     config set captures exactly that residue, so folding it into a
//     memoization key makes pruning complete for linearizability: equal
//     keys (together with equal machine histories and memory) imply that
//     every schedule suffix produces a violation from one prefix iff it
//     does from the other.
//
// Because the next config set is a pure function of the current set, the
// pending operations and the event, the checkers of one search share that
// work through a Memo: every set is interned once under its Key, and every
// (set, pending ops, event) transition is computed once and then answered
// by one map lookup. An exhaustive search replays the same prefixes many
// times, so most of its events are such lookups.
package linz

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

	"jayanti98/internal/objtype"
	"jayanti98/internal/shmem"
)

// onlineConfigCap bounds the config set; exceeding it reports an error
// rather than silently degrading. With p pending operations the set holds
// at most (p+1)! configurations over distinct states, so small-n
// exploration (the intended use) stays far below the cap.
const onlineConfigCap = 1 << 16

// Online is an incremental linearizability checker for one concurrent
// object. Feed it Invoke/Return events in the real-time order they occur;
// Ok reports whether the history so far is linearizable. An event that
// returns an error leaves the checker unchanged. Not safe for concurrent
// use.
type Online struct {
	memo      *Memo
	set       *configSet
	pending   []pendingOp // outstanding ops, sorted by proc
	events    int
	violation string
}

// pendingOp is one process's outstanding operation.
type pendingOp struct {
	proc int
	op   objtype.Op
}

// onlineConfig is one consistent hypothesis: the sequential state after
// the operations linearized so far, plus the pending operations among
// them with the responses the specification forced at their
// linearization points.
type onlineConfig struct {
	state objtype.Value
	lin   map[int]objtype.Value
}

// appendConfig appends a config's canonical rendering to dst: fmt's %v
// of the state, then "|p<proc>=" and fmt's %v of the forced response for
// each linearized proc in increasing order. The config's lin is lin plus,
// when add is set, extra ↦ v (extra not in lin). Rendering goes through
// shmem.AppendFmt, which writes fmt's bytes without fmt for the common
// value types, and procs is sorting scratch.
func appendConfig(dst []byte, procs *[]int, state objtype.Value, lin map[int]objtype.Value, add bool, extra int, v objtype.Value) []byte {
	ps := (*procs)[:0]
	for p := range lin {
		ps = append(ps, p)
	}
	if add {
		ps = append(ps, extra)
	}
	slices.Sort(ps)
	*procs = ps
	dst = shmem.AppendFmt(dst, state)
	for _, p := range ps {
		dst = append(dst, "|p"...)
		dst = strconv.AppendInt(dst, int64(p), 10)
		dst = append(dst, '=')
		if add && p == extra {
			dst = shmem.AppendFmt(dst, v)
		} else {
			dst = shmem.AppendFmt(dst, lin[p])
		}
	}
	return dst
}

// configSet is one interned config set. Once interned it is immutable:
// every checker on the memo that reaches the same Key shares it.
type configSet struct {
	id      uint64
	key     string                  // canonical Key, built once
	configs map[string]onlineConfig // rendered config → config
}

// Memo shares config sets and transitions among the Online checkers it
// creates. Checkers on one memo must check the same type at the same
// process count, which NewMemo fixes. A memo only grows; scope it to one
// search (an exhaustive branch, a fuzz call) rather than to a process.
// Not safe for concurrent use: neither it nor its checkers may be used
// from two goroutines at once.
type Memo struct {
	typ   objtype.Type
	limit int                   // config-set cap (onlineConfigCap)
	sets  map[string]*configSet // by canonical Key
	next  map[string]*configSet // transition key → successor set
	init  *configSet

	// Scratch of the transition key and of config renderings.
	buf    []byte
	cfgBuf []byte
	procs  []int
}

// NewMemo creates an empty memo for n-process objects of the given type.
func NewMemo(typ objtype.Type, n int) *Memo {
	return newMemo(typ, n, onlineConfigCap)
}

func newMemo(typ objtype.Type, n, limit int) *Memo {
	m := &Memo{
		typ:   typ,
		limit: limit,
		sets:  make(map[string]*configSet),
		next:  make(map[string]*configSet),
	}
	init := onlineConfig{state: typ.Init(n), lin: map[int]objtype.Value{}}
	m.init = m.intern(map[string]onlineConfig{m.render(init): init})
	return m
}

// NewOnline creates a checker for an n-process object of the given type,
// on a private memo.
func NewOnline(typ objtype.Type, n int) *Online {
	return NewMemo(typ, n).NewOnline()
}

// NewOnline creates a checker, at the empty history, that shares the
// memo's sets and transitions.
func (m *Memo) NewOnline() *Online {
	return &Online{memo: m, set: m.init}
}

// render returns c's canonical rendering.
func (m *Memo) render(c onlineConfig) string {
	m.cfgBuf = appendConfig(m.cfgBuf[:0], &m.procs, c.state, c.lin, false, 0, nil)
	return string(m.cfgBuf)
}

// intern returns the memo's set with the configs' canonical key, adding
// configs as that set if it is new.
func (m *Memo) intern(configs map[string]onlineConfig) *configSet {
	keys := make([]string, 0, len(configs))
	for k := range configs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	key := strings.Join(keys, "&")
	if s, ok := m.sets[key]; ok {
		return s
	}
	s := &configSet{id: uint64(len(m.sets)), key: key, configs: configs}
	m.sets[key] = s
	return s
}

// Transition-key tags. The key is the injective binary encoding of the
// event kind, the current set's id, the event's proc and payload (the
// invoked op, or the returned value), and the pending ops before the
// event.
const (
	transInvoke byte = iota + 1
	transReturn
)

// Value tags of the transition key. Only these dynamic types are encoded;
// for them encoding equality is exactly shmem.ValuesEqual, so a cached
// transition is the one the event would compute. An event involving any
// other value is computed afresh every time.
const (
	keyNil byte = iota
	keyInt
	keyInt64
	keyBool
	keyString
)

func appendValueKey(dst []byte, v objtype.Value) ([]byte, bool) {
	switch x := v.(type) {
	case nil:
		return append(dst, keyNil), true
	case int:
		return binary.AppendVarint(append(dst, keyInt), int64(x)), true
	case int64:
		return binary.AppendVarint(append(dst, keyInt64), x), true
	case bool:
		if x {
			return append(dst, keyBool, 1), true
		}
		return append(dst, keyBool, 0), true
	case string:
		dst = binary.AppendUvarint(append(dst, keyString), uint64(len(x)))
		return append(dst, x...), true
	}
	return dst, false
}

func appendOpKey(dst []byte, op objtype.Op) ([]byte, bool) {
	dst = binary.AppendUvarint(dst, uint64(len(op.Name)))
	dst = append(dst, op.Name...)
	return appendValueKey(dst, op.Arg)
}

// transKey encodes one transition into m.buf; ok is false when a value in
// it has no key encoding.
func (m *Memo) transKey(tag byte, from *configSet, pending []pendingOp, proc int, op objtype.Op, resp objtype.Value) (key []byte, ok bool) {
	b := append(m.buf[:0], tag)
	b = binary.AppendUvarint(b, from.id)
	b = binary.AppendVarint(b, int64(proc))
	if tag == transInvoke {
		b, ok = appendOpKey(b, op)
	} else {
		b, ok = appendValueKey(b, resp)
	}
	b = binary.AppendUvarint(b, uint64(len(pending)))
	for _, p := range pending {
		if !ok {
			break
		}
		b = binary.AppendVarint(b, int64(p.proc))
		b, ok = appendOpKey(b, p.op)
	}
	m.buf = b
	return b, ok
}

// step returns the set that follows from by the event: proc invoking op
// (tag transInvoke), or proc's outstanding op (op) returning resp. pending
// holds the outstanding ops before the event.
func (m *Memo) step(tag byte, from *configSet, pending []pendingOp, proc int, op objtype.Op, resp objtype.Value) (*configSet, error) {
	key, cacheable := m.transKey(tag, from, pending, proc, op, resp)
	if cacheable {
		if s, ok := m.next[string(key)]; ok {
			return s, nil
		}
	}
	configs := make(map[string]onlineConfig, len(from.configs))
	after := make([]pendingOp, 0, len(pending)+1)
	if tag == transInvoke {
		maps.Copy(configs, from.configs)
		after = append(after, pending...)
		after = append(after, pendingOp{proc: proc, op: op})
	} else {
		for _, c := range from.configs {
			if fixed, lin := c.lin[proc]; lin {
				// Linearized earlier; the forced response must match.
				if shmem.ValuesEqual(fixed, resp) {
					c2 := onlineConfig{state: c.state, lin: withoutProc(c.lin, proc)}
					configs[m.render(c2)] = c2
				}
				continue
			}
			// Linearize at the return point. Configs where other pending
			// ops linearize first are already present (the set is
			// closed), so this covers every legal order.
			st, r := m.typ.Apply(c.state, op)
			if shmem.ValuesEqual(r, resp) {
				c2 := onlineConfig{state: st, lin: c.lin}
				configs[m.render(c2)] = c2
			}
		}
		for _, p := range pending {
			if p.proc != proc {
				after = append(after, p)
			}
		}
	}
	if err := m.closure(configs, after); err != nil {
		return nil, err
	}
	s := m.intern(configs)
	if cacheable {
		m.next[string(key)] = s
	}
	return s, nil
}

// closure extends configs with every configuration reachable by
// linearizing pending-but-unlinearized operations, in any order.
func (m *Memo) closure(configs map[string]onlineConfig, pending []pendingOp) error {
	queue := make([]onlineConfig, 0, len(configs))
	for _, c := range configs {
		queue = append(queue, c)
	}
	for len(queue) > 0 {
		c := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, p := range pending {
			if _, done := c.lin[p.proc]; done {
				continue
			}
			st, r := m.typ.Apply(c.state, p.op)
			m.cfgBuf = appendConfig(m.cfgBuf[:0], &m.procs, st, c.lin, true, p.proc, r)
			if _, seen := configs[string(m.cfgBuf)]; seen {
				continue
			}
			if len(configs) >= m.limit {
				return fmt.Errorf("linz: online: config set exceeded %d entries (history too concurrent for online checking)", m.limit)
			}
			lin := make(map[int]objtype.Value, len(c.lin)+1)
			for q, v := range c.lin {
				lin[q] = v
			}
			lin[p.proc] = r
			c2 := onlineConfig{state: st, lin: lin}
			configs[string(m.cfgBuf)] = c2
			queue = append(queue, c2)
		}
	}
	return nil
}

func withoutProc(lin map[int]objtype.Value, proc int) map[int]objtype.Value {
	out := make(map[int]objtype.Value, len(lin))
	for p, v := range lin {
		if p != proc {
			out[p] = v
		}
	}
	return out
}

// find returns the index of proc's outstanding op in o.pending, or where
// it would be inserted and false.
func (o *Online) find(proc int) (int, bool) {
	for i, p := range o.pending {
		if p.proc >= proc {
			return i, p.proc == proc
		}
	}
	return len(o.pending), false
}

// Invoke records that proc invoked op. It errors on protocol misuse (a
// second outstanding op for the same process), never on inconsistency —
// that is Ok's job.
func (o *Online) Invoke(proc int, op objtype.Op) error {
	i, dup := o.find(proc)
	if dup {
		return fmt.Errorf("linz: online: process %d invoked %v with an operation already outstanding", proc, op)
	}
	next, err := o.memo.step(transInvoke, o.set, o.pending, proc, op, nil)
	if err != nil {
		return err
	}
	o.events++
	o.pending = append(o.pending, pendingOp{})
	copy(o.pending[i+1:], o.pending[i:])
	o.pending[i] = pendingOp{proc: proc, op: op}
	o.set = next
	return nil
}

// Return records that proc's outstanding op responded with resp. If no
// configuration survives, the history has just become non-linearizable;
// Ok turns false and Violation pinpoints this event.
func (o *Online) Return(proc int, resp objtype.Value) error {
	i, ok := o.find(proc)
	if !ok {
		return fmt.Errorf("linz: online: process %d returned %v with no outstanding operation", proc, resp)
	}
	op := o.pending[i].op
	next, err := o.memo.step(transReturn, o.set, o.pending, proc, op, resp)
	if err != nil {
		return err
	}
	o.events++
	o.pending = append(o.pending[:i], o.pending[i+1:]...)
	o.set = next
	if len(next.configs) == 0 && o.violation == "" {
		o.violation = fmt.Sprintf("event %d: response %v of p%d's %v admits no linearization", o.events, resp, proc, op)
	}
	return nil
}

// Ok reports whether the event sequence consumed so far is linearizable
// (pending operations may take effect or not — exactly Check's pending
// semantics).
func (o *Online) Ok() bool { return len(o.set.configs) > 0 }

// Violation describes the first inconsistent event, or "" while Ok.
func (o *Online) Violation() string { return o.violation }

// Events returns the number of events consumed.
func (o *Online) Events() int { return o.events }

// Key returns a canonical rendering of the config set. Histories with
// equal Keys (and equal pending-operation sets, which the caller's state
// already determines) are interchangeable for every future event
// sequence: the explorer folds Key into its memoization state.
func (o *Online) Key() string { return o.set.key }
