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
// work through a Memo: every set is interned once, found by an
// order-independent hash of its configs' renderings (members are compared
// exactly on a hash match), and every (set, pending ops, event)
// transition is computed once and then answered by one map lookup. An
// exhaustive search replays the same prefixes many times, so most of its
// events are such lookups. A set's canonical Key is built the first time
// it is asked for: exhaustive search and coverage traces read it, a fuzz
// walk never does.
package linz

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
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

// linEntry is one linearized pending operation: its process and the
// response the specification forced at its linearization point.
type linEntry struct {
	proc int
	resp objtype.Value
}

// onlineConfig is one consistent hypothesis: the sequential state after
// the operations linearized so far, plus the pending operations among
// them with their forced responses, sorted by proc. A config's lin is
// never written once the config is built.
type onlineConfig struct {
	state objtype.Value
	lin   []linEntry
}

// appendConfig appends a config's canonical rendering to dst: fmt's %v
// of the state, then "|p<proc>=" and fmt's %v of the forced response for
// each linearized proc in increasing order (lin's order). Rendering goes
// through shmem.AppendFmt, which writes fmt's bytes without fmt for the
// common value types.
func appendConfig(dst []byte, state objtype.Value, lin []linEntry) []byte {
	dst = shmem.AppendFmt(dst, state)
	for _, e := range lin {
		dst = append(dst, "|p"...)
		dst = strconv.AppendInt(dst, int64(e.proc), 10)
		dst = append(dst, '=')
		dst = shmem.AppendFmt(dst, e.resp)
	}
	return dst
}

// findLin returns the index of proc's entry in lin, or where it would be
// inserted and false.
func findLin(lin []linEntry, proc int) (int, bool) {
	for i, e := range lin {
		if e.proc >= proc {
			return i, e.proc == proc
		}
	}
	return len(lin), false
}

// withLin writes lin with e inserted at index i (findLin's) to dst[:0].
func withLin(dst, lin []linEntry, i int, e linEntry) []linEntry {
	dst = append(dst[:0], lin[:i]...)
	dst = append(dst, e)
	return append(dst, lin[i:]...)
}

// withoutLin writes lin without its entry at index i to dst[:0].
func withoutLin(dst, lin []linEntry, i int) []linEntry {
	dst = append(dst[:0], lin[:i]...)
	return append(dst, lin[i+1:]...)
}

// configSet is one interned config set. Once interned it is immutable, but
// for its Key, which the first Key call builds and caches: every checker
// on the memo that reaches the same set shares it.
type configSet struct {
	id      uint64
	hash    uint64 // sum of the renderings' hashes (Memo.seed)
	configs []onlineConfig
	text    string     // the configs' renderings, concatenated in config order
	ends    []int      // configs[i]'s rendering ends at text[ends[i]]
	same    *configSet // the memo's previous set with this hash
	key     string
	keyed   bool
}

// render returns configs[i]'s canonical rendering.
func (s *configSet) render(i int) string {
	start := 0
	if i > 0 {
		start = s.ends[i-1]
	}
	return s.text[start:s.ends[i]]
}

// Key returns the set's canonical key: its configs' renderings, sorted and
// joined by "&". The first call builds it and later calls return it; the
// write is covered by the memo's one-goroutine contract.
func (s *configSet) Key() string {
	if !s.keyed {
		rs := make([]string, len(s.configs))
		for i := range rs {
			rs[i] = s.render(i)
		}
		slices.Sort(rs)
		s.key, s.keyed = strings.Join(rs, "&"), true
	}
	return s.key
}

// Memo shares config sets and transitions among the Online checkers it
// creates. Checkers on one memo must check the same type at the same
// process count, which NewMemo fixes. A memo only grows; scope it to one
// search (an exhaustive branch, or the walks one explore walker runs
// within a fuzz call or a campaign-round call) rather than to a process.
// Not safe for concurrent use: neither it nor its checkers may be used
// from two goroutines at once.
type Memo struct {
	typ   objtype.Type
	limit int                   // config-set cap (onlineConfigCap)
	seed  maphash.Seed          // of the rendering hashes
	sets  map[uint64]*configSet // by hash, newest first (configSet.same)
	count int                   // sets interned: ids are 0 … count-1
	next  map[string]*configSet // transition key → successor set
	init  *configSet

	build building // the set the current step constructs

	// Scratch of the transition key, of a candidate config's lin and of
	// the outstanding ops after a return.
	buf   []byte
	lin   []linEntry
	after []pendingOp
	// slab backs the lins of the configs added so far; it is only ever
	// appended to, so every lin carved out of it stays intact.
	slab []linEntry
}

// building is the config set one step constructs: the configs, their
// renderings concatenated in text, and an index from a rendering's hash
// to the configs with that hash.
type building struct {
	configs []onlineConfig
	text    []byte
	ends    []int
	sum     uint64 // sum of the renderings' hashes
	index   map[uint64]int
	prev    []int // previous config with the same hash, or -1
	// configs[:lo] are not in index yet: they were copied from a set,
	// and no config added later can equal one of them (see invoke).
	lo int
}

// reset empties b, then copies in from's configs when from is not nil.
func (b *building) reset(from *configSet) {
	b.configs, b.text, b.ends, b.prev = b.configs[:0], b.text[:0], b.ends[:0], b.prev[:0]
	clear(b.index)
	b.sum, b.lo = 0, 0
	if from == nil {
		return
	}
	b.configs = append(b.configs, from.configs...)
	b.text = append(b.text, from.text...)
	b.ends = append(b.ends, from.ends...)
	for range from.configs {
		b.prev = append(b.prev, -1)
	}
	b.sum, b.lo = from.hash, len(from.configs)
}

// render returns configs[i]'s rendering.
func (b *building) render(i int) []byte {
	start := 0
	if i > 0 {
		start = b.ends[i-1]
	}
	return b.text[start:b.ends[i]]
}

// head returns the newest config whose rendering hashes to h, or -1.
func (b *building) head(h uint64) int {
	if i, ok := b.index[h]; ok {
		return i
	}
	return -1
}

// insert indexes config i under its rendering's hash h.
func (b *building) insert(i int, h uint64) {
	b.prev[i] = b.head(h)
	b.index[h] = i
}

// indexAll indexes the configs copied in by reset.
func (b *building) indexAll(seed maphash.Seed) {
	for i := 0; i < b.lo; i++ {
		b.insert(i, maphash.Bytes(seed, b.render(i)))
	}
	b.lo = 0
}

// NewMemo creates an empty memo for n-process objects of the given type.
func NewMemo(typ objtype.Type, n int) *Memo {
	return newMemo(typ, n, onlineConfigCap)
}

func newMemo(typ objtype.Type, n, limit int) *Memo {
	m := &Memo{
		typ:   typ,
		limit: limit,
		seed:  maphash.MakeSeed(),
		sets:  make(map[uint64]*configSet),
		next:  make(map[string]*configSet),
		build: building{index: make(map[uint64]int)},
	}
	m.build.reset(nil)
	_ = m.add(typ.Init(n), nil) // one config fits every cap
	m.init = m.intern()
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

// add adds the config (state, lin) to the set under construction unless
// the set already holds it. lin may be scratch: a config that is added
// keeps a copy. add fails, adding nothing, when the set is at the cap.
func (m *Memo) add(state objtype.Value, lin []linEntry) error {
	b := &m.build
	start := len(b.text)
	b.text = appendConfig(b.text, state, lin)
	r := b.text[start:]
	h := maphash.Bytes(m.seed, r)
	for i := b.head(h); i >= 0; i = b.prev[i] {
		if bytes.Equal(b.render(i), r) {
			b.text = b.text[:start]
			return nil
		}
	}
	if len(b.configs) >= m.limit {
		b.text = b.text[:start]
		return fmt.Errorf("linz: online: config set exceeded %d entries (history too concurrent for online checking)", m.limit)
	}
	var kept []linEntry
	if len(lin) > 0 {
		if cap(m.slab)-len(m.slab) < len(lin) {
			// Chunks double from 16 entries up to 1024: a short-lived
			// memo stays small, a long search allocates rarely.
			m.slab = make([]linEntry, 0, max(len(lin), min(2*cap(m.slab), 1024), 16))
		}
		at := len(m.slab)
		m.slab = append(m.slab, lin...)
		kept = m.slab[at:len(m.slab):len(m.slab)]
	}
	b.configs = append(b.configs, onlineConfig{state: state, lin: kept})
	b.ends = append(b.ends, len(b.text))
	b.prev = append(b.prev, -1)
	b.insert(len(b.configs)-1, h)
	b.sum += h
	return nil
}

// intern returns the memo's set equal to the one under construction,
// interning a copy of it if the memo has none. A set is looked up by its
// hash and told apart from others with that hash by its members.
func (m *Memo) intern() *configSet {
	b := &m.build
	for s := m.sets[b.sum]; s != nil; s = s.same {
		if m.holds(s) {
			return s
		}
	}
	s := &configSet{
		id:      uint64(m.count),
		hash:    b.sum,
		configs: slices.Clone(b.configs),
		text:    string(b.text),
		ends:    slices.Clone(b.ends),
		same:    m.sets[b.sum],
	}
	m.sets[b.sum] = s
	m.count++
	return s
}

// holds reports whether s has exactly the configs under construction.
// Both sides' configs are distinct, so equal sizes and s's configs all
// being present mean equal sets.
func (m *Memo) holds(s *configSet) bool {
	b := &m.build
	if len(s.configs) != len(b.configs) {
		return false
	}
	b.indexAll(m.seed)
next:
	for i := range s.configs {
		r := s.render(i)
		for j := b.head(maphash.String(m.seed, r)); j >= 0; j = b.prev[j] {
			if string(b.render(j)) == r {
				continue next
			}
		}
		return false
	}
	return true
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
	var err error
	if tag == transInvoke {
		err = m.invoke(from, pending, proc, op)
	} else {
		err = m.ret(from, pending, proc, op, resp)
	}
	if err != nil {
		return nil, err
	}
	s := m.intern()
	if cacheable {
		m.next[string(key)] = s
	}
	return s, nil
}

// invoke builds the set that follows from when proc invokes op.
//
// from is closed under the outstanding ops (pending), none of which is
// proc's, so no config of from has proc linearized. Linearizing an
// outstanding op on a config of from gives a config of from again, so on
// from's configs only op can lead somewhere new, and everywhere it leads
// has proc linearized, so lies outside from. The closure therefore tries
// op alone on from's configs, and every outstanding op on the configs
// that adds (op is linearized in each of them already). The result, from's
// configs plus those, is the closure of from under all the outstanding
// ops: the set a closure trying every op on every config computes, so the
// cap error fires exactly when it would there.
func (m *Memo) invoke(from *configSet, pending []pendingOp, proc int, op objtype.Op) error {
	m.build.reset(from)
	for _, c := range from.configs {
		st, r := m.typ.Apply(c.state, op)
		i, _ := findLin(c.lin, proc)
		m.lin = withLin(m.lin, c.lin, i, linEntry{proc: proc, resp: r})
		if err := m.add(st, m.lin); err != nil {
			return err
		}
	}
	return m.closure(len(from.configs), pending)
}

// ret builds the set that follows from when proc's outstanding op returns
// resp, then closes it under the ops still outstanding.
func (m *Memo) ret(from *configSet, pending []pendingOp, proc int, op objtype.Op, resp objtype.Value) error {
	m.build.reset(nil)
	for _, c := range from.configs {
		var err error
		if i, lin := findLin(c.lin, proc); lin {
			// Linearized earlier; the forced response must match.
			if shmem.ValuesEqual(c.lin[i].resp, resp) {
				m.lin = withoutLin(m.lin, c.lin, i)
				err = m.add(c.state, m.lin)
			}
		} else if st, r := m.typ.Apply(c.state, op); shmem.ValuesEqual(r, resp) {
			// Linearize at the return point. Configs where other pending
			// ops linearize first are already present (the set is
			// closed), so this covers every legal order.
			err = m.add(st, c.lin)
		}
		if err != nil {
			return err
		}
	}
	m.after = m.after[:0]
	for _, p := range pending {
		if p.proc != proc {
			m.after = append(m.after, p)
		}
	}
	return m.closure(0, m.after)
}

// closure extends the set under construction with every configuration
// reachable from its configs at index lo and later by linearizing
// pending-but-unlinearized operations, in any order: every config added
// is visited in turn.
func (m *Memo) closure(lo int, pending []pendingOp) error {
	b := &m.build
	for k := lo; k < len(b.configs); k++ {
		c := b.configs[k]
		for _, p := range pending {
			i, done := findLin(c.lin, p.proc)
			if done {
				continue
			}
			st, r := m.typ.Apply(c.state, p.op)
			m.lin = withLin(m.lin, c.lin, i, linEntry{proc: p.proc, resp: r})
			if err := m.add(st, m.lin); err != nil {
				return err
			}
		}
	}
	return nil
}

// Clone returns an independent checker at o's point in the history, on
// the same memo. Config sets are interned and immutable, so the clone
// shares o's set and copies only its outstanding operations; feeding
// events to either never changes the other.
func (o *Online) Clone() *Online {
	c := *o
	c.pending = slices.Clone(o.pending)
	return &c
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
// sequence: the explorer folds Key into its memoization state. A set's
// Key is built the first time any checker asks for it.
func (o *Online) Key() string { return o.set.Key() }
