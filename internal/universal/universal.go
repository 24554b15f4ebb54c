// Package universal implements oblivious universal constructions over
// LL/SC shared memory — the class of constructions the paper's lower bound
// applies to, and the one that witnesses its tightness.
//
// A universal construction turns the sequential specification of any type T
// (package objtype) into a wait-free linearizable shared object of type T.
// It is *oblivious* when it uses T only through its transition function,
// never exploiting its semantics. The paper shows (Theorem 6.1 + Corollary
// 6.1) that any oblivious construction on this memory costs Ω(log n)
// shared accesses per operation in the worst case, and that the
// Group-Update construction of Afek, Dauber and Touitou — after two minor
// modifications — achieves O(log n), making the bound tight.
//
// Three constructions are provided:
//
//   - GroupUpdate: a binary combining tree over unbounded registers;
//     worst-case Θ(log n) shared accesses per operation. See NewGroupUpdate
//     for the two modifications relative to the original construction.
//   - Herlihy: the classic announce-and-help construction; worst-case
//     Θ(n) per operation. The baseline the paper's introduction compares
//     against.
//   - Central: a single-register LL/SC retry loop; lock-free but not
//     wait-free (O(n) expected under contention, unbounded worst case).
//     Included as the simplest correct implementation and as a foil for
//     the wait-freedom discussions.
//
// All three run unchanged on the simulated memory (machine.Env) and on the
// concurrent memory (llsc.Handle) through machine.Port.
package universal

import (
	"fmt"
	"strconv"
	"strings"

	"jayanti98/internal/machine"
	"jayanti98/internal/objtype"
	"jayanti98/internal/shmem"
)

// Record is one announced operation: the invoking process, its per-process
// sequence number, and the operation. A record's identity is (Pid, Seq).
type Record struct {
	Pid int
	Seq int
	Op  objtype.Op
}

// String renders the record.
func (r Record) String() string {
	return fmt.Sprintf("p%d#%d:%v", r.Pid, r.Seq, r.Op)
}

// appendString appends exactly the bytes of r.String().
func (r Record) appendString(dst []byte) []byte {
	dst = append(dst, 'p')
	dst = strconv.AppendInt(dst, int64(r.Pid), 10)
	dst = append(dst, '#')
	dst = strconv.AppendInt(dst, int64(r.Seq), 10)
	dst = append(dst, ':')
	dst = append(dst, r.Op.Name...)
	if r.Op.Arg == nil {
		return append(dst, "()"...)
	}
	dst = append(dst, '(')
	dst = shmem.AppendFmt(dst, r.Op.Arg)
	return append(dst, ')')
}

// Log is an immutable sequence of records. Logs stored in shared registers
// must never be modified in place; all log operations copy.
type Log []Record

// AppendFmt appends exactly the bytes fmt's %v writes for l: the records'
// String renderings, space-separated, in brackets. Logs are the register
// values of every construction, and memory fingerprints and history
// digests render them on every step (shmem.FmtAppender).
func (l Log) AppendFmt(dst []byte) []byte {
	dst = append(dst, '[')
	for i, r := range l {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = r.appendString(dst)
	}
	return append(dst, ']')
}

// FmtType returns fmt's %T of a Log.
func (Log) FmtType() string { return "universal.Log" }

// Contains reports whether the log holds the record with identity
// (pid, seq).
func (l Log) Contains(pid, seq int) bool {
	for _, r := range l {
		if r.Pid == pid && r.Seq == seq {
			return true
		}
	}
	return false
}

// IndexOf returns the position of record (pid, seq), or -1.
func (l Log) IndexOf(pid, seq int) int {
	for i, r := range l {
		if r.Pid == pid && r.Seq == seq {
			return i
		}
	}
	return -1
}

// asLog interprets a register value as a Log (nil → empty).
func asLog(v any) Log {
	if v == nil {
		return nil
	}
	l, ok := v.(Log)
	if !ok {
		panic(fmt.Sprintf("universal: register holds %T, want Log", v))
	}
	return l
}

// merge returns base extended, in order, with the records of the extra
// logs that base does not already contain (first occurrence wins). The
// result shares no backing storage with base.
//
// A first pass counts the new records, so the result is allocated once,
// at its exact size; a second pass, with the dedup reset, appends them.
func merge(base Log, extras ...Log) Log {
	var buf [dedupStackWords]uint64
	d := newDedup(buf[:], base, extras)
	for _, r := range base {
		d.add(r)
	}
	added := 0
	for _, extra := range extras {
		for _, r := range extra {
			if d.add(r) {
				added++
			}
		}
	}
	out := make(Log, len(base), len(base)+added)
	copy(out, base)
	d.reset()
	for _, r := range base {
		d.add(r)
	}
	for _, extra := range extras {
		for _, r := range extra {
			if d.add(r) {
				out = append(out, r)
			}
		}
	}
	return out
}

// dedupStackWords is the size of the bitset merge keeps on its stack,
// enough for 1024 record identities.
const dedupStackWords = 16

// dedup is a set of record identities (pid, seq). Identities with
// 0 ≤ pid < pids and 0 ≤ seq < seqs are bits pid + seq·pids of a flat
// bitset sized from merge's inputs; any other identity (a negative field,
// or a sequence number past what the bitset may cover) lives in a map.
type dedup struct {
	pids, seqs int
	bits       shmem.PidBits
	other      map[[2]int]bool
}

// newDedup sizes a dedup for merge's inputs, using buf for its bitset
// when it fits. The bitset covers every identity of the inputs unless
// that would take more than 64 bits per input record, plus 4096; then it
// covers the sequence numbers up to that size, or nothing if a pid is
// past it.
func newDedup(buf []uint64, base Log, extras []Log) dedup {
	maxPid, maxSeq, records := -1, -1, len(base)
	widen := func(l Log) {
		for _, r := range l {
			maxPid = max(maxPid, r.Pid)
			maxSeq = max(maxSeq, r.Seq)
		}
	}
	widen(base)
	for _, extra := range extras {
		widen(extra)
		records += len(extra)
	}
	limit := 64 * (records + 64)
	if maxPid < 0 || maxPid >= limit {
		return dedup{}
	}
	d := dedup{pids: maxPid + 1, seqs: limit / (maxPid + 1)}
	if maxSeq < d.seqs {
		d.seqs = maxSeq + 1
	}
	words := (d.pids*d.seqs + 63) / 64
	if words > len(buf) {
		buf = make([]uint64, words)
	}
	d.bits = buf[:words]
	d.bits.Clear()
	return d
}

// add inserts r's identity and reports whether it was new.
func (d *dedup) add(r Record) bool {
	if r.Pid >= 0 && r.Pid < d.pids && r.Seq >= 0 && r.Seq < d.seqs {
		i := r.Pid + r.Seq*d.pids
		if d.bits.Contains(i) {
			return false
		}
		d.bits[shmem.WordOf(i)] |= shmem.BitOf(i) // sized to fit: no growing Add
		return true
	}
	key := [2]int{r.Pid, r.Seq}
	if d.other[key] {
		return false
	}
	if d.other == nil {
		d.other = make(map[[2]int]bool)
	}
	d.other[key] = true
	return true
}

// reset empties the set.
func (d *dedup) reset() {
	d.bits.Clear()
	clear(d.other)
}

// Construction is a universal construction instantiated with a type: a
// stateless descriptor (all object state lives in shared registers) whose
// Invoke performs one operation on behalf of the process behind the port.
type Construction interface {
	// Name identifies the construction.
	Name() string
	// Type returns the sequential type the construction was instantiated
	// with.
	Type() objtype.Type
	// Invoke applies op and returns its response.
	Invoke(p machine.Port, op objtype.Op) objtype.Value
	// StepBound returns a worst-case bound on shared accesses per Invoke,
	// or 0 if the construction is not wait-free.
	StepBound() int
}

// Names lists the provided constructions in presentation order — the
// accepted names for New.
func Names() []string { return []string{"group-update", "herlihy", "central"} }

// New builds the named construction over typ for n processes with its
// registers starting at base. Constructions carry no mutable Go state
// (everything lives in shared registers), but distinct simulated runs must
// not share one instance's registers — sweep work items should each build
// their own via New.
func New(name string, typ objtype.Type, n, base int) (Construction, error) {
	switch name {
	case "group-update":
		return NewGroupUpdate(typ, n, base), nil
	case "herlihy":
		return NewHerlihy(typ, n, base), nil
	case "central":
		return NewCentral(typ, n, base), nil
	}
	return nil, fmt.Errorf("universal: unknown construction %q (want %s)", name, strings.Join(Names(), ", "))
}

// Must unwraps a New result whose name is known at compile time.
func Must(c Construction, err error) Construction {
	if err != nil {
		panic(err)
	}
	return c
}

// replayResponse computes the response of record (pid, seq) by replaying
// the type over the log prefix ending at that record — the "response by
// local replay" modification (see NewGroupUpdate). It is objtype.Replay
// over that prefix's operations, keeping only the last response.
func replayResponse(typ objtype.Type, n int, log Log, pid, seq int) objtype.Value {
	idx := log.IndexOf(pid, seq)
	if idx < 0 {
		panic(fmt.Sprintf("universal: record p%d#%d missing from linearization log", pid, seq))
	}
	state, resp := typ.Init(n), objtype.Value(nil)
	for _, r := range log[:idx+1] {
		state, resp = typ.Apply(state, r.Op)
	}
	return resp
}
