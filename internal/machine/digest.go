package machine

import (
	"fmt"

	"jayanti98/internal/shmem"
)

// History digests fold every event a machine observes into a running 64-bit
// FNV-1a sum over an injective binary encoding: each event and each value
// carries a type tag, and variable-length payloads are length-prefixed, so
// distinct histories encode to distinct byte streams. This replaces an
// earlier scheme that hashed fmt-rendered event strings — observably
// equivalent (equal histories still give equal digests, HistoryKey keeps
// its "ev%d:%016x" shape) but without a fmt round-trip per event, which
// matters on the exploration hot path where every delivered response is
// digested.
//
// Both engines share this encoder by construction: recording happens in
// Machine.Peek/Deliver*, above the driver seam, so a goroutine machine and
// a VM machine that consume identical inputs hold identical digests.

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// digest is an inline FNV-1a accumulator.
type digest struct {
	sum     uint64
	scratch []byte // reused value rendering (writeValue)
}

func newDigest() digest { return digest{sum: fnvOffset64} }

func (d *digest) writeByte(b byte) {
	d.sum = (d.sum ^ uint64(b)) * fnvPrime64
}

func (d *digest) writeWord(v uint64) {
	for i := 0; i < 8; i++ {
		d.writeByte(byte(v))
		v >>= 8
	}
}

func (d *digest) writeString(s string) {
	d.writeWord(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		d.writeByte(s[i])
	}
}

// writeBytes encodes b exactly as writeString(string(b)).
func (d *digest) writeBytes(b []byte) {
	d.writeWord(uint64(len(b)))
	for _, c := range b {
		d.writeByte(c)
	}
}

// Event tags.
const (
	evToss byte = iota + 1
	evOp
	evReturn
	evCrash
)

// Value tags. The encoding distinguishes dynamic types exactly as
// shmem.ValuesEqual does: int(1), int64(1) and bool-true all encode
// differently.
const (
	valNil byte = iota
	valInt
	valInt64
	valBool
	valString
	valOther
)

func (d *digest) writeValue(v shmem.Value) {
	switch x := v.(type) {
	case nil:
		d.writeByte(valNil)
	case int:
		d.writeByte(valInt)
		d.writeWord(uint64(x))
	case int64:
		d.writeByte(valInt64)
		d.writeWord(uint64(x))
	case bool:
		d.writeByte(valBool)
		if x {
			d.writeByte(1)
		} else {
			d.writeByte(0)
		}
	case string:
		d.writeByte(valString)
		d.writeString(x)
	case shmem.FmtAppender:
		// Values that render themselves (construction logs) encode
		// exactly as the fmt fallback below, without fmt.
		d.writeByte(valOther)
		d.writeString(x.FmtType())
		d.scratch = x.AppendFmt(d.scratch[:0])
		d.writeBytes(d.scratch)
	default:
		// Exotic values (slices installed by memory initializers, objtype
		// states) fall back to their type name and rendering; slower, but
		// off the hot path and still discriminating in practice.
		d.writeByte(valOther)
		d.writeString(fmt.Sprintf("%T", v))
		d.writeString(fmt.Sprintf("%v", v))
	}
}

func (m *Machine) recordToss(outcome int64) {
	if m.noHistory {
		return
	}
	m.events++
	m.dig.writeByte(evToss)
	m.dig.writeWord(uint64(outcome))
}

func (m *Machine) recordOp(op shmem.Op, r shmem.Response) {
	if m.noHistory {
		return
	}
	m.events++
	m.dig.writeByte(evOp)
	m.dig.writeByte(byte(op.Kind))
	m.dig.writeWord(uint64(op.Reg))
	m.dig.writeWord(uint64(op.Src))
	m.dig.writeValue(op.Arg)
	if r.OK {
		m.dig.writeByte(1)
	} else {
		m.dig.writeByte(0)
	}
	m.dig.writeValue(r.Val)
}

func (m *Machine) recordReturn(v shmem.Value) {
	if m.noHistory {
		return
	}
	m.events++
	m.dig.writeByte(evReturn)
	m.dig.writeValue(v)
}

func (m *Machine) recordCrash(v shmem.Value) {
	if m.noHistory {
		return
	}
	m.events++
	m.dig.writeByte(evCrash)
	m.dig.writeValue(v)
}
