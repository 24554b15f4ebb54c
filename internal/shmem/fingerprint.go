package shmem

import (
	"encoding/binary"
	"fmt"
	"strconv"
)

// FmtAppender is implemented by register values that render without fmt:
// AppendFmt appends exactly the bytes fmt's %v writes for the value, and
// FmtType returns exactly fmt's %T. Memory fingerprints and machine
// history digests render the register values they meet on every step, so
// a value type that lives in registers on a hot path implements it
// (universal.Log does).
type FmtAppender interface {
	AppendFmt(dst []byte) []byte
	FmtType() string
}

// AppendFmt appends fmt's %v rendering of v to dst: through v's
// FmtAppender method when it has one, directly for ints and strings, and
// through fmt for every other value.
func AppendFmt(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case FmtAppender:
		return x.AppendFmt(dst)
	case int:
		return strconv.AppendInt(dst, int64(x), 10)
	case string:
		return append(dst, x...)
	}
	return fmt.Appendf(dst, "%v", v)
}

// AppendFingerprint appends a compact binary rendering of the register-file
// state to dst: a uvarint register count, then per touched register (in
// increasing index order) a uvarint index, the length-prefixed %v rendering
// of the value, and the canonical Pset bitset words (PidBits.AppendBinary).
// The count prefix makes the block self-delimiting, so callers can
// concatenate it with other key material without separators.
//
// The exploration harnesses (packages explore and lockstep) fold it into
// their memoization keys (DESIGN §11), and every Backend renders this
// exact byte format.
func (m *Memory) AppendFingerprint(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.touched)))
	for _, i := range m.touched {
		r := m.regs[i]
		dst = binary.AppendUvarint(dst, uint64(i))
		m.fpScratch = AppendFmt(m.fpScratch[:0], r.val)
		dst = binary.AppendUvarint(dst, uint64(len(m.fpScratch)))
		dst = append(dst, m.fpScratch...)
		dst = r.pset.AppendBinary(dst)
	}
	return dst
}
