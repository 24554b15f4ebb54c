package wakeup

import (
	"math/bits"
	"strconv"
	"strings"
	"sync"

	"jayanti98/internal/shmem"
)

// pidMemo memoizes the pid-set codec for one set-register instance. The
// algorithm decodes the register it LLs on every retry and encodes that
// set with its own pid added on every SC attempt. Under the adversary's
// lockstep rounds every pending process LLs the same register value, so
// within a round the same string is decoded over and over, and each
// process encodes that string's set plus its own pid.
//
// The memo keeps the string it decoded last, its set, and whether the
// string is the canonical EncodeBits rendering of that set:
//
//   - decoding that string again copies the stored set instead of parsing;
//   - a miss parses into the memo's own buffer, which is reused, so it
//     allocates only when the buffer must grow;
//   - encoding the stored set returns the stored string, and encoding it
//     plus one pid splices the pid's digits into the stored string (see
//     spliceOffset).
//
// Every answer is the one DecodeBits or EncodeBits gives, panics included,
// so the memo is invisible in register contents and traces. One instance
// may serve concurrent runs (parallel sweeps share it): a call that finds
// the memo busy computes its answer without it. A nil memo is the plain
// codec.
type pidMemo struct {
	mu        sync.Mutex
	valid     bool          // s and set hold a decode
	s         string        // the string decoded last
	set       shmem.PidBits // its set; words past n are zero
	n         int           // words up to the last non-zero one
	canonical bool          // s == EncodeBits(set)
}

// memoMinN is the smallest process count whose runs code their pid sets
// through the memo. Below it the register string is short and a round has
// few processes to share a decode, so the memo's lock and copies cost as
// much as they save: interleaved in one process, the adversary's
// set-register run took 5–8% longer through the memo at n=4 and n=8,
// the same at n=12 to 24, and 5% less at n=32 and 20% less at n=64
// (DESIGN §19).
const memoMinN = 32

// forN returns m for a run of n processes at or above memoMinN, and nil,
// the plain codec, below it.
func (m *pidMemo) forN(n int) *pidMemo {
	if n < memoMinN {
		return nil
	}
	return m
}

// decode is DecodeBits(v, dst) through the memo.
func (m *pidMemo) decode(v shmem.Value, dst shmem.PidBits) shmem.PidBits {
	s, _ := v.(string)
	return m.decodeString(s, dst)
}

// decodeString is decodeString(s, dst) through the memo.
func (m *pidMemo) decodeString(s string, dst shmem.PidBits) shmem.PidBits {
	if m == nil || !m.mu.TryLock() {
		return decodeString(s, dst)
	}
	defer m.mu.Unlock()
	if !m.valid || m.s != s {
		m.parse(s)
	}
	dst.Clear()
	for len(dst) < m.n {
		dst = append(dst, 0)
	}
	copy(dst, m.set[:m.n])
	return dst
}

// parse replaces the memo's entry with s: it parses s into the memo's
// own buffer and asks isEncoding whether s is canonical. decodeString
// panics on a corrupt string, leaving the memo empty.
func (m *pidMemo) parse(s string) {
	m.valid = false
	m.set = decodeString(s, m.set)
	m.canonical = isEncoding(s, m.set)
	n := len(m.set)
	for n > 0 && m.set[n-1] == 0 {
		n--
	}
	m.s, m.n, m.valid = s, n, true
}

// encode is EncodeBits(set) through the memo.
func (m *pidMemo) encode(set shmem.PidBits) string {
	if m == nil || !m.mu.TryLock() {
		return EncodeBits(set)
	}
	defer m.mu.Unlock()
	if !m.valid || !m.canonical {
		return EncodeBits(set)
	}
	switch p, ok := m.extra(set); {
	case !ok:
		return EncodeBits(set)
	case p < 0:
		return m.s
	default:
		return splice(m.s, p, spliceOffset(m.set[:m.n], p))
	}
}

// extra compares set with the memo's set. It returns ok with p = −1 when
// the two are equal, ok with p when set is the memo's set plus the one pid
// p, and !ok otherwise.
func (m *pidMemo) extra(set shmem.PidBits) (p int, ok bool) {
	p = -1
	for i := 0; i < len(set) || i < m.n; i++ {
		var a, b uint64
		if i < len(set) {
			a = set[i]
		}
		if i < m.n {
			b = m.set[i]
		}
		if b&^a != 0 {
			return 0, false
		}
		d := a &^ b
		if d == 0 {
			continue
		}
		if p >= 0 || d&(d-1) != 0 {
			return 0, false
		}
		p = i<<6 + bits.TrailingZeros64(d)
	}
	return p, true
}

// isEncoding reports whether s is EncodeBits(set) without rendering it:
// the lengths must agree, and then the pids' digits, in increasing order,
// must sit where EncodeBits puts them, with a comma between each two. The
// memo asks this once per miss, so the plain decoder, which every other
// algorithm uses, does not pay for it.
func isEncoding(s string, set shmem.PidBits) bool {
	if len(s) != encodedLen(set) {
		return false
	}
	var digits [20]byte
	off := 0
	for i, w := range set {
		for ; w != 0; w &= w - 1 {
			if off > 0 {
				if s[off] != ',' {
					return false
				}
				off++
			}
			d := strconv.AppendInt(digits[:0], int64(i<<6+bits.TrailingZeros64(w)), 10)
			if s[off:off+len(d)] != string(d) {
				return false
			}
			off += len(d)
		}
	}
	return true
}

// spliceOffset returns where pid p ∉ set goes in EncodeBits(set): each
// smaller pid q takes its digits and a comma, digits(q)+1 bytes, so the
// offset is Σ_{q<p} (digits(q)+1) — two bytes for every q < p, plus one
// more for every q in [10, p), every q in [100, p), and so on. The counts
// are popcounts (countFrom), the way EncodeBits sizes its output. If p
// exceeds every element the offset is len(EncodeBits(set))+1, one past
// the end.
func spliceOffset(set shmem.PidBits, p int) int {
	from := countFrom(set, p)
	off := 2 * (set.Count() - from)
	for t := 10; t < p; t *= 10 {
		off += countFrom(set, t) - from
	}
	return off
}

// splice inserts pid p's digits into the canonical rendering s at offset
// off (spliceOffset): before the part at off, or after a comma at the end
// when off is past it. The result is EncodeBits of s's set plus p, in one
// allocation.
func splice(s string, p, off int) string {
	var b strings.Builder
	b.Grow(len(s) + decimalLen(p) + 1)
	switch {
	case s == "":
		writeDecimal(&b, p)
	case off > len(s):
		b.WriteString(s)
		b.WriteByte(',')
		writeDecimal(&b, p)
	default:
		b.WriteString(s[:off])
		writeDecimal(&b, p)
		b.WriteByte(',')
		b.WriteString(s[off:])
	}
	return b.String()
}

// decimalLen returns the number of decimal digits of p ≥ 0.
func decimalLen(p int) int {
	n := 1
	for ; p >= 10; p /= 10 {
		n++
	}
	return n
}
