package objtype

import (
	"fmt"
	"math/big"
	"strconv"

	"jayanti98/internal/shmem"
)

// Operation names of the numeric types.
const (
	OpFetchIncrement  = "fetch&increment"
	OpFetchAdd        = "fetch&add"
	OpFetchAnd        = "fetch&and"
	OpFetchOr         = "fetch&or"
	OpFetchComplement = "fetch&complement"
	OpFetchMultiply   = "fetch&multiply"
)

// Hex encodes a non-negative integer as the canonical lowercase-hex string
// used for numeric object states and arguments.
func Hex(v *big.Int) string { return v.Text(16) }

// HexUint encodes a uint64 in canonical hex.
func HexUint(v uint64) string { return strconv.FormatUint(v, 16) }

// ParseHex decodes a canonical hex string. It panics on malformed input,
// which can only arise from a bug (states never leave this package's
// control other than as opaque immutable values).
func ParseHex(s string) *big.Int {
	v, ok := new(big.Int).SetString(s, 16)
	if !ok {
		panic(fmt.Sprintf("objtype: malformed hex state %q", s))
	}
	return v
}

// AllOnes returns the k-bit all-ones value 2^k − 1.
func AllOnes(k int) *big.Int {
	return new(big.Int).Sub(pow2(k), big.NewInt(1))
}

func one() *big.Int { return big.NewInt(1) }

func pow2(k int) *big.Int { return new(big.Int).Lsh(big.NewInt(1), uint(k)) }

// numeric is a k-bit register state with one or more fetch&φ operations.
// The state is value mod 2^k, encoded as canonical hex.
type numeric struct {
	name string
	k    int
	init func(n, k int) *big.Int
	ops  map[string]numOp
}

// numOp is one fetch&φ operation. big computes φ on big integers. word
// computes it on uint64 for types with k ≤ 64: φ here is addition,
// multiplication, a bitwise operation or a bit flip below k, so φ mod 2^64
// reduced mod 2^k is φ mod 2^k. unary operations ignore their argument.
type numOp struct {
	big   func(s, a *big.Int, k int) *big.Int
	word  func(s, a uint64, k int) uint64
	unary bool
}

func (t *numeric) Name() string { return fmt.Sprintf("%s(%d)", t.name, t.k) }

func (t *numeric) Init(n int) Value { return Hex(t.mask(t.init(n, t.k))) }

func (t *numeric) Ops() []string {
	names := make([]string, 0, len(t.ops))
	for name := range t.ops {
		names = append(names, name)
	}
	return names
}

func (t *numeric) mask(v *big.Int) *big.Int {
	m := new(big.Int).Lsh(big.NewInt(1), uint(t.k))
	return new(big.Int).Mod(v, m)
}

func (t *numeric) Apply(state Value, op Op) (Value, Value) {
	f, ok := t.ops[op.Name]
	if !ok {
		errUnknownOp(t, op)
	}
	s, ok := state.(string)
	if !ok {
		panic(fmt.Sprintf("objtype: %s state must be a hex string, got %T", t.Name(), state))
	}
	if next, resp, ok := t.applyWord(f, state, s, op.Arg); ok {
		return next, resp
	}
	return t.applyBig(f, s, op.Arg)
}

// applyWord is Apply on uint64 arithmetic, for state s (the string in
// state). It declines (ok false) unless k ≤ 64 and the state and argument
// are values it can represent: hex of at most 16 digits, a non-negative
// int, or no argument for a unary operation. applyBig handles everything
// else, so the two paths give the same states, responses and panics.
func (t *numeric) applyWord(f numOp, state Value, s string, arg Value) (next, resp Value, ok bool) {
	if t.k < 0 || t.k > 64 {
		return nil, nil, false
	}
	cur, canonical, ok := parseWord(s)
	if !ok {
		return nil, nil, false
	}
	var a uint64
	switch x := arg.(type) {
	case nil:
		ok = f.unary
	case int:
		a, ok = uint64(x), x >= 0
	case string:
		a, _, ok = parseWord(x)
	default:
		ok = false
	}
	if !ok {
		return nil, nil, false
	}
	resp = state // fetch&φ returns the previous state, in canonical form
	if !canonical {
		resp = hexValue(cur)
	}
	return hexValue(f.word(cur, a, t.k) & shmem.MaskUpTo(t.k)), resp, true
}

// applyBig is Apply on big integers, for any k and any value.
func (t *numeric) applyBig(f numOp, s string, arg Value) (Value, Value) {
	cur := ParseHex(s)
	var a *big.Int
	if arg != nil {
		switch x := arg.(type) {
		case string:
			a = ParseHex(x)
		case int:
			a = big.NewInt(int64(x))
		default:
			panic(fmt.Sprintf("objtype: %s argument must be a hex string or int, got %T", t.Name(), arg))
		}
	}
	next := t.mask(f.big(cur, a, t.k))
	return Hex(next), Hex(cur) // fetch&φ returns the previous state
}

// parseWord parses hex of 1 to 16 digits (either case, as ParseHex
// accepts them) into a uint64, and reports whether s is the canonical
// rendering Hex gives. It declines anything else: a sign, a longer or
// empty string, a non-hex byte.
func parseWord(s string) (v uint64, canonical, ok bool) {
	if len(s) == 0 || len(s) > 16 {
		return 0, false, false
	}
	canonical = len(s) == 1 || s[0] != '0'
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
			canonical = false
		default:
			return 0, false, false
		}
		v = v<<4 | uint64(c)
	}
	return v, canonical, true
}

// smallHex holds Hex of every value below 256, boxed once, so the states
// of small counters render and travel as Values without allocating.
var smallHex = func() (t [256]Value) {
	for i := range t {
		t[i] = HexUint(uint64(i))
	}
	return t
}()

// hexValue is Hex for a uint64, as a Value: strconv's base-16 rendering
// is big.Int's.
func hexValue(v uint64) Value {
	if v < uint64(len(smallHex)) {
		return smallHex[v]
	}
	return HexUint(v)
}

// NewFetchIncrement returns the k-bit fetch&increment type of Theorem 6.2:
// fetch&increment() adds 1 mod 2^k and returns the previous state. The
// initial state is 0. Wakeup needs k ≥ log₂ n.
func NewFetchIncrement(k int) Type {
	return &numeric{
		name: OpFetchIncrement,
		k:    k,
		init: func(_, _ int) *big.Int { return big.NewInt(0) },
		ops: map[string]numOp{
			OpFetchIncrement: {
				big:   func(s, _ *big.Int, _ int) *big.Int { return new(big.Int).Add(s, big.NewInt(1)) },
				word:  func(s, _ uint64, _ int) uint64 { return s + 1 },
				unary: true,
			},
		},
	}
}

// NewFetchAdd returns the k-bit fetch&add type: fetch&add(v) adds v mod 2^k
// and returns the previous state. Initial state 0. (Mentioned in Section 7;
// fetch&increment is its arity-0 special case.)
func NewFetchAdd(k int) Type {
	return &numeric{
		name: OpFetchAdd,
		k:    k,
		init: func(_, _ int) *big.Int { return big.NewInt(0) },
		ops: map[string]numOp{
			OpFetchAdd: {
				big:  func(s, a *big.Int, _ int) *big.Int { return new(big.Int).Add(s, a) },
				word: func(s, a uint64, _ int) uint64 { return s + a },
			},
		},
	}
}

// NewFetchAnd returns the k-bit fetch&and type of Theorem 6.2:
// fetch&and(v) sets the state to state AND v and returns the previous
// state. The initial state is all ones (every bit set), as the wakeup
// reduction requires. Wakeup needs k ≥ n.
func NewFetchAnd(k int) Type {
	return &numeric{
		name: OpFetchAnd,
		k:    k,
		init: func(_, k int) *big.Int { return AllOnes(k) },
		ops: map[string]numOp{
			OpFetchAnd: {
				big:  func(s, a *big.Int, _ int) *big.Int { return new(big.Int).And(s, a) },
				word: func(s, a uint64, _ int) uint64 { return s & a },
			},
		},
	}
}

// NewFetchOr returns the k-bit fetch&or type of Theorem 6.2: fetch&or(v)
// sets the state to state OR v and returns the previous state. Initial
// state 0. Wakeup needs k ≥ n.
func NewFetchOr(k int) Type {
	return &numeric{
		name: OpFetchOr,
		k:    k,
		init: func(_, _ int) *big.Int { return big.NewInt(0) },
		ops: map[string]numOp{
			OpFetchOr: {
				big:  func(s, a *big.Int, _ int) *big.Int { return new(big.Int).Or(s, a) },
				word: func(s, a uint64, _ int) uint64 { return s | a },
			},
		},
	}
}

// NewFetchComplement returns the k-bit fetch&complement type of Theorem
// 6.2: fetch&complement(i), for a 0-based bit index i < k, flips bit i and
// returns the previous state. Initial state 0. Wakeup needs k ≥ n.
func NewFetchComplement(k int) Type {
	return &numeric{
		name: OpFetchComplement,
		k:    k,
		init: func(_, _ int) *big.Int { return big.NewInt(0) },
		ops: map[string]numOp{
			OpFetchComplement: {
				big: func(s, a *big.Int, k int) *big.Int {
					if !a.IsInt64() || a.Sign() < 0 || a.Int64() >= int64(k) {
						complementOutOfRange(a, k)
					}
					i := int(a.Int64())
					out := new(big.Int).Set(s)
					if out.Bit(i) == 0 {
						out.SetBit(out, i, 1)
					} else {
						out.SetBit(out, i, 0)
					}
					return out
				},
				word: func(s, a uint64, k int) uint64 {
					if a >= uint64(k) {
						complementOutOfRange(a, k)
					}
					return s ^ 1<<a
				},
			},
		},
	}
}

// NewFetchMultiply returns the k-bit fetch&multiply type of Theorem 6.2:
// fetch&multiply(v) sets the state to (state·v) mod 2^k and returns the
// previous state. Initial state 1. Wakeup needs k ≥ n.
func NewFetchMultiply(k int) Type {
	return &numeric{
		name: OpFetchMultiply,
		k:    k,
		init: func(_, _ int) *big.Int { return big.NewInt(1) },
		ops: map[string]numOp{
			OpFetchMultiply: {
				big:  func(s, a *big.Int, _ int) *big.Int { return new(big.Int).Mul(s, a) },
				word: func(s, a uint64, _ int) uint64 { return s * a },
			},
		},
	}
}

// complementOutOfRange panics for a fetch&complement bit index i outside
// [0, k); i is an int, a uint64 or a *big.Int, all of which %d renders
// in decimal.
func complementOutOfRange(i any, k int) {
	panic(fmt.Sprintf("objtype: fetch&complement bit %d out of range [0,%d)", i, k))
}
