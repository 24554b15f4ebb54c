package objtype

import (
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func apply(t *testing.T, typ Type, state Value, name string, arg Value) (Value, Value) {
	t.Helper()
	return typ.Apply(state, Op{Name: name, Arg: arg})
}

func TestHexRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, 15, 16, 255, 1 << 40} {
		h := Hex(big.NewInt(v))
		if got := ParseHex(h).Int64(); got != v {
			t.Errorf("round trip %d -> %q -> %d", v, h, got)
		}
	}
	if HexUint(255) != "ff" {
		t.Errorf("HexUint(255) = %q, want ff", HexUint(255))
	}
}

func TestParseHexMalformedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ParseHex on garbage must panic")
		}
	}()
	ParseHex("zz")
}

func TestAllOnes(t *testing.T) {
	if got := AllOnes(4).Int64(); got != 15 {
		t.Fatalf("AllOnes(4) = %d, want 15", got)
	}
}

func TestFetchIncrementSequence(t *testing.T) {
	typ := NewFetchIncrement(8)
	state := typ.Init(4)
	if state != "0" {
		t.Fatalf("init state = %v, want 0", state)
	}
	for i := 0; i < 5; i++ {
		var resp Value
		state, resp = apply(t, typ, state, OpFetchIncrement, nil)
		if want := Hex(big.NewInt(int64(i))); resp != want {
			t.Fatalf("increment %d returned %v, want %v", i, resp, want)
		}
	}
	if state != "5" {
		t.Fatalf("state after 5 increments = %v, want 5", state)
	}
}

func TestFetchIncrementWrapsModulo2k(t *testing.T) {
	typ := NewFetchIncrement(2) // mod 4
	state := typ.Init(1)
	for i := 0; i < 4; i++ {
		state, _ = apply(t, typ, state, OpFetchIncrement, nil)
	}
	if state != "0" {
		t.Fatalf("state after 4 increments mod 4 = %v, want 0", state)
	}
}

func TestFetchAndWakeupPattern(t *testing.T) {
	// Theorem 6.2: init all ones; p_i ANDs a mask with bit i cleared. The
	// last process's response has exactly its own bit still set among the
	// first n bits.
	const n, k = 4, 8
	typ := NewFetchAnd(k)
	state := typ.Init(n)
	if state != Hex(AllOnes(k)) {
		t.Fatalf("fetch&and init = %v, want all ones", state)
	}
	var lastResp Value
	for i := 0; i < n; i++ {
		mask := new(big.Int).Set(AllOnes(k))
		mask.SetBit(mask, i, 0)
		state, lastResp = apply(t, typ, state, OpFetchAnd, Hex(mask))
	}
	// Response of p_3: bits 0..2 cleared, bit 3 set, high bits 4..7 set.
	want := new(big.Int).Set(AllOnes(k))
	for i := 0; i < n-1; i++ {
		want.SetBit(want, i, 0)
	}
	if lastResp != Hex(want) {
		t.Fatalf("last fetch&and response = %v, want %v", lastResp, Hex(want))
	}
}

func TestFetchOr(t *testing.T) {
	typ := NewFetchOr(8)
	state := typ.Init(2)
	state, resp := apply(t, typ, state, OpFetchOr, HexUint(0b0101))
	if resp != "0" || state != "5" {
		t.Fatalf("fetch&or: resp=%v state=%v", resp, state)
	}
	_, resp = apply(t, typ, state, OpFetchOr, HexUint(0b0010))
	if resp != "5" {
		t.Fatalf("second fetch&or resp = %v, want 5", resp)
	}
}

func TestFetchComplement(t *testing.T) {
	typ := NewFetchComplement(8)
	state := typ.Init(1)
	state, resp := apply(t, typ, state, OpFetchComplement, 3)
	if resp != "0" || state != "8" {
		t.Fatalf("complement bit 3: resp=%v state=%v", resp, state)
	}
	state, _ = apply(t, typ, state, OpFetchComplement, 3)
	if state != "0" {
		t.Fatalf("double complement must restore: state=%v", state)
	}
}

func TestFetchComplementOutOfRangePanics(t *testing.T) {
	typ := NewFetchComplement(4)
	defer func() {
		if recover() == nil {
			t.Fatal("bit index out of range must panic")
		}
	}()
	typ.Apply(typ.Init(1), Op{Name: OpFetchComplement, Arg: 4})
}

// TestFetchComplementWideIndexPanics: a bit index too wide for an int64
// is out of range like any other, not truncated to its low bits (2^64
// would otherwise flip bit 0).
func TestFetchComplementWideIndexPanics(t *testing.T) {
	typ := NewFetchComplement(8)
	for _, arg := range []Value{"10000000000000000", "8000000000000000", "ffffffffffffffff", "-1", -1, 8} {
		want := fmt.Sprintf("objtype: fetch&complement bit %v out of range [0,8)", decimal(arg))
		if got := applyPanic(typ, "0", Op{Name: OpFetchComplement, Arg: arg}); got != want {
			t.Errorf("fetch&complement(%v): panic %q, want %q", arg, got, want)
		}
	}
}

// decimal renders a hex-string or int argument in decimal.
func decimal(arg Value) string {
	if s, ok := arg.(string); ok {
		return ParseHex(s).String()
	}
	return fmt.Sprint(arg)
}

// applyPanic applies op and returns its panic message ("" if none).
func applyPanic(typ Type, state Value, op Op) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	typ.Apply(state, op)
	return ""
}

// TestNumericWordMatchesBig holds the uint64 path of every numeric type
// to its big.Int path at widths up to 64 bits: the same state, response
// and panic message for states and arguments that wrap around, are not
// canonical (leading zeros, upper case, a sign), or are too wide for a
// uint64 or for the type.
func TestNumericWordMatchesBig(t *testing.T) {
	states := []string{"0", "1", "7f", "80", "ff", "100", "00ff", "FF", "7fffffffffffffff",
		"8000000000000000", "ffffffffffffffff", "10000000000000000", "0000000000000000001", "+1", "-1", "", "zz"}
	args := []Value{nil, 0, 1, 2, 3, 7, 8, 15, 63, 64, 65, -1, -3, 1 << 40, "0", "1", "3", "f",
		"ff", "F", "0003", "3f", "40", "ffffffffffffffff", "10000000000000000", "-2", "+3", "", "q", 2.5}
	for _, k := range []int{1, 7, 8, 16, 63, 64} {
		for _, mk := range []func(int) Type{NewFetchIncrement, NewFetchAnd, NewFetchOr, NewFetchComplement, NewFetchMultiply} {
			typ := mk(k).(*numeric)
			for name, f := range typ.ops {
				for _, s := range append(states, typ.Init(1).(string)) {
					for _, arg := range args {
						word := outcome(func() (Value, Value) { return typ.Apply(s, Op{Name: name, Arg: arg}) })
						big := outcome(func() (Value, Value) { return typ.applyBig(f, s, arg) })
						if word != big {
							t.Fatalf("%s %s(%v) on %q: Apply %s, big.Int %s", typ.Name(), name, arg, s, word, big)
						}
					}
				}
			}
		}
	}
}

// outcome renders an Apply's result or panic message.
func outcome(apply func() (Value, Value)) (out string) {
	defer func() {
		if r := recover(); r != nil {
			out = fmt.Sprintf("panic %q", fmt.Sprint(r))
		}
	}()
	next, resp := apply()
	return fmt.Sprintf("%#v, %#v", next, resp)
}

// TestNumericWordWraps checks wrap-around on the uint64 path against
// explicit values: the top value of each width increments to 0, and
// 64-bit products keep their low bits.
func TestNumericWordWraps(t *testing.T) {
	for _, k := range []int{1, 7, 8, 16, 63, 64} {
		top := Hex(AllOnes(k))
		if next, resp := NewFetchIncrement(k).Apply(top, Op{Name: OpFetchIncrement}); next != "0" || resp != top {
			t.Errorf("fetch&increment(%d) on %s = (%v, %v), want (0, %s)", k, top, next, resp, top)
		}
	}
	next, _ := NewFetchMultiply(64).Apply("ffffffffffffffff", Op{Name: OpFetchMultiply, Arg: "ffffffffffffffff"})
	if next != "1" {
		t.Errorf("(2^64-1)^2 mod 2^64 = %v, want 1", next)
	}
}

func TestFetchMultiplyWakeupPattern(t *testing.T) {
	// Theorem 6.2: k = n bits, init 1, each process multiplies by 2. The
	// j-th multiplier's response is 2^(j-1) mod 2^n; the n-th response is
	// 2^(n-1) (the top bit), and the state then wraps to 0.
	const n = 6
	typ := NewFetchMultiply(n)
	state := typ.Init(n)
	var resp Value
	for j := 1; j <= n; j++ {
		state, resp = apply(t, typ, state, OpFetchMultiply, HexUint(2))
		want := new(big.Int).Lsh(big.NewInt(1), uint(j-1))
		if resp != Hex(want) {
			t.Fatalf("multiplier %d response = %v, want %v", j, resp, Hex(want))
		}
	}
	if state != "0" {
		t.Fatalf("state after n multiplies = %v, want 0", state)
	}
}

func TestQueueFIFO(t *testing.T) {
	typ := NewEmptyQueue()
	state := typ.Init(3)
	state, _ = apply(t, typ, state, OpEnqueue, "a")
	state, _ = apply(t, typ, state, OpEnqueue, "b")
	state, resp := apply(t, typ, state, OpDequeue, nil)
	if resp != "a" {
		t.Fatalf("dequeue = %v, want a", resp)
	}
	state, resp = apply(t, typ, state, OpDequeue, nil)
	if resp != "b" {
		t.Fatalf("dequeue = %v, want b", resp)
	}
	_, resp = apply(t, typ, state, OpDequeue, nil)
	if resp != Empty {
		t.Fatalf("dequeue on empty = %v, want %v", resp, Empty)
	}
}

func TestStackLIFO(t *testing.T) {
	typ := NewStack(func(int) []Value { return nil })
	state := typ.Init(3)
	state, _ = apply(t, typ, state, OpPush, 1)
	state, _ = apply(t, typ, state, OpPush, 2)
	state, resp := apply(t, typ, state, OpPop, nil)
	if resp != 2 {
		t.Fatalf("pop = %v, want 2", resp)
	}
	state, resp = apply(t, typ, state, OpPop, nil)
	if resp != 1 {
		t.Fatalf("pop = %v, want 1", resp)
	}
	_, resp = apply(t, typ, state, OpPop, nil)
	if resp != Empty {
		t.Fatalf("pop on empty = %v, want %v", resp, Empty)
	}
}

func TestWakeupQueueInitialContents(t *testing.T) {
	typ := NewWakeupQueue()
	state := typ.Init(4)
	var got []Value
	for i := 0; i < 4; i++ {
		var resp Value
		state, resp = apply(t, typ, state, OpDequeue, nil)
		got = append(got, resp)
	}
	if !reflect.DeepEqual(got, []Value{1, 2, 3, 4}) {
		t.Fatalf("wakeup queue dequeues = %v, want [1 2 3 4]", got)
	}
}

func TestWakeupStackBottomIsN(t *testing.T) {
	typ := NewWakeupStack()
	state := typ.Init(4)
	var last Value
	for i := 0; i < 4; i++ {
		state, last = apply(t, typ, state, OpPop, nil)
	}
	if last != 4 {
		t.Fatalf("last popped item = %v, want 4 (the bottom)", last)
	}
}

func TestApplyDoesNotMutateContainerState(t *testing.T) {
	typ := NewEmptyQueue()
	state := typ.Init(1)
	s1, _ := typ.Apply(state, Op{Name: OpEnqueue, Arg: "x"})
	s2, _ := typ.Apply(s1, Op{Name: OpDequeue, Arg: nil})
	// s1 must be unaffected by the dequeue producing s2.
	items := s1.([]Value)
	if len(items) != 1 || items[0] != "x" {
		t.Fatalf("prior state mutated: %v", items)
	}
	if len(s2.([]Value)) != 0 {
		t.Fatalf("dequeue result state = %v, want empty", s2)
	}
}

func TestReadIncrement(t *testing.T) {
	typ := NewReadIncrement(8)
	state := typ.Init(3)
	state, resp := apply(t, typ, state, OpIncrement, nil)
	if resp != nil {
		t.Fatalf("increment must return only an ack (nil), got %v", resp)
	}
	state, resp = apply(t, typ, state, OpRead, nil)
	if resp != "1" {
		t.Fatalf("read = %v, want 1", resp)
	}
	_ = state
}

func TestReplayFetchIncrement(t *testing.T) {
	typ := NewFetchIncrement(8)
	log := make([]Op, 5)
	for i := range log {
		log[i] = Op{Name: OpFetchIncrement}
	}
	final, resps := Replay(typ, 5, log)
	if final != "5" {
		t.Fatalf("final state = %v, want 5", final)
	}
	for i, r := range resps {
		if r != Hex(big.NewInt(int64(i))) {
			t.Fatalf("response %d = %v", i, r)
		}
	}
}

func TestUnknownOpPanics(t *testing.T) {
	for _, typ := range []Type{
		NewFetchIncrement(4), NewEmptyQueue(), NewReadIncrement(4), NewTAS(),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: unknown op must panic", typ.Name())
				}
			}()
			typ.Apply(typ.Init(1), Op{Name: "no-such-op"})
		}()
	}
}

// TestTypeNamesAndOps pins each type's name and checks that it applies
// every operation it supports.
func TestTypeNamesAndOps(t *testing.T) {
	cases := []struct {
		typ  Type
		name string
		ops  []string
	}{
		{NewFetchIncrement(8), "fetch&increment(8)", []string{OpFetchIncrement}},
		{NewFetchAnd(16), "fetch&and(16)", []string{OpFetchAnd}},
		{NewWakeupQueue(), "queue", []string{OpEnqueue, OpDequeue}},
		{NewWakeupStack(), "stack", []string{OpPush, OpPop}},
		{NewReadIncrement(4), "read/increment(4)", []string{OpRead, OpIncrement}},
		{NewTAS(), "test&set", []string{OpTestAndSet, OpRead}},
	}
	for _, c := range cases {
		if got := c.typ.Name(); got != c.name {
			t.Errorf("Name() = %q, want %q", got, c.name)
		}
		for _, op := range c.ops {
			c.typ.Apply(c.typ.Init(2), Op{Name: op, Arg: 1})
		}
	}
}

func TestOpString(t *testing.T) {
	if got := (Op{Name: "dequeue"}).String(); got != "dequeue()" {
		t.Errorf("Op.String() = %q", got)
	}
	if got := (Op{Name: "enqueue", Arg: 7}).String(); got != "enqueue(7)" {
		t.Errorf("Op.String() = %q", got)
	}
}

// TestPropertyQueueMatchesSliceModel checks the queue type against a plain
// slice reference model on random op sequences.
func TestPropertyQueueMatchesSliceModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		typ := NewEmptyQueue()
		state := typ.Init(1)
		var model []Value
		for i := 0; i < 100; i++ {
			if rng.Intn(2) == 0 {
				v := rng.Intn(50)
				state, _ = typ.Apply(state, Op{Name: OpEnqueue, Arg: v})
				model = append(model, v)
			} else {
				var resp Value
				state, resp = typ.Apply(state, Op{Name: OpDequeue})
				if len(model) == 0 {
					if resp != Empty {
						return false
					}
				} else {
					if resp != model[0] {
						return false
					}
					model = model[1:]
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyStackMatchesSliceModel is the stack analogue.
func TestPropertyStackMatchesSliceModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		typ := NewStack(func(int) []Value { return nil })
		state := typ.Init(1)
		var model []Value
		for i := 0; i < 100; i++ {
			if rng.Intn(2) == 0 {
				v := rng.Intn(50)
				state, _ = typ.Apply(state, Op{Name: OpPush, Arg: v})
				model = append(model, v)
			} else {
				var resp Value
				state, resp = typ.Apply(state, Op{Name: OpPop})
				if len(model) == 0 {
					if resp != Empty {
						return false
					}
				} else {
					if resp != model[len(model)-1] {
						return false
					}
					model = model[:len(model)-1]
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyFetchOpsMatchBigIntModel cross-checks all numeric fetch&φ
// types against direct big.Int arithmetic on random op streams.
func TestPropertyFetchOpsMatchBigIntModel(t *testing.T) {
	const k = 12
	mod := pow2(k)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		types := []Type{NewFetchIncrement(k), NewFetchAnd(k), NewFetchOr(k), NewFetchMultiply(k)}
		typ := types[rng.Intn(len(types))]
		state := typ.Init(4)
		model := ParseHex(state.(string))
		for i := 0; i < 60; i++ {
			arg := new(big.Int).SetInt64(int64(rng.Intn(1 << k)))
			var opName string
			next := new(big.Int)
			switch typ.Name() {
			case "fetch&increment(12)":
				opName, arg = OpFetchIncrement, nil
				next.Add(model, big.NewInt(1))
			case "fetch&and(12)":
				opName = OpFetchAnd
				next.And(model, arg)
			case "fetch&or(12)":
				opName = OpFetchOr
				next.Or(model, arg)
			case "fetch&multiply(12)":
				opName = OpFetchMultiply
				next.Mul(model, arg)
			}
			next.Mod(next, mod)
			var op Op
			if arg == nil {
				op = Op{Name: opName}
			} else {
				op = Op{Name: opName, Arg: Hex(arg)}
			}
			var resp Value
			state, resp = typ.Apply(state, op)
			if resp != Hex(model) {
				return false
			}
			if state != Hex(next) {
				return false
			}
			model = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
