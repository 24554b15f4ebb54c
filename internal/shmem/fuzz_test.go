package shmem

import (
	"reflect"
	"testing"
)

// fuzzValue materializes a register value of a fuzzer-chosen dynamic kind.
// The kinds cover both the scalar fast path of ValuesEqual (nil, int,
// int64, string, bool) and representatives of the reflect.DeepEqual
// fallback, including the nil-slice / empty-slice pair whose distinction
// DeepEqual (and therefore ValuesEqual) must preserve.
func fuzzValue(kind byte, x int64, s string) Value {
	switch kind % 9 {
	case 0:
		return nil
	case 1:
		return int(x)
	case 2:
		return x
	case 3:
		return s
	case 4:
		return x&1 == 1
	case 5:
		return []int{int(x)}
	case 6:
		return []int(nil)
	case 7:
		return []int{}
	default:
		return map[string]int64{s: x}
	}
}

// FuzzRegStateEqual cross-checks ValuesEqual, the comparison CheckIndist
// applies to the values of two register states, against reflect.DeepEqual.
// The two must agree, except that two nil interfaces are equal (DeepEqual
// calls two invalid values unequal; an absent register value equals an
// absent register value here). ValuesEqual must also be symmetric and
// reflexive. The Pset inputs of the committed corpus are ignored.
//
// The seeds pin mixed value kinds; the committed corpus under testdata/fuzz
// extends them.
func FuzzRegStateEqual(f *testing.F) {
	// kindA, xA, sA, maskA, nilA, kindB, xB, sB, maskB, nilB
	f.Add(byte(0), int64(0), "", uint64(0), true, byte(0), int64(0), "", uint64(0), false)   // nil Pset vs empty Pset
	f.Add(byte(1), int64(1), "", uint64(5), false, byte(2), int64(1), "", uint64(5), false)  // int vs int64: mixed kinds
	f.Add(byte(3), int64(0), "1", uint64(2), false, byte(1), int64(1), "", uint64(2), false) // "1" vs 1
	f.Add(byte(4), int64(1), "", uint64(0), true, byte(1), int64(1), "", uint64(0), true)    // bool vs int
	f.Add(byte(6), int64(0), "", uint64(0), false, byte(7), int64(0), "", uint64(0), false)  // nil slice vs empty slice value
	f.Add(byte(8), int64(7), "k", uint64(9), false, byte(8), int64(7), "k", uint64(9), false)
	f.Add(byte(5), int64(3), "", uint64(1<<63), false, byte(5), int64(3), "", uint64(1), false)
	f.Fuzz(func(t *testing.T, kindA byte, xA int64, sA string, _ uint64, _ bool,
		kindB byte, xB int64, sB string, _ uint64, _ bool) {
		a, b := fuzzValue(kindA, xA, sA), fuzzValue(kindB, xB, sB)
		want := reflect.DeepEqual(a, b)
		if a == nil || b == nil {
			want = a == nil && b == nil
		}
		if got := ValuesEqual(a, b); got != want {
			t.Errorf("ValuesEqual(%#v, %#v) = %t, want %t", a, b, got, want)
		}
		if got := ValuesEqual(b, a); got != want {
			t.Errorf("ValuesEqual not symmetric on %#v / %#v", a, b)
		}
		if !ValuesEqual(a, a) || !ValuesEqual(b, b) {
			t.Errorf("ValuesEqual not reflexive on %#v / %#v", a, b)
		}
	})
}
