package wakeup

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"jayanti98/internal/core"
	"jayanti98/internal/machine"
	"jayanti98/internal/shmem"
)

// The reference pid-set codec: the straightforward implementations that
// EncodeBits and DecodeBits replaced. The encoder collects the pids into a
// map, sorts and joins them; the decoder splits on commas and parses every
// part with strconv.Atoi.

func referenceEncode(set shmem.PidBits) string {
	in := make(map[int]bool)
	set.Each(func(p int) { in[p] = true })
	pids := make([]int, 0, len(in))
	for p := range in {
		pids = append(pids, p)
	}
	sort.Ints(pids)
	parts := make([]string, len(pids))
	for i, p := range pids {
		parts[i] = strconv.Itoa(p)
	}
	return strings.Join(parts, ",")
}

func referenceDecode(v shmem.Value, dst shmem.PidBits) shmem.PidBits {
	dst.Clear()
	s, _ := v.(string)
	for s != "" {
		part := s
		if i := strings.IndexByte(s, ','); i >= 0 {
			part, s = s[:i], s[i+1:]
		} else {
			s = ""
		}
		p, err := strconv.Atoi(part)
		if err != nil {
			panic(fmt.Sprintf("wakeup: corrupt pid set register %q", v))
		}
		dst.Add(p)
	}
	return dst
}

// maxFuzzPid bounds the pids a fuzzed register may name: both decoders
// grow the bitset to the largest pid, so a part like "99999999999" would
// only measure how fast the test runs out of memory.
const maxFuzzPid = 1 << 16

// decodeOutcome runs a decoder and captures its result or panic message.
func decodeOutcome(decode func(shmem.Value, shmem.PidBits) shmem.PidBits, s string) (set []int, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	return decode(s, nil).Sorted(), ""
}

// FuzzPidCodec checks the pid-set codec against the reference. Any string
// decodes to the same set, or panics with the same message, under both
// decoders, and isEncoding calls it the encoding of that set exactly when
// EncodeBits renders the set as it. A set derived from the same bytes
// encodes exactly as the reference does and decodes back to itself.
func FuzzPidCodec(f *testing.F) {
	for _, s := range []string{"", "0", "1,2,3", "0,63,64,1000", "7,x"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, part := range strings.Split(s, ",") {
			if p, err := strconv.Atoi(part); err == nil && p > maxFuzzPid {
				t.Skip("pid out of range")
			}
		}
		wantSet, wantPanic := decodeOutcome(referenceDecode, s)
		gotSet, gotPanic := decodeOutcome(DecodeBits, s)
		if gotPanic != wantPanic || !slices.Equal(gotSet, wantSet) {
			t.Fatalf("DecodeBits(%q) = %v, panic %q; reference %v, panic %q", s, gotSet, gotPanic, wantSet, wantPanic)
		}
		if gotPanic == "" {
			set := DecodeBits(s, nil)
			if got, want := isEncoding(s, set), EncodeBits(set) == s; got != want {
				t.Fatalf("isEncoding(%q, %v) = %v, want %v", s, set.Sorted(), got, want)
			}
		}

		// A set whose pids are the input's byte pairs, so it spans
		// one- to five-digit pids and many words.
		var set shmem.PidBits
		for i := 0; i+1 < len(s); i += 2 {
			set.Add(int(s[i])<<8 | int(s[i+1]))
		}
		enc := EncodeBits(set)
		if want := referenceEncode(set); enc != want {
			t.Fatalf("EncodeBits(%v) = %q, reference %q", set.Sorted(), enc, want)
		}
		if back := DecodeBits(enc, nil); !slices.Equal(back.Sorted(), set.Sorted()) {
			t.Fatalf("DecodeBits(EncodeBits(%v)) = %v", set.Sorted(), back.Sorted())
		}
	})
}

// TestPidsDecodeNativeMatchesInterpreter runs the set-register and
// double-register bodies on both engines over registers holding
// canonical, non-canonical and corrupt renderings; set-register at n=2
// codes without its memo and at n=memoMinN through it. The VM's
// pids.decode and pids.memoDecode natives read a string register without
// boxing it; they must decode, or crash, exactly as DecodeBits does in
// the interpreted body.
func TestPidsDecodeNativeMatchesInterpreter(t *testing.T) {
	for _, mk := range []func() machine.Algorithm{SetRegister, DoubleRegister} {
		for _, n := range []int{2, memoMinN} {
			for _, init := range []string{"", "1", "+1", "007", "1,", "1,,2", " 1", "9999999999999999999"} {
				outcome := func(alg machine.Algorithm) string {
					cfg := core.Config{MemInit: func(int) shmem.Value { return init }}
					run, err := core.RunAll(alg, n, machine.ZeroTosses, cfg)
					if err != nil {
						return err.Error()
					}
					return fmt.Sprint(run.Returns, run.Steps)
				}
				ref := mk()
				if vm, interp := outcome(mk()), outcome(machine.New(ref.Name(), ref.Run)); vm != interp {
					t.Fatalf("%s n=%d register %q: VM %s, interpreter %s", mk().Name(), n, init, vm, interp)
				}
			}
		}
	}
}
