package wakeup

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"jayanti98/internal/shmem"
)

// encodeOutcome runs an encoder and captures its result or panic message.
func encodeOutcome(encode func(shmem.PidBits) string, set shmem.PidBits) (s, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	return encode(set), ""
}

// memoDecodeOutcome is decodeOutcome through m, decoding into dst.
func memoDecodeOutcome(m *pidMemo, s string, dst shmem.PidBits) (set shmem.PidBits, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	return m.decode(s, dst), ""
}

// FuzzPidMemo drives one memo through a script of decodes and encodes and
// checks every answer, and every panic message, against DecodeBits and
// EncodeBits. regs is a ';'-separated list of register strings —
// canonical, non-canonical ("3,1", "01", "+2", " 4") or corrupt. Each
// byte b of script is one call: b%4 = 0 decodes register b/4 into a
// reused buffer; 1 encodes the last decoded set; 2 encodes it plus one
// pid; 3 encodes it plus two pids, or minus one.
func FuzzPidMemo(f *testing.F) {
	for _, seed := range []struct{ regs, script string }{
		{"1,2,3;1,2,3,4", "\x00\x01\x06\x04\x05\x02\x00"},
		{"3,1;01;+2; 4", "\x00\x01\x02\x04\x05\x06\x08\x09\x0a\x0c\x0d\x0e"},
		{"7,x;1,,2;,1;1,", "\x00\x01\x04\x05\x08\x09\x0c\x0d\x03"},
		{";0;9,10,99,100,999,1000", "\x00\x02\x06\x08\x0a\x0e\x0b\x0f\x4a"},
	} {
		f.Add(seed.regs, []byte(seed.script))
	}
	f.Fuzz(func(t *testing.T, regs string, script []byte) {
		parts := strings.Split(regs, ";")
		for _, r := range parts {
			for _, part := range strings.Split(r, ",") {
				if p, err := strconv.Atoi(part); err == nil && p > maxFuzzPid {
					t.Skip("pid out of range")
				}
			}
		}
		m := new(pidMemo)
		var dst, last shmem.PidBits // last: the reference set of the last good decode
		for step, b := range script {
			arg := int(b >> 2)
			var set shmem.PidBits
			switch b & 3 {
			case 0:
				s := parts[arg%len(parts)]
				wantSet, wantPanic := decodeOutcome(DecodeBits, s)
				got, gotPanic := memoDecodeOutcome(m, s, dst)
				if gotPanic != wantPanic || gotPanic == "" && !slices.Equal(got.Sorted(), wantSet) {
					t.Fatalf("step %d: decode(%q) = %v, panic %q; DecodeBits %v, panic %q", step, s, got.Sorted(), gotPanic, wantSet, wantPanic)
				}
				if gotPanic == "" {
					dst, last = got, DecodeBits(s, nil)
				}
				continue
			case 1:
				set = slices.Clone(last)
			case 2:
				set = slices.Clone(last)
				set.Add(arg * 13)
			case 3:
				set = slices.Clone(last)
				if pids := last.Sorted(); arg%2 == 1 && len(pids) > 0 {
					p := pids[arg%len(pids)]
					set[shmem.WordOf(p)] &^= shmem.BitOf(p)
				} else {
					set.Add(arg * 7)
					set.Add(arg*7 + 65)
				}
			}
			want, wantPanic := encodeOutcome(EncodeBits, set)
			got, gotPanic := encodeOutcome(m.encode, set)
			if got != want || gotPanic != wantPanic {
				t.Fatalf("step %d: encode(%v) = %q, panic %q; EncodeBits %q, panic %q", step, set.Sorted(), got, gotPanic, want, wantPanic)
			}
		}
	})
}

// TestPidMemoSplice checks the splice arithmetic at digit-count and word
// boundaries: each set is decoded from its canonical string, then every
// pid up to 1100 that it lacks is spliced in.
func TestPidMemoSplice(t *testing.T) {
	for _, pids := range [][]int{nil, {0}, {5}, {9, 10}, {63, 64}, {0, 99, 100, 999, 1000}, {1, 2, 3, 64, 128, 1024}} {
		var base shmem.PidBits
		for _, p := range pids {
			base.Add(p)
		}
		m := new(pidMemo)
		m.decode(EncodeBits(base), nil)
		for p := 0; p <= 1100; p++ {
			set := slices.Clone(base)
			set.Add(p)
			if got, want := m.encode(set), EncodeBits(set); got != want {
				t.Fatalf("base %v plus %d: %q, want %q", pids, p, got, want)
			}
		}
	}
}

// TestPidMemoHitAllocs pins the memo's hot path: decoding the last string
// again into a large enough buffer, and encoding that string's set, do
// not allocate; a miss allocates nothing once the memo's buffer has grown.
func TestPidMemoHitAllocs(t *testing.T) {
	var big shmem.PidBits
	for p := 0; p < 256; p += 3 {
		big.Add(p)
	}
	a, b := EncodeBits(big), EncodeBits(big[:2])
	m := new(pidMemo)
	dst := m.decode(a, nil)
	if n := testing.AllocsPerRun(100, func() {
		dst = m.decode(a, dst)
		if m.encode(dst) != a {
			t.Fatal("encode of the decoded set is not the decoded string")
		}
	}); n != 0 {
		t.Fatalf("hit path allocates %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		dst = m.decode(b, dst)
		dst = m.decode(a, dst)
	}); n != 0 {
		t.Fatalf("miss path allocates %.0f times, want 0", n)
	}
}
