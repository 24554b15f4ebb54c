package universal

import (
	"fmt"
	"math/rand"
	"testing"

	"jayanti98/internal/objtype"
	"jayanti98/internal/shmem"
)

// randomLog draws a log of up to 6 records whose op args are nil, strings
// (including empty ones and ones fmt could mistake for verbs) or ints
// (including negative ones).
func randomLog(rng *rand.Rand) Log {
	strs := []string{"", "x", "p0#1", "%v", "a b", "⊥empty", "[]"}
	names := []string{objtype.OpFetchIncrement, objtype.OpEnqueue, objtype.OpDequeue, ""}
	var l Log
	for i, n := 0, rng.Intn(7); i < n; i++ {
		op := objtype.Op{Name: names[rng.Intn(len(names))]}
		switch rng.Intn(3) {
		case 1:
			op.Arg = strs[rng.Intn(len(strs))]
		case 2:
			op.Arg = rng.Intn(2001) - 1000
		}
		l = append(l, Record{Pid: rng.Intn(70) - 3, Seq: rng.Intn(1 << 20), Op: op})
	}
	return l
}

// TestLogAppendFmtMatchesFmt: the Log renderer writes exactly fmt's %v
// bytes and names exactly fmt's %T, which is what keeps fingerprints and
// history digests byte-identical to the fmt rendering they replaced.
func TestLogAppendFmtMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	logs := []Log{nil, {}}
	for i := 0; i < 2000; i++ {
		logs = append(logs, randomLog(rng))
	}
	for _, l := range logs {
		want := fmt.Sprint(l)
		if got := string(l.AppendFmt(nil)); got != want {
			t.Fatalf("AppendFmt = %q, fmt = %q", got, want)
		}
		if got := string(shmem.AppendFmt([]byte("prefix"), l)); got != "prefix"+want {
			t.Fatalf("shmem.AppendFmt = %q, want %q", got, "prefix"+want)
		}
		var v shmem.Value = l
		if got, want := l.FmtType(), fmt.Sprintf("%T", v); got != want {
			t.Fatalf("FmtType = %q, fmt %%T = %q", got, want)
		}
	}
}
