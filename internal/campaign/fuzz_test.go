package campaign

import (
	"bytes"
	"context"
	"testing"
)

// FuzzCheckpoint feeds arbitrary bytes to DecodeState, the decoder a
// restarted server trusts with a campaign checkpoint. It must never
// panic, and every checkpoint it accepts must round-trip byte-stably
// through Encode → DecodeState → Encode. When the spec is small, the
// resumed campaign must also run one more round (NextRound → ExecuteRound
// → ApplyRound) without panicking: ExecuteRound may refuse the round with
// an error, but a round it executed must apply. The committed corpus holds a fresh state, a state after 2
// rounds, garbage, an invalid spec, corpus schedules with negative and
// out-of-range pids, and unsorted and duplicate coverage.
func FuzzCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeState(data)
		if err != nil {
			return
		}
		enc, err := st.Encode()
		if err != nil {
			t.Fatalf("encoding an accepted checkpoint: %v", err)
		}
		again, err := DecodeState(enc)
		if err != nil {
			t.Fatalf("re-decoding an encoded checkpoint: %v\n%s", err, enc)
		}
		if enc2, err := again.Encode(); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("checkpoint is not byte-stable (%v):\n%s\n%s", err, enc, enc2)
		}
		if s := st.Spec; s.N > 3 || s.OpsPerProc > 2 || s.BatchSize > 4 || s.Budget > 256 {
			return
		}
		rr, err := ExecuteRound(context.Background(), st.NextRound(), 1)
		if err != nil {
			return
		}
		if _, err := st.ApplyRound(rr); err != nil {
			t.Fatalf("applying the resumed round: %v", err)
		}
	})
}
