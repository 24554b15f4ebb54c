package explore

import "testing"

// TestParseBackend pins the backend names Config.LLSC, the -llsc flag and
// the llsc job field accept: "" is native.
func TestParseBackend(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want BackendKind
		ok   bool
	}{
		{"", BackendNative, true},
		{"native", BackendNative, true},
		{"bw", BackendBW, true},
		{"blelloch-wei", BackendBW, true},
		{"bogus", 0, false},
	} {
		got, err := ParseBackend(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseBackend(%q) = (%v, %v), want (%v, ok=%v)", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
