package llsc

import (
	"fmt"
	"os"
	"sync/atomic"

	"jayanti98/internal/shmem"
)

// Backend is the concurrent shared-memory surface the step-driven harnesses
// (sched.Execute, package explore) and the experiment suite need. The
// native *Memory of this package implements it; so does the Blelloch–Wei
// LL/SC-from-CAS construction (package algos/bwllsc), which package
// explore can be pointed at with Config.LLSC and the cmd/ tools with
// -llsc=native|bw — the same selection pattern as machine engines
// (LB_ENGINE / -engine). The two backends are held byte-identical —
// responses, step counts and AppendFingerprint renderings — by the
// differential harness in algos/bwllsc.
type Backend interface {
	// N returns the number of processes the memory was created for.
	N() int
	// Apply performs op on behalf of pid (sched.Memory).
	Apply(pid int, op shmem.Op) shmem.Response
	// Steps returns pid's shared-access step count.
	Steps(pid int) int64
	// TotalSteps returns the total shared-access step count.
	TotalSteps() int64
	// Fingerprint renders the full memory state deterministically.
	Fingerprint() string
	// AppendFingerprint appends the compact binary rendering of the same
	// state (see Memory.AppendFingerprint for the exact format, which both
	// backends must produce byte-for-byte).
	AppendFingerprint(dst []byte) []byte
	// ReadQuiesced returns register i's value without charging a step or
	// perturbing the fingerprint.
	ReadQuiesced(reg int) shmem.Value
	// Clone returns an independent memory in the same state: equal
	// fingerprints and step counts now, and every operation sequence then
	// gives both the same responses. Operations on either never change
	// the other. Exhaustive exploration forks its runners with it.
	Clone() Backend
}

var _ Backend = (*Memory)(nil)

// BackendKind names an LL/SC backend implementation.
type BackendKind int32

const (
	// BackendNative is the mutex-guarded register file of this package.
	BackendNative BackendKind = iota
	// BackendBW is the Blelloch–Wei LL/SC-from-CAS construction
	// (package algos/bwllsc).
	BackendBW
)

// String names the backend (the same spellings ParseBackend accepts).
func (k BackendKind) String() string {
	switch k {
	case BackendNative:
		return "native"
	case BackendBW:
		return "bw"
	default:
		return fmt.Sprintf("BackendKind(%d)", int32(k))
	}
}

// ParseBackend parses a backend name as used by the -llsc flag of the
// cmd/ tools and the LB_LLSC environment variable. The empty string is the
// process-wide default.
func ParseBackend(s string) (BackendKind, error) {
	switch s {
	case "":
		return DefaultBackend(), nil
	case "native":
		return BackendNative, nil
	case "bw", "blelloch-wei":
		return BackendBW, nil
	default:
		return BackendNative, fmt.Errorf("llsc: unknown backend %q (want native or bw)", s)
	}
}

// defaultBackend is the process-wide backend, stored atomically so tests
// can flip it around sections without racing other goroutines' reads.
var defaultBackend atomic.Int32

func init() {
	if s := os.Getenv("LB_LLSC"); s != "" {
		k, err := ParseBackend(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "llsc: ignoring LB_LLSC: %v\n", err)
			return
		}
		defaultBackend.Store(int32(k))
	}
}

// DefaultBackend returns the process-wide default backend. It starts as
// BackendNative, overridable by the LB_LLSC environment variable
// (native, bw).
func DefaultBackend() BackendKind { return BackendKind(defaultBackend.Load()) }

// SetDefaultBackend sets the process-wide default backend and returns the
// previous value, for defer-restore in tests:
//
//	prev := llsc.SetDefaultBackend(llsc.BackendBW)
//	defer llsc.SetDefaultBackend(prev)
func SetDefaultBackend(k BackendKind) (prev BackendKind) {
	return BackendKind(defaultBackend.Swap(int32(k)))
}
