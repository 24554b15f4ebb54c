package explore

import (
	"fmt"

	"jayanti98/internal/algos/bwllsc"
	"jayanti98/internal/shmem"
)

// BackendKind names a shared-memory backend: a bare shmem.Memory, or the
// Blelloch–Wei LL/SC-from-CAS construction (package algos/bwllsc). It is
// chosen with Config.LLSC, the -llsc flag of cmd/explore and the llsc field
// of explore jobs. The two are held byte-identical — responses, step counts
// and AppendFingerprint renderings — by the differential tests in
// algos/bwllsc.
type BackendKind int

const (
	// BackendNative is the register file of package shmem.
	BackendNative BackendKind = iota
	// BackendBW is the Blelloch–Wei LL/SC-from-CAS construction.
	BackendBW
)

// ParseBackend parses a backend name as Config.LLSC spells it. The empty
// string is the native backend.
func ParseBackend(s string) (BackendKind, error) {
	switch s {
	case "", "native":
		return BackendNative, nil
	case "bw", "blelloch-wei":
		return BackendBW, nil
	default:
		return BackendNative, fmt.Errorf("explore: unknown backend %q (want native or bw)", s)
	}
}

// newBackend builds the configured shared-memory backend. cfg has passed
// validate, which rejects an unknown backend name.
func (cfg Config) newBackend() shmem.Backend {
	if kind, _ := ParseBackend(cfg.LLSC); kind == BackendBW {
		return bwllsc.New(cfg.N)
	}
	return shmem.New()
}
