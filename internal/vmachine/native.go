package vmachine

import (
	"fmt"
	"sort"
	"sync"
)

// NativeFunc is a Go function callable from compiled code: it receives the
// executing process's identity and a window of argument values, and
// returns the result value. Natives are the bridge between bytecode and
// domain helpers (pid-set codecs, object-type operations) — the
// native-function-registry design of the exemplar VMs.
//
// Natives run on the scheduler's goroutine inside a single VM step; they
// must not block, and they may mutate set-kind arguments in place only
// when the compiled program passes ownership (the pids.* codecs do: the
// destination set is threaded through the call explicitly). A native that
// needs per-run state (an event log, a construction instance) receives the
// Exec's host value as an argument (HostE), never a process global, so one
// chunk serves every run and a forked Exec is re-pointed at its own run.
// Values a native returns into locals must be immutable or set-kind, so
// that a cloned Exec can share them.
//
// A native that panics crashes the machine, exactly as a panicking
// algorithm body crashes the interpreter: the panic value is captured and
// surfaced as an ActCrash with the same rendered message.
type NativeFunc func(id, n int, args []Value) Value

// registry is the process-wide native table. Registration happens in
// package init functions (the wakeup package registers its pid-set
// codecs); lookups happen at compile time, so a running Exec never takes
// the lock.
var registry = struct {
	sync.RWMutex
	fns map[string]NativeFunc
}{fns: make(map[string]NativeFunc)}

// RegisterNative installs fn under name. Registering a name twice panics:
// native semantics are part of compiled-chunk meaning, and silently
// replacing one would change the meaning of already-compiled chunks.
func RegisterNative(name string, fn NativeFunc) {
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.fns[name]; dup {
		panic(fmt.Sprintf("vmachine: native %q registered twice", name))
	}
	registry.fns[name] = fn
}

// lookupNative resolves name, or returns an error naming the known set.
func lookupNative(name string) (NativeFunc, error) {
	registry.RLock()
	defer registry.RUnlock()
	fn, ok := registry.fns[name]
	if !ok {
		return nil, fmt.Errorf("unknown native %q (registered: %v)", name, nativeNamesLocked())
	}
	return fn, nil
}

func nativeNamesLocked() []string {
	names := make([]string, 0, len(registry.fns))
	for name := range registry.fns {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
