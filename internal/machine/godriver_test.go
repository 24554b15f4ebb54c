package machine

import (
	"runtime"
	"testing"
	"time"

	"jayanti98/internal/shmem"
)

// waitGoroutines waits for the goroutine count to fall back to base; a
// body's goroutine may take a moment to exit after Close returns.
func waitGoroutines(t *testing.T, base int, after string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("after %s: %d goroutines, started with %d\n%s", after, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseLeavesNoGoroutine closes a goroutine machine twice in every
// state it can be in and checks that its body's goroutine is gone.
func TestCloseLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	tossThenRead := New("toss-read", func(e *Env) shmem.Value {
		e.Toss()
		return e.Read(0)
	})
	cases := []struct {
		name string
		// drive brings a fresh machine into the state under test.
		drive func(t *testing.T) *Machine
	}{
		{"never peeked, body yields", func(*testing.T) *Machine { return Start(tossThenRead, 0, 1) }},
		{"never peeked, body returns", func(*testing.T) *Machine {
			return Start(New("ret", func(*Env) shmem.Value { return 1 }), 0, 1)
		}},
		{"toss pending", func(t *testing.T) *Machine {
			m := Start(tossThenRead, 0, 1)
			if a := m.Peek(); a.Kind != ActToss {
				t.Fatalf("pending %v, want toss", a.Kind)
			}
			return m
		}},
		{"op pending", func(t *testing.T) *Machine {
			m := Start(tossThenRead, 0, 1)
			m.DeliverToss(0)
			if a := m.Peek(); a.Kind != ActOp {
				t.Fatalf("pending %v, want op", a.Kind)
			}
			return m
		}},
		{"body running after a delivery", func(t *testing.T) *Machine {
			entered, release := make(chan struct{}), make(chan struct{})
			m := Start(New("busy", func(e *Env) shmem.Value {
				e.Read(0)
				close(entered)
				<-release
				return e.Read(1)
			}), 0, 1)
			m.DeliverOpResponse(shmem.Response{})
			<-entered
			// The body is past its yield; let it go on while Close runs.
			go func() { close(release) }()
			return m
		}},
		{"crashed", func(t *testing.T) *Machine {
			m := Start(New("boom", func(e *Env) shmem.Value { e.Toss(); panic("kaboom") }), 0, 1)
			m.DeliverToss(0)
			if a := m.Peek(); a.Kind != ActCrash {
				t.Fatalf("final %v, want crash", a.Kind)
			}
			return m
		}},
		{"returned", func(t *testing.T) *Machine {
			m := Start(tossThenRead, 0, 1)
			m.DeliverToss(0)
			m.DeliverOpResponse(shmem.Response{Val: 7})
			if a := m.Peek(); a.Kind != ActReturn || a.Ret != 7 {
				t.Fatalf("final %+v, want return 7", a)
			}
			return m
		}},
	}
	for _, c := range cases {
		m := c.drive(t)
		m.Close()
		m.Close()
		waitGoroutines(t, base, c.name)
	}
}

// TestMachineAllocs pins what one goroutine machine costs: Start, one op,
// its return and Close.
func TestMachineAllocs(t *testing.T) {
	const maxAllocs = 8
	alg := New("one-op", func(e *Env) shmem.Value { return e.Read(0) })
	got := testing.AllocsPerRun(100, func() {
		m := Start(alg, 0, 1)
		m.DeliverOpResponse(shmem.Response{Val: 1})
		if a := m.Peek(); a.Kind != ActReturn {
			t.Fatalf("final %v, want return", a.Kind)
		}
		m.Close()
	})
	if got > maxAllocs {
		t.Fatalf("a machine allocates %.0f times, want ≤ %d", got, maxAllocs)
	}
}
