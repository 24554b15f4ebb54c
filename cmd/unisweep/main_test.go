package main

import (
	"context"
	"reflect"
	"testing"

	"jayanti98/internal/lowerbound"
	"jayanti98/internal/universal"
)

// TestSweepEveryConstructionParallelMatchesSerial runs the same small
// sweep main performs, over every registered construction, at parallelism
// 1 and 4, and requires identical results — the engine's determinism
// contract on this command's workload.
func TestSweepEveryConstructionParallelMatchesSerial(t *testing.T) {
	st, err := lowerbound.SweepTypeFor("fetch&increment")
	if err != nil {
		t.Fatal(err)
	}
	ns := []int{2, 4, 8, 16}
	for _, name := range universal.Names() {
		name := name
		mk := func(n int) universal.Construction {
			return universal.Must(universal.New(name, st.New(n), n, 0))
		}
		serial, sGrowth, err := lowerbound.SweepConstructionCtx(context.Background(), mk, st.Op, ns, 1)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		par, pGrowth, err := lowerbound.SweepConstructionCtx(context.Background(), mk, st.Op, ns, 4)
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if !reflect.DeepEqual(serial, par) || sGrowth != pGrowth {
			t.Fatalf("%s: parallel sweep diverged:\nserial  %+v (%s)\nparallel %+v (%s)",
				name, serial, sGrowth, par, pGrowth)
		}
	}
}

func TestTypeForKnowsEveryType(t *testing.T) {
	for _, name := range []string{"fetch&increment", "queue", "stack"} {
		st, err := lowerbound.SweepTypeFor(name)
		if err != nil {
			t.Errorf("SweepTypeFor(%q): %v", name, err)
			continue
		}
		typ := st.New(4)
		if typ == nil {
			t.Errorf("SweepTypeFor(%q): nil type", name)
			continue
		}
		o := st.Op(4, 1)
		// The generated op must be applicable to the type's initial state.
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("SweepTypeFor(%q): op %v not applicable: %v", name, o, r)
				}
			}()
			typ.Apply(typ.Init(4), o)
		}()
	}
	if _, err := lowerbound.SweepTypeFor("bogus"); err == nil {
		t.Error("unknown type must error")
	}
}
