package linz

import (
	"fmt"
	"testing"

	"jayanti98/internal/objtype"
)

// keyEvent is one event of a golden sequence: an invoke of op by proc, or
// (ret set) proc's outstanding op returning resp.
type keyEvent struct {
	proc int
	ret  bool
	op   objtype.Op
	resp objtype.Value
}

func inv(proc int, op objtype.Op) keyEvent      { return keyEvent{proc: proc, op: op} }
func ret(proc int, resp objtype.Value) keyEvent { return keyEvent{proc: proc, ret: true, resp: resp} }

// keyGoldens are fixed event sequences with the exact checker state after
// every event.
var keyGoldens = []struct {
	name   string
	typ    objtype.Type
	n      int
	limit  int // config cap; 0 is the production cap
	events []keyEvent
	want   []string
}{
	{
		name: "tas n=3 overlapping and pending",
		typ:  objtype.NewTAS(),
		n:    3,
		events: []keyEvent{
			inv(0, tasOp()), inv(1, tasOp()), inv(2, tasOp()),
			ret(1, 0), ret(0, 1), inv(1, tasOp()), ret(1, 1), ret(2, 0),
		},
		want: []string{
			`err=<nil> ok=true events=1 violation="" key="0&1|p0=0"`,
			`err=<nil> ok=true events=2 violation="" key="0&1|p0=0&1|p0=0|p1=1&1|p0=1|p1=0&1|p1=0"`,
			`err=<nil> ok=true events=3 violation="" key="0&1|p0=0&1|p0=0|p1=1&1|p0=0|p1=1|p2=1&1|p0=0|p2=1&1|p0=1|p1=0&1|p0=1|p1=0|p2=1&1|p0=1|p1=1|p2=0&1|p0=1|p2=0&1|p1=0&1|p1=0|p2=1&1|p1=1|p2=0&1|p2=0"`,
			`err=<nil> ok=true events=4 violation="" key="1&1|p0=1&1|p0=1|p2=1&1|p2=1"`,
			`err=<nil> ok=true events=5 violation="" key="1&1|p2=1"`,
			`err=<nil> ok=true events=6 violation="" key="1&1|p1=1&1|p1=1|p2=1&1|p2=1"`,
			`err=<nil> ok=true events=7 violation="" key="1&1|p2=1"`,
			`err=<nil> ok=false events=8 violation="event 8: response 0 of p2's test&set() admits no linearization" key=""`,
		},
	},
	{
		name: "fetch-increment n=3",
		typ:  objtype.NewFetchIncrement(8),
		n:    3,
		events: []keyEvent{
			inv(0, fi()), inv(1, fi()), ret(1, "0"), inv(2, fi()), inv(1, fi()),
			ret(2, "2"), ret(0, "1"), ret(1, "4"),
		},
		want: []string{
			`err=<nil> ok=true events=1 violation="" key="0&1|p0=0"`,
			`err=<nil> ok=true events=2 violation="" key="0&1|p0=0&1|p1=0&2|p0=0|p1=1&2|p0=1|p1=0"`,
			`err=<nil> ok=true events=3 violation="" key="1&2|p0=1"`,
			`err=<nil> ok=true events=4 violation="" key="1&2|p0=1&2|p2=1&3|p0=1|p2=2&3|p0=2|p2=1"`,
			`err=<nil> ok=true events=5 violation="" key="1&2|p0=1&2|p1=1&2|p2=1&3|p0=1|p1=2&3|p0=1|p2=2&3|p0=2|p1=1&3|p0=2|p2=1&3|p1=1|p2=2&3|p1=2|p2=1&4|p0=1|p1=2|p2=3&4|p0=1|p1=3|p2=2&4|p0=2|p1=1|p2=3&4|p0=2|p1=3|p2=1&4|p0=3|p1=1|p2=2&4|p0=3|p1=2|p2=1"`,
			`err=<nil> ok=true events=6 violation="" key="3|p0=1&3|p1=1&4|p0=1|p1=3&4|p0=3|p1=1"`,
			`err=<nil> ok=true events=7 violation="" key="3&4|p1=3"`,
			`err=<nil> ok=false events=8 violation="event 8: response 4 of p1's fetch&increment() admits no linearization" key=""`,
		},
	},
	{
		name: "queue n=2",
		typ:  objtype.NewEmptyQueue(),
		n:    2,
		events: []keyEvent{
			inv(0, objtype.Op{Name: objtype.OpEnqueue, Arg: "a"}), inv(1, objtype.Op{Name: objtype.OpDequeue}),
			ret(1, objtype.Empty), inv(1, objtype.Op{Name: objtype.OpDequeue}),
			ret(0, nil), inv(0, objtype.Op{Name: objtype.OpEnqueue, Arg: "b"}),
			ret(1, "a"), ret(0, nil),
		},
		want: []string{
			`err=<nil> ok=true events=1 violation="" key="[]&[a]|p0=<nil>"`,
			`err=<nil> ok=true events=2 violation="" key="[]&[]|p0=<nil>|p1=a&[]|p1=⊥empty&[a]|p0=<nil>&[a]|p0=<nil>|p1=⊥empty"`,
			`err=<nil> ok=true events=3 violation="" key="[]&[a]|p0=<nil>"`,
			`err=<nil> ok=true events=4 violation="" key="[]&[]|p0=<nil>|p1=a&[]|p1=⊥empty&[a]|p0=<nil>&[a]|p0=<nil>|p1=⊥empty"`,
			`err=<nil> ok=true events=5 violation="" key="[]|p1=a&[a]&[a]|p1=⊥empty"`,
			`err=<nil> ok=true events=6 violation="" key="[]|p1=a&[a b]|p0=<nil>&[a b]|p0=<nil>|p1=⊥empty&[a]&[a]|p1=⊥empty&[b]|p0=<nil>|p1=a"`,
			`err=<nil> ok=true events=7 violation="" key="[]&[b]|p0=<nil>"`,
			`err=<nil> ok=true events=8 violation="" key="[b]"`,
		},
	},
	{
		name:  "fetch-increment n=3 cap and misuse errors",
		typ:   objtype.NewFetchIncrement(8),
		n:     3,
		limit: 6,
		events: []keyEvent{
			inv(0, fi()), inv(1, fi()), inv(0, fi()), inv(2, fi()), ret(2, "0"),
			inv(2, fi()), ret(0, "1"), ret(0, "0"),
		},
		want: []string{
			`err=<nil> ok=true events=1 violation="" key="0&1|p0=0"`,
			`err=<nil> ok=true events=2 violation="" key="0&1|p0=0&1|p1=0&2|p0=0|p1=1&2|p0=1|p1=0"`,
			`err=linz: online: process 0 invoked fetch&increment() with an operation already outstanding ok=true events=2 violation="" key="0&1|p0=0&1|p1=0&2|p0=0|p1=1&2|p0=1|p1=0"`,
			`err=linz: online: config set exceeded 6 entries (history too concurrent for online checking) ok=true events=2 violation="" key="0&1|p0=0&1|p1=0&2|p0=0|p1=1&2|p0=1|p1=0"`,
			`err=linz: online: process 2 returned 0 with no outstanding operation ok=true events=2 violation="" key="0&1|p0=0&1|p1=0&2|p0=0|p1=1&2|p0=1|p1=0"`,
			`err=linz: online: config set exceeded 6 entries (history too concurrent for online checking) ok=true events=2 violation="" key="0&1|p0=0&1|p1=0&2|p0=0|p1=1&2|p0=1|p1=0"`,
			`err=<nil> ok=true events=3 violation="" key="2|p1=0"`,
			`err=linz: online: process 0 returned 0 with no outstanding operation ok=true events=3 violation="" key="2|p1=0"`,
		},
	},
}

// TestOnlineKeyGolden pins the checker's observable state — the returned
// error, Ok, Events, Violation and the exact Key bytes — after every event
// of fixed sequences.
// Exhaustive memo keys and campaign coverage digests hash Key, so any drift
// in its bytes would re-key every stored checkpoint.
func TestOnlineKeyGolden(t *testing.T) {
	for _, g := range keyGoldens {
		t.Run(g.name, func(t *testing.T) {
			limit := g.limit
			if limit == 0 {
				limit = onlineConfigCap
			}
			// The second pass runs on the warmed memo, so it checks the
			// cached transitions too.
			m := newMemo(g.typ, g.n, limit)
			for pass := 0; pass < 2; pass++ {
				o := m.NewOnline()
				for i, ev := range g.events {
					var err error
					if ev.ret {
						err = o.Return(ev.proc, ev.resp)
					} else {
						err = o.Invoke(ev.proc, ev.op)
					}
					got := fmt.Sprintf("err=%v ok=%t events=%d violation=%q key=%q", err, o.Ok(), o.events, o.Violation(), o.Key())
					if got != g.want[i] {
						t.Fatalf("pass %d, after event %d:\n got %s\nwant %s", pass, i, got, g.want[i])
					}
				}
			}
		})
	}
}
