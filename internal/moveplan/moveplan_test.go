package moveplan

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// chainPlan is the opening example of Section 4: p_i performs
// move(R_i, R_{i+1}) for i = 0..n-1.
func chainPlan(n int) Plan {
	plan := make(Plan, n)
	for i := 0; i < n; i++ {
		plan[i] = Move{Src: i, Dst: i + 1}
	}
	return plan
}

func TestNaiveChainRevealsEverything(t *testing.T) {
	const n = 8
	plan := chainPlan(n)
	sigma := NaiveChain(plan)
	tr := Eval(plan, sigma)
	src, movers := tr.Source(n), tr.Movers(n)
	if src != 0 {
		t.Fatalf("chain scheduled in order must carry R0 into R%d, got R%d", n, src)
	}
	if len(movers) != n {
		t.Fatalf("naive chain movers length = %d, want %d", len(movers), n)
	}
	if IsSecretive(plan, sigma) {
		t.Fatal("the naive chain schedule must not be secretive for n > 2")
	}
}

func TestEvenOddScheduleOfSection4(t *testing.T) {
	// The paper's alternative: even processes first, then odd. Every
	// register then has at most two movers.
	const n = 8
	plan := chainPlan(n)
	var sigma Schedule
	for i := 0; i < n; i += 2 {
		sigma = append(sigma, i)
	}
	for i := 1; i < n; i += 2 {
		sigma = append(sigma, i)
	}
	if !IsSecretive(plan, sigma) {
		t.Fatal("even-odd schedule of Section 4 must be secretive")
	}
	// R_i receives the original value of R_{i-1} (odd i) or R_{i-2} (even i).
	for i := 1; i <= n; i++ {
		src := Eval(plan, sigma).Source(i)
		want := i - 1
		if i%2 == 0 {
			want = i - 2
		}
		if src != want {
			t.Errorf("source(R%d) = R%d, want R%d", i, src, want)
		}
	}
}

func TestSecretiveOnChain(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 16, 64} {
		plan := chainPlan(n)
		sigma := Secretive(plan)
		if !IsSecretive(plan, sigma) {
			t.Fatalf("n=%d: Secretive produced a non-secretive schedule %v", n, sigma)
		}
	}
}

func TestSecretiveEmptyPlan(t *testing.T) {
	sigma := Secretive(Plan{})
	if len(sigma) != 0 {
		t.Fatalf("empty plan must yield empty schedule, got %v", sigma)
	}
	if !IsSecretive(Plan{}, sigma) {
		t.Fatal("empty schedule must be secretive for the empty plan")
	}
}

func TestSecretiveSelfMove(t *testing.T) {
	// move(R, R) is legal: the register is its own source.
	plan := Plan{3: {Src: 5, Dst: 5}}
	sigma := Secretive(plan)
	if !IsSecretive(plan, sigma) {
		t.Fatalf("self-move plan not handled: %v", sigma)
	}
	// A self-move carries no value: the register remains its own source and
	// the movers chain stays empty (see Tracker.Apply).
	tr := Eval(plan, sigma)
	src, movers := tr.Source(5), tr.Movers(5)
	if src != 5 || len(movers) != 0 {
		t.Fatalf("self-move: source=R%d movers=%v", src, movers)
	}
}

func TestSecretiveFanIn(t *testing.T) {
	// Many processes move different sources into the same destination.
	plan := Plan{}
	for i := 0; i < 10; i++ {
		plan[i] = Move{Src: 100 + i, Dst: 7}
	}
	sigma := Secretive(plan)
	if !IsSecretive(plan, sigma) {
		t.Fatalf("fan-in plan: schedule %v not secretive", sigma)
	}
	movers := Eval(plan, sigma).Movers(7)
	if len(movers) != 1 {
		t.Fatalf("fan-in destination must have exactly one mover, got %v", movers)
	}
}

func TestSecretiveFanOut(t *testing.T) {
	// One source register fans out to many destinations.
	plan := Plan{}
	for i := 0; i < 10; i++ {
		plan[i] = Move{Src: 3, Dst: 50 + i}
	}
	sigma := Secretive(plan)
	if !IsSecretive(plan, sigma) {
		t.Fatalf("fan-out plan: schedule %v not secretive", sigma)
	}
}

func TestSecretiveCycle(t *testing.T) {
	// A cycle of moves: R0→R1→R2→R0.
	plan := Plan{
		0: {Src: 0, Dst: 1},
		1: {Src: 1, Dst: 2},
		2: {Src: 2, Dst: 0},
	}
	sigma := Secretive(plan)
	if !IsSecretive(plan, sigma) {
		t.Fatalf("cycle plan: schedule %v not secretive", sigma)
	}
}

func TestIsCompleteRejectsDuplicatesAndStrangers(t *testing.T) {
	plan := chainPlan(3)
	if IsComplete(plan, Schedule{0, 1}) {
		t.Fatal("incomplete schedule accepted")
	}
	if IsComplete(plan, Schedule{0, 1, 1}) {
		t.Fatal("schedule with duplicate accepted")
	}
	if IsComplete(plan, Schedule{0, 1, 9}) {
		t.Fatal("schedule with foreign pid accepted")
	}
	if !IsComplete(plan, Schedule{2, 0, 1}) {
		t.Fatal("valid complete schedule rejected")
	}
}

func TestRestrict(t *testing.T) {
	s := Schedule{4, 1, 3, 2}
	got := s.Restrict(map[int]bool{2: true, 1: true})
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Restrict = %v, want [1 2]", got)
	}
}

func TestTrackerApplyUnknownPidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Apply of unknown pid must panic")
		}
	}()
	NewTracker(Plan{}).Apply(0)
}

// randomPlan builds a random (S, f) over nregs registers with k movers.
func randomPlan(rng *rand.Rand, k, nregs int) Plan {
	plan := make(Plan, k)
	pids := rng.Perm(3 * k)[:k] // sparse, unordered pids
	for _, pid := range pids {
		plan[pid] = Move{Src: rng.Intn(nregs), Dst: rng.Intn(nregs)}
	}
	return plan
}

// TestPropertySecretiveAlwaysAtMostTwoMovers is Lemma 4.1 as a property:
// for random plans, the constructed schedule is complete and every register
// has at most two movers.
func TestPropertySecretiveAlwaysAtMostTwoMovers(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		plan := randomPlan(rng, 2+rng.Intn(30), 1+rng.Intn(12))
		sigma := Secretive(plan)
		return IsSecretive(plan, sigma)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyLemma42 verifies Lemma 4.2 on random plans: restricting a
// secretive schedule to any superset of a register's movers preserves that
// register's source.
func TestPropertyLemma42(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		plan := randomPlan(rng, 2+rng.Intn(25), 1+rng.Intn(10))
		sigma := Secretive(plan)
		tr := Eval(plan, sigma)
		for _, mv := range plan {
			reg := mv.Dst
			// S' = movers(reg) plus a random sprinkling of other processes.
			sub := make(map[int]bool)
			for _, pid := range tr.Movers(reg) {
				sub[pid] = true
			}
			for pid := range plan {
				if rng.Intn(2) == 0 {
					sub[pid] = true
				}
			}
			if err := CheckLemma42(plan, sigma, tr, reg, sub); err != nil {
				t.Logf("seed %d: %v (schedule %v, plan %v)", seed, err, sigma, plan)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckLemma42RejectsMissingMover(t *testing.T) {
	plan := chainPlan(4)
	sigma := Secretive(plan)
	tr := Eval(plan, sigma)
	var reg int
	for _, mv := range plan {
		if len(tr.Movers(mv.Dst)) > 0 {
			reg = mv.Dst
			break
		}
	}
	if err := CheckLemma42(plan, sigma, tr, reg, map[int]bool{}); err == nil {
		t.Fatal("CheckLemma42 must reject a subset missing the movers")
	}
}

func TestMaxMovers(t *testing.T) {
	plan := chainPlan(6)
	if got := MaxMovers(plan, NaiveChain(plan)); got != 6 {
		t.Fatalf("naive chain MaxMovers = %d, want 6", got)
	}
	if got := MaxMovers(plan, Secretive(plan)); got > 2 {
		t.Fatalf("secretive MaxMovers = %d, want <= 2", got)
	}
}

func TestMoveString(t *testing.T) {
	if got := (Move{Src: 1, Dst: 2}).String(); got != "move(R1, R2)" {
		t.Fatalf("Move.String() = %q", got)
	}
}
