// Package explore is a schedule-exploration harness for the universal
// constructions (package universal): a bounded model checker over process
// interleavings.
//
// A *schedule* is a sequence of process ids; step i of a run delivers the
// pending shared-memory operation of process schedule[i] to the shared
// memory (a shmem.Backend; see Config.LLSC) and resumes that process,
// exactly the step granularity of sched.Execute. The harness runs a fixed
// workload — every process performs OpsPerProc operations on the
// construction under test — and checks the resulting concurrent history for
// linearizability two ways: incrementally after every event with a
// linz.Online checker (so violations are flagged at the precise event that
// causes them), and post-hoc with linz.Check on completed runs
// (cross-validating the two checkers against each other).
//
// Three entry points:
//
//   - Exhaustive enumerates every schedule up to the step budget by
//     depth-first search, pruning prefixes that reach an already-visited
//     state. Every system runs on the bytecode VM — the constructions
//     through their compiled Invoke twins (body.go) — so a runner can be
//     forked: each node hands a fork of its runner to every enabled child
//     but the last, and its own runner to the last, and every child
//     executes exactly one more step. No prefix is re-executed. The
//     runners of one branch share an online-checker memo (linz.Memo), so
//     repeated checker events cost a lookup each.
//     The memoization key is the product of the machine history digests
//     (operational local state, Lemma 5.2), the memory fingerprint, and
//     the online checker's configuration-set key — the last component is
//     what makes pruning sound for linearizability: two prefixes that
//     agree on machines and memory can still admit different real-time
//     orders, and the config set captures exactly that residue.
//   - Fuzz samples random schedules (and coin tosses) for sizes where
//     exhaustive search is infeasible, with per-sample seeds derived via
//     sweep.Derive so every sample is reproducible in isolation. Each
//     sample is the seeded random walk Walker.RunGuided runs (cover.go)
//     with an empty prefix. The samples run on walkers, one per
//     concurrently running sample: a walker restarts its runner in place
//     for each sample, so the samples it runs share one online-checker
//     memo, and it lives only as long as the Fuzz call.
//   - RunSchedule replays one explicit schedule; Replay files (replay.go)
//     persist a failing schedule plus its toss assignment so a failure
//     reproduces bit-for-bit later.
//
// Failures are minimized by ShrinkCtx (shrink.go) before being persisted.
package explore

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"jayanti98/internal/algos"
	"jayanti98/internal/linz"
	"jayanti98/internal/machine"
	"jayanti98/internal/objtype"
	"jayanti98/internal/shmem"
	"jayanti98/internal/universal"
)

// BrokenGroupUpdate names the deliberately broken construction variant
// (universal.NewBrokenGroupUpdate, behind the "mutation" build tag) that
// the harness's own tests use to prove the search actually detects bugs.
const BrokenGroupUpdate = "group-update-broken"

// Config describes one system under exploration.
type Config struct {
	// Alg is the system under test: a construction name (universal.Names(),
	// or BrokenGroupUpdate with -tags mutation), or a direct algorithm from
	// the zoo registry (algos.Names()). A construction runs the Object
	// workload through universal.Construction.Invoke; a zoo algorithm IS
	// the object — each process performs its one operation by running the
	// protocol, and Object must name the workload the algorithm implements
	// (algos.Spec.Object).
	Alg string
	// Object is the workload name (see Workloads).
	Object string
	// N is the number of processes.
	N int
	// OpsPerProc is how many operations each process performs. Zoo
	// algorithms are one-shot: OpsPerProc must be 1.
	OpsPerProc int
	// Budget bounds total shared-memory steps; 0 picks a default (see
	// AutoBudget). For a construction, exhausting it indicates a liveness
	// bug and fails the run; for a zoo algorithm — randomized, so not
	// wait-free against a symmetric adversary — it truncates the run
	// instead (RunRecord.Truncated).
	Budget int
	// Tosses supplies coin-toss outcomes (nil: machine.ZeroTosses).
	// Exhaustive exploration requires a deterministic assignment.
	Tosses machine.TossAssignment
	// LLSC selects the shared-memory backend: "" or "native" (a bare
	// shmem.Memory; each runner steps its memory on one goroutine) or
	// "bw" (the Blelloch–Wei LL/SC-from-CAS construction, package
	// algos/bwllsc). The two backends are fingerprint-identical, so
	// exhaustive counts do not depend on the choice — which is exactly
	// what the differential harness pins.
	LLSC string
}

// workload pairs a sequential type with a pure choice of the i-th
// operation of process pid. Op functions must be deterministic: replay
// depends on a (pid, i) pair always denoting the same operation.
type workload struct {
	typ func() objtype.Type
	op  func(pid, i int) objtype.Op
}

var workloads = map[string]workload{
	// Every process performs one test&set; exactly one winner (response 0)
	// may exist, and no completed loser may precede the winner in real
	// time. This is both a construction workload and the object the zoo's
	// TAS algorithms implement directly.
	"tas": {
		typ: func() objtype.Type { return objtype.NewTAS() },
		op:  func(int, int) objtype.Op { return objtype.Op{Name: objtype.OpTestAndSet} },
	},
	// Every process fetch&increments; duplicate or skipped tickets are the
	// classic symptom of a broken linearization order.
	"fetch-increment": {
		typ: func() objtype.Type { return objtype.NewFetchIncrement(16) },
		op:  func(int, int) objtype.Op { return objtype.Op{Name: objtype.OpFetchIncrement} },
	},
	// Even pids enqueue unique values, odd pids dequeue; exercises a
	// container type where responses depend on the full order.
	"queue": {
		typ: func() objtype.Type { return objtype.NewEmptyQueue() },
		op: func(pid, i int) objtype.Op {
			if pid%2 == 0 {
				return objtype.Op{Name: objtype.OpEnqueue, Arg: fmt.Sprintf("p%d#%d", pid, i)}
			}
			return objtype.Op{Name: objtype.OpDequeue}
		},
	},
}

// Workloads lists the available workload names, sorted.
func Workloads() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func workloadFor(name string) (workload, error) {
	w, ok := workloads[name]
	if !ok {
		return workload{}, fmt.Errorf("explore: unknown workload %q (want %s)", name, strings.Join(Workloads(), ", "))
	}
	return w, nil
}

// newConstruction resolves cfg.Alg, including the mutation-tagged broken
// variant.
func newConstruction(name string, typ objtype.Type, n int) (universal.Construction, error) {
	if name == BrokenGroupUpdate {
		return universal.NewBrokenGroupUpdate(typ, n, 0)
	}
	return universal.New(name, typ, n, 0)
}

// AutoBudget returns the step budget used when Config.Budget is 0: for a
// wait-free construction, the worst-case cost of the whole workload plus
// slack; for a lock-free one (StepBound 0), a bound derived from the fact
// that with a finite workload every failed SC is charged to some other
// process's success, so runs still terminate.
func AutoBudget(c universal.Construction, n, opsPerProc int) int {
	total := n * opsPerProc
	if b := c.StepBound(); b > 0 {
		return total*b + n + 4
	}
	return 2*total*(total+1) + total + n + 8
}

func (cfg Config) tosses() machine.TossAssignment {
	if cfg.Tosses == nil {
		return machine.ZeroTosses
	}
	return cfg.Tosses
}

func (cfg Config) validate() error {
	if cfg.N < 1 {
		return fmt.Errorf("explore: n must be >= 1, got %d", cfg.N)
	}
	if cfg.OpsPerProc < 1 {
		return fmt.Errorf("explore: ops per process must be >= 1, got %d", cfg.OpsPerProc)
	}
	if _, err := ParseBackend(cfg.LLSC); err != nil {
		return err
	}
	return nil
}

// FailureKind classifies what went wrong in a run.
type FailureKind string

// The failure kinds. FailInternal marks a harness self-check failure — the
// online and post-hoc checkers disagreeing — and is always a bug in this
// package, never in the construction.
const (
	FailCrash           FailureKind = "crash"
	FailNonLinearizable FailureKind = "non-linearizable"
	FailBudgetExhausted FailureKind = "budget-exhausted"
	FailInternal        FailureKind = "internal"
)

// Failure describes one detected property violation.
type Failure struct {
	Kind FailureKind `json:"kind"`
	// Detail is a human-readable diagnosis (e.g. the online checker's
	// violation message).
	Detail string `json:"detail"`
	// Step is the number of shared-memory steps executed when the failure
	// was detected.
	Step int `json:"step"`
}

func (f *Failure) String() string {
	return fmt.Sprintf("%s at step %d: %s", f.Kind, f.Step, f.Detail)
}

// eventKind distinguishes the two history events.
type eventKind int

const (
	evInvoke eventKind = iota + 1
	evReturn
)

// event is one history event recorded by a workload body. The global event
// order is the real-time order of the run; an event's index is its
// timestamp.
type event struct {
	proc int
	kind eventKind
	op   objtype.Op
	resp objtype.Value
}

func (e event) String() string {
	if e.kind == evInvoke {
		return fmt.Sprintf("p%d invoke %v", e.proc, e.op)
	}
	return fmt.Sprintf("p%d return %v -> %v", e.proc, e.op, e.resp)
}

// eventLog is the shared history log. The compiled body's natives append
// to it in-line, inside the scheduler's own resume call. The log is
// append-only, which is what lets a forked runner share its prefix
// (runner.fork).
type eventLog struct {
	events []event
}

// pendingOp is a recorded invocation awaiting its return event; open is
// false when the process has none.
type pendingOp struct {
	op     objtype.Op
	invoke int64
	open   bool
}

// RunRecord is the observable outcome of one run.
type RunRecord struct {
	// Schedule is the executed schedule: the pid of every step actually
	// delivered (scheduled pids that were not enabled are skipped and do
	// not appear).
	Schedule []int
	// Events is the rendered event log, in real-time order.
	Events []string
	// Tosses holds the coin-toss outcomes each process consumed.
	Tosses [][]int64
	// Failure is the detected violation, nil for a clean run.
	Failure *Failure
	// Completed reports whether every process terminated.
	Completed bool
	// Truncated reports that a zoo-algorithm run hit its step budget with
	// processes still live — expected for randomized algorithms under
	// adversarial schedules, so not a Failure. Always false for
	// constructions (their budget exhaustion is FailBudgetExhausted).
	Truncated bool
	// Steps is the number of shared-memory steps executed.
	Steps int
}

// runner drives one run step by step. It is the single-goroutine engine
// that Exhaustive, Fuzz, RunGuided, RunSchedule and ShrinkCtx all share.
// A construction runner is also the host value of its machines' compiled
// body (universal.Host), which is how the body's natives reach its event
// log.
type runner struct {
	cfg    Config
	budget int
	// Exactly one of cons/raw describes the system: cons invokes workload
	// ops through a universal construction; raw runs a zoo algorithm whose
	// whole per-process run is one operation (events are synthesized by the
	// engine — invoke at a process's first delivered step, return at its
	// termination).
	cons    universal.Construction
	wl      workload // the construction workload (cons only)
	raw     bool
	spec    algos.Spec
	typ     objtype.Type // the sequential spec the checkers run against
	invoked []bool       // raw mode: pids whose invoke event was emitted
	mem     shmem.Backend
	ms      []*machine.Machine
	log     *eventLog
	ta      machine.TossAssignment

	memo     *linz.Memo // shared by the runners of one search
	online   *linz.Online
	consumed int         // prefix of log already fed to the checker
	pending  []pendingOp // by pid
	hist     []linz.Op   // completed ops, in return order

	tossLog  [][]int64
	executed []int
	steps    int
	fail     *Failure
}

// newRunner builds the system and starts it (start): every process
// advances to its first shared-memory operation or termination. Its
// online checker runs on a new memo, which the runner's forks and
// restarts keep. digests says whether the caller reads the product state
// (appendMemoKey): exhaustive search keys its visited set on it and
// RunGuided hashes it into coverage traces. Without digests the machines
// keep no history digest, which changes nothing else a run reports.
//
// A construction runs its compiled workload body (body.go): the leading
// toss, then per operation the invoke event, the construction's Invoke and
// the return event, all appended by the body itself. A zoo algorithm's
// machines run the protocol directly, with no construction wrapper and no
// event-appending body, so step synthesizes its history events instead:
// the invoke of a process's one operation at its first delivered shared
// step, the return at its termination. A process scheduled for no steps
// has therefore not invoked, which is what lets the checker hold zoo
// algorithms to the real-time order (a completed loser before the
// winner's first step is a genuine test&set violation, and the
// doorway-less tournament mutant would produce exactly that).
func newRunner(cfg Config, digests bool) (*runner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &runner{
		cfg:     cfg,
		budget:  cfg.Budget,
		log:     &eventLog{},
		ta:      cfg.tosses(),
		pending: make([]pendingOp, cfg.N),
		tossLog: make([][]int64, cfg.N),
	}
	var alg machine.Algorithm
	if spec, ok := algos.For(cfg.Alg); ok {
		if cfg.Object != spec.Object {
			return nil, fmt.Errorf("explore: algorithm %s implements workload %q, got %q", spec.Name, spec.Object, cfg.Object)
		}
		if cfg.OpsPerProc != 1 {
			return nil, fmt.Errorf("explore: algorithm %s is one-shot: ops per process must be 1, got %d", spec.Name, cfg.OpsPerProc)
		}
		a, err := algos.New(cfg.Alg, cfg.N)
		if err != nil {
			return nil, err
		}
		alg = a
		r.raw, r.spec, r.typ = true, spec, spec.Type(cfg.N)
		r.invoked = make([]bool, cfg.N)
		if r.budget == 0 {
			r.budget = spec.Budget(cfg.N)
		}
	} else {
		w, err := workloadFor(cfg.Object)
		if err != nil {
			return nil, err
		}
		typ := w.typ()
		cons, err := newConstruction(cfg.Alg, typ, cfg.N)
		if err != nil {
			return nil, err
		}
		// The body runs only on the VM, bound to r through the host
		// value, so it has no direct-style twin.
		alg = machine.NewHosted(cfg.Alg+"+"+cfg.Object, nil, bodyChunks[cfg.Alg], r)
		r.cons, r.wl, r.typ = cons, w, typ
		if r.budget == 0 {
			r.budget = AutoBudget(cons, cfg.N, cfg.OpsPerProc)
		}
	}
	r.mem, r.memo = cfg.newBackend(), linz.NewMemo(r.typ, cfg.N)
	r.online = r.memo.NewOnline()
	r.ms = machine.StartAll(alg, cfg.N)
	if !digests {
		for _, m := range r.ms {
			m.DisableHistory() // before advance's first Peek
		}
	}
	r.start()
	return r, nil
}

// start advances every process to its first shared-memory operation (or
// termination), stopping at the first failure.
func (r *runner) start() {
	for pid := 0; pid < r.cfg.N && r.fail == nil; pid++ {
		r.advance(pid)
	}
}

// fork returns an independent copy of the runner at its current
// state: forked machines bound to the copy (machine.Machine.Fork), a
// cloned memory and online checker, and the append-only logs shared up to
// their current length (a full slice expression makes the copy's first
// append reallocate, and the origin only ever writes past that length).
// The copy shares the memo, so it must stay on the origin's goroutine.
// Stepping either runner never changes the other.
func (r *runner) fork() *runner {
	f := *r
	var host any
	if !r.raw {
		host = &f
	}
	f.ms = make([]*machine.Machine, len(r.ms))
	for i, m := range r.ms {
		f.ms[i] = m.Fork(host)
	}
	f.invoked = slices.Clone(r.invoked)
	f.mem = r.mem.Clone()
	f.log = &eventLog{events: slices.Clip(r.log.events)}
	f.online = r.online.Clone()
	f.pending = slices.Clone(r.pending)
	f.hist = slices.Clip(r.hist)
	f.tossLog = make([][]int64, len(r.tossLog))
	for pid, ts := range r.tossLog {
		f.tossLog[pid] = slices.Clip(ts)
	}
	f.executed = slices.Clip(r.executed)
	return &f
}

// advance drains pid's coin tosses until its next shared-memory operation,
// return, or crash, feeding freshly recorded history events to the online
// checker along the way.
func (r *runner) advance(pid int) {
	m := r.ms[pid]
	for {
		a := m.Peek()
		// Receiving the action synchronizes with everything the body did
		// before yielding, including its event-log appends.
		r.drainEvents()
		if r.fail != nil {
			return
		}
		switch a.Kind {
		case machine.ActToss:
			v := r.ta(pid, m.NumTosses())
			r.tossLog[pid] = append(r.tossLog[pid], v)
			m.DeliverToss(v)
		case machine.ActCrash:
			r.setFailure(FailCrash, fmt.Sprintf("process %d: %v", pid, m.Crashed()))
			return
		default: // ActOp or ActReturn
			return
		}
	}
}

// drainEvents feeds new event-log entries to the online checker and the
// accumulating history.
func (r *runner) drainEvents() {
	for ; r.consumed < len(r.log.events); r.consumed++ {
		ev := r.log.events[r.consumed]
		ts := int64(r.consumed + 1)
		var err error
		if ev.kind == evInvoke {
			r.pending[ev.proc] = pendingOp{op: ev.op, invoke: ts, open: true}
			err = r.online.Invoke(ev.proc, ev.op)
		} else {
			po := r.pending[ev.proc]
			r.pending[ev.proc] = pendingOp{}
			r.hist = append(r.hist, linz.Op{Proc: ev.proc, Op: ev.op, Response: ev.resp, Invoke: po.invoke, Return: ts})
			err = r.online.Return(ev.proc, ev.resp)
		}
		if err != nil {
			r.setFailure(FailInternal, err.Error())
			return
		}
		if !r.online.Ok() {
			r.consumed++
			r.setFailure(FailNonLinearizable, r.online.Violation())
			return
		}
	}
}

func (r *runner) setFailure(kind FailureKind, detail string) {
	if r.fail == nil {
		r.fail = &Failure{Kind: kind, Detail: detail, Step: r.steps}
	}
}

// enabled returns the pids with a pending shared-memory operation, sorted.
func (r *runner) enabled() []int { return r.appendEnabled(nil) }

// appendEnabled appends enabled's pids to dst, for a caller that reuses
// one buffer across steps.
func (r *runner) appendEnabled(dst []int) []int {
	for pid := range r.ms {
		if r.isEnabled(pid) {
			dst = append(dst, pid)
		}
	}
	return dst
}

func (r *runner) isEnabled(pid int) bool {
	if r.fail != nil {
		return false
	}
	if r.truncated() {
		// A zoo algorithm out of budget is out of schedule space: nothing
		// is enabled, and the run records as truncated rather than failed.
		return false
	}
	m := r.ms[pid]
	if m.Terminated() || m.Crashed() != nil {
		return false
	}
	return m.Peek().Kind == machine.ActOp
}

// truncated reports whether a zoo-algorithm run has exhausted its budget
// with processes still live.
func (r *runner) truncated() bool {
	return r.raw && r.steps >= r.budget && !r.done()
}

// done reports whether every process terminated.
func (r *runner) done() bool {
	for _, m := range r.ms {
		if !m.Terminated() {
			return false
		}
	}
	return true
}

// step delivers pid's pending operation to the memory and advances pid to
// its next yield. It reports whether a step was executed; a disabled pid
// (terminated, or the run already failed) is skipped.
func (r *runner) step(pid int) bool {
	if pid < 0 || pid >= r.cfg.N || !r.isEnabled(pid) {
		return false
	}
	if r.steps >= r.budget {
		// Unreachable in raw mode: isEnabled already gates on the budget
		// there, so only constructions — where exhaustion is a liveness
		// bug — reach this branch. The attempted step is recorded in the
		// schedule even though it was never delivered: replaying the
		// schedule must re-attempt it so the failure reproduces at the
		// same point.
		r.executed = append(r.executed, pid)
		r.setFailure(FailBudgetExhausted, fmt.Sprintf("budget %d exhausted with %d processes live", r.budget, len(r.enabled())))
		return false
	}
	m := r.ms[pid]
	if r.raw && !r.invoked[pid] {
		r.invoked[pid] = true
		r.log.events = append(r.log.events, event{proc: pid, kind: evInvoke, op: r.spec.Op})
	}
	a := m.Peek()
	m.DeliverOpResponse(r.mem.Apply(pid, a.Op))
	r.steps++
	r.executed = append(r.executed, pid)
	r.advance(pid)
	if r.raw && m.Terminated() {
		r.log.events = append(r.log.events, event{proc: pid, kind: evReturn, op: r.spec.Op, resp: m.ReturnValue()})
		r.drainEvents()
	}
	return true
}

// appendMemoKey appends the product state for exhaustive pruning to dst:
// machine history digests (operational local state, Lemma 5.2), the memory
// fingerprint, and the online checker's config-set key (the real-time
// linearization residue). Two prefixes with equal keys have identical
// futures under identical schedule suffixes.
//
// The key is compact binary, not a rendered string (DESIGN §11): per
// machine a one-byte enabled flag, a uvarint event count and the 8-byte
// FNV-1a history sum; then the memory's self-delimiting binary fingerprint
// (shmem.Memory.AppendFingerprint); then the length-prefixed checker key.
// Every component is either fixed-size or length-prefixed, so the
// concatenation is injective given cfg.N — no separators needed. Callers
// reuse dst across DFS nodes and convert to string only for the map lookup.
// The runner must keep digests (newRunner).
func (r *runner) appendMemoKey(dst []byte) []byte {
	for _, m := range r.ms {
		ev, sum, enabled := m.HistoryDigest()
		if !enabled {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1)
		dst = binary.AppendUvarint(dst, uint64(ev))
		dst = binary.LittleEndian.AppendUint64(dst, sum)
	}
	dst = r.mem.AppendFingerprint(dst)
	key := r.online.Key()
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	return append(dst, key...)
}

// history assembles the linz history observed so far; incomplete
// invocations become pending ops.
func (r *runner) history() *linz.History {
	h := linz.NewHistory(r.cfg.N)
	for _, op := range r.hist {
		h.Add(op.Proc, op.Op, op.Response, op.Invoke, op.Return)
	}
	for pid := 0; pid < r.cfg.N; pid++ {
		if po := r.pending[pid]; po.open {
			h.AddPending(pid, po.op, po.invoke)
		}
	}
	return h
}

// finalCheck cross-validates the online checker with a post-hoc
// linz.Check on the history so far. The online checker has already
// accepted every prefix, so a post-hoc rejection means the two checkers
// disagree — a harness bug, reported as FailInternal.
func (r *runner) finalCheck() error {
	if r.fail != nil {
		return nil
	}
	res, err := linz.Check(r.typ, r.history())
	if err != nil {
		return fmt.Errorf("explore: final history check: %w", err)
	}
	if !res.Linearizable {
		r.setFailure(FailInternal, "post-hoc linz.Check rejects a history the online checker accepted")
	}
	return nil
}

// record snapshots the run.
func (r *runner) record() *RunRecord {
	rec := &RunRecord{
		Schedule:  append([]int(nil), r.executed...),
		Tosses:    make([][]int64, r.cfg.N),
		Failure:   r.fail,
		Completed: r.done(),
		Truncated: r.truncated(),
		Steps:     r.steps,
	}
	for pid := range r.tossLog {
		rec.Tosses[pid] = append([]int64(nil), r.tossLog[pid]...)
	}
	for _, ev := range r.log.events[:r.consumed] {
		rec.Events = append(rec.Events, ev.String())
	}
	return rec
}

// RunSchedule replays an explicit schedule: step i delivers the pending
// operation of process schedule[i], skipping entries whose process is not
// enabled (so shrunk schedules remain valid). The run stops at the end of
// the schedule, on the first failure, or when all processes terminate; a
// completed run is post-hoc checked with linz.Check.
func RunSchedule(cfg Config, schedule []int) (*RunRecord, error) {
	r, err := newRunner(cfg, false)
	if err != nil {
		return nil, err
	}
	if err := r.runSchedule(schedule); err != nil {
		return nil, err
	}
	return r.record(), nil
}

// runSchedule runs schedule on r by RunSchedule's rules.
func (r *runner) runSchedule(schedule []int) error {
	for _, pid := range schedule {
		if r.fail != nil || r.done() {
			break
		}
		r.step(pid)
	}
	if r.done() {
		return r.finalCheck()
	}
	return nil
}

// restart puts r back where newRunner left it, for the next run of the
// same configuration: it truncates every log a run appends to (keeping
// their capacity), clears the per-run counters and the failure, resets
// the machines in place (machine.Machine.Reset), gives the run a fresh
// memory and the online checker its memo's initial set, and then starts
// the processes again. What runs only read stays: the configuration and
// its toss assignment, the construction or zoo algorithm, the compiled
// body's binding to r, and the memo. A restarted runner stepped along a
// schedule records exactly what a new runner would.
func (r *runner) restart() {
	r.log.events = r.log.events[:0]
	r.hist = r.hist[:0]
	r.executed = r.executed[:0]
	for pid := range r.tossLog {
		r.tossLog[pid] = r.tossLog[pid][:0]
	}
	clear(r.pending)
	clear(r.invoked)
	r.consumed, r.steps, r.fail = 0, 0, nil
	r.mem = r.cfg.newBackend()
	r.online = r.memo.NewOnline()
	for _, m := range r.ms {
		if !m.Reset() {
			panic("explore: restart of a runner with a goroutine machine")
		}
	}
	r.start()
}
