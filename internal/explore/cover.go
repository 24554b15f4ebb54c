package explore

import (
	"math/rand"
	"slices"

	"jayanti98/internal/sweep"
)

// This file is the coverage layer of the exploration harness: state-digest
// traces of individual runs, the Coverage set campaigns (internal/campaign)
// accumulate them into, and the seeded random walk that RunGuided and
// Fuzz share: it replays a schedule prefix and finishes it at random.
//
// A run's coverage trace is the sequence of *product-state digests* it
// reaches — the same product state exhaustive search memoizes on
// (appendMemoKey: machine history digests, memory fingerprint, online
// checker configuration key), folded to 64 bits with FNV-1a. Two runs that
// reach the same digest reached observationally identical states, so a
// schedule is "interesting" exactly when its trace contains a digest no
// earlier input produced. The digest is engine-independent: the lockstep
// harness (internal/lockstep) proves machine digests and memory
// fingerprints agree between the goroutine interpreter and the bytecode
// VM.

// CoverRecord is a RunRecord plus the run's coverage trace.
type CoverRecord struct {
	*RunRecord
	// Trace holds the distinct product-state digests the run reached, in
	// first-reached order (the initial state's digest included). Repeat
	// visits within the run are not repeated in the trace.
	Trace []uint64
}

// FNV-1a 64-bit parameters (the same folding machine digests use).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvSum64 folds b with FNV-1a.
func fnvSum64(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// stateDigest folds the runner's current product state (appendMemoKey)
// into a 64-bit digest, reusing buf as scratch.
func (r *runner) stateDigest(buf *[]byte) uint64 {
	*buf = r.appendMemoKey((*buf)[:0])
	return fnvSum64(*buf)
}

// Walker runs the seeded random walks of one configuration, one after
// another on one goroutine. Its first walk builds the system (newRunner);
// every later walk restarts that runner in place (runner.restart) and
// re-seeds the walker's two sources, which (*rand.Rand).Seed does exactly,
// so a walk costs only its steps and every walk is the one a new walker
// would take. The runner's online checker keeps one memo across the
// walks. A walker lives for one call — a Fuzz campaign, a campaign round —
// so the memo's scope stays one search; callers running walks in parallel
// keep one walker per worker. A Walker is not safe for concurrent use.
type Walker struct {
	cfg     Config
	digests bool
	r       *runner
	// rng picks the enabled process to step; tossRng feeds cfg.Tosses.
	rng, tossRng *rand.Rand

	// Trace state of the current walk (digests only).
	keyBuf []byte
	seen   map[uint64]struct{}
	trace  []uint64
}

// NewWalker returns a walker of coverage-traced runs of cfg (RunGuided)
// whose coin tosses are drawn uniformly from [0, tossRange); tossRange <=
// 0 means 2. cfg is checked by the first walk.
func NewWalker(cfg Config, tossRange int64) *Walker {
	return newWalker(cfg, tossRange, true)
}

// newWalker is NewWalker with the choice of digests: a walker without
// them keeps no history digests and computes no trace, which is what Fuzz
// samples need and changes nothing else a walk records.
func newWalker(cfg Config, tossRange int64, digests bool) *Walker {
	if tossRange <= 0 {
		tossRange = 2
	}
	w := &Walker{digests: digests, rng: sweep.NewRand(0), tossRng: sweep.NewRand(0)}
	cfg.Tosses = func(int, int) int64 { return w.tossRng.Int63n(tossRange) }
	w.cfg = cfg
	if digests {
		w.seen = make(map[uint64]struct{}, 64)
	}
	return w
}

// RunGuided executes one coverage-traced run: the schedule prefix is
// replayed first (entries whose process is not enabled are skipped, the
// RunSchedule contract), then enabled processes are stepped uniformly at
// random until every process terminates, the run fails, or the budget is
// exhausted. A nil or empty prefix is a pure random walk — exactly the
// runs Fuzz samples, since both run walk.
//
// Coin tosses come from an RNG seeded with sweep.Derive(seed, 1), and the
// schedule RNG is seeded with seed itself — so the whole run, tosses
// included, is a pure function of (cfg, prefix, seed, tossRange), whatever
// the walker ran before, and reproduces bit-for-bit from the returned
// record's Schedule and Tosses.
func (w *Walker) RunGuided(prefix []int, seed int64) (*CoverRecord, error) {
	r, err := w.walk(prefix, seed)
	if err != nil {
		return nil, err
	}
	return &CoverRecord{RunRecord: r.record(), Trace: w.trace}, nil
}

// walk is the one seeded random walk behind RunGuided and Fuzz (see
// RunGuided for its rules). It returns the walker's runner, which the
// next walk restarts: take what the run recorded before then.
func (w *Walker) walk(prefix []int, seed int64) (*runner, error) {
	w.rng.Seed(seed)
	w.tossRng.Seed(sweep.Derive(seed, 1))
	if w.r == nil {
		r, err := newRunner(w.cfg, w.digests)
		if err != nil {
			return nil, err
		}
		w.r = r
	} else {
		w.r.restart()
	}
	r := w.r
	if w.digests {
		clear(w.seen)
		w.trace = nil
	}
	w.mark() // the initial product state
	for _, pid := range prefix {
		if r.fail != nil || r.done() {
			break
		}
		if r.step(pid) {
			w.mark()
		}
	}
	var en []int
	for r.fail == nil && !r.done() {
		en = r.appendEnabled(en[:0])
		if len(en) == 0 {
			break
		}
		if r.step(en[w.rng.Intn(len(en))]) {
			w.mark()
		}
	}
	if r.done() {
		if err := r.finalCheck(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// mark appends the runner's product-state digest to the walk's trace
// unless the walk reached it before. A walker without digests marks
// nothing.
func (w *Walker) mark() {
	if !w.digests {
		return
	}
	d := w.r.stateDigest(&w.keyBuf)
	if _, ok := w.seen[d]; ok {
		return
	}
	w.seen[d] = struct{}{}
	w.trace = append(w.trace, d)
}

// Coverage is a set of product-state digests — the novelty map a campaign
// accumulates across runs. It is not safe for concurrent use; campaigns
// merge traces single-threaded in input order, which is what makes corpus
// evolution deterministic.
type Coverage struct {
	set map[uint64]struct{}
}

// NewCoverage returns an empty coverage map.
func NewCoverage() *Coverage {
	return &Coverage{set: make(map[uint64]struct{})}
}

// NewCoverageFrom builds a coverage map holding the given digests
// (checkpoint restore).
func NewCoverageFrom(digests []uint64) *Coverage {
	c := &Coverage{set: make(map[uint64]struct{}, len(digests))}
	for _, d := range digests {
		c.set[d] = struct{}{}
	}
	return c
}

// Len returns the number of distinct digests covered.
func (c *Coverage) Len() int { return len(c.set) }

// Has reports whether d is already covered.
func (c *Coverage) Has(d uint64) bool {
	_, ok := c.set[d]
	return ok
}

// AddTrace inserts a run's trace and returns the digests that were new, in
// trace order. An empty return means the run reached nothing novel.
func (c *Coverage) AddTrace(trace []uint64) []uint64 {
	var fresh []uint64
	for _, d := range trace {
		if _, ok := c.set[d]; ok {
			continue
		}
		c.set[d] = struct{}{}
		fresh = append(fresh, d)
	}
	return fresh
}

// Merge inserts every digest of other, returning how many were new.
func (c *Coverage) Merge(other *Coverage) int {
	added := 0
	for d := range other.set {
		if _, ok := c.set[d]; !ok {
			c.set[d] = struct{}{}
			added++
		}
	}
	return added
}

// Snapshot returns the covered digests in ascending order — the canonical
// wire/checkpoint form (two equal maps snapshot to equal slices).
func (c *Coverage) Snapshot() []uint64 {
	out := make([]uint64, 0, len(c.set))
	for d := range c.set {
		out = append(out, d)
	}
	slices.Sort(out)
	return out
}

// Digest folds the coverage set to one order-independent 64-bit value
// (each member is mixed through FNV and XOR-combined), so two maps can be
// compared cheaply in tests and stats lines.
func (c *Coverage) Digest() uint64 {
	var acc uint64
	var buf [8]byte
	for d := range c.set {
		for i := 0; i < 8; i++ {
			buf[i] = byte(d >> (8 * i))
		}
		acc ^= fnvSum64(buf[:])
	}
	return acc
}
