package explore

import (
	"math/rand"
	"slices"

	"jayanti98/internal/linz"
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

// RunGuided executes one coverage-traced run: the schedule prefix is
// replayed first (entries whose process is not enabled are skipped, the
// RunSchedule contract), then enabled processes are stepped uniformly at
// random until every process terminates, the run fails, or the budget is
// exhausted. A nil or empty prefix is a pure random walk — exactly the
// runs Fuzz samples, since both run walk.
//
// Coin tosses are drawn uniformly from [0, tossRange) (tossRange <= 0
// means 2) from an RNG derived from seed, and the schedule RNG is seeded
// with seed itself — so the whole run, tosses included, is a pure function
// of (cfg, prefix, seed, tossRange) and reproduces bit-for-bit from the
// returned record's Schedule and Tosses.
func RunGuided(cfg Config, prefix []int, seed int64, tossRange int64) (*CoverRecord, error) {
	var keyBuf []byte
	seen := make(map[uint64]struct{}, 64)
	rec := &CoverRecord{}
	mark := func(r *runner) {
		d := r.stateDigest(&keyBuf)
		if _, ok := seen[d]; ok {
			return
		}
		seen[d] = struct{}{}
		rec.Trace = append(rec.Trace, d)
	}
	r, err := walk(cfg, prefix, seed, tossRange, nil, mark)
	if err != nil {
		return nil, err
	}
	rec.RunRecord = r.record()
	return rec, nil
}

// walk is the one seeded random walk behind RunGuided and Fuzz (see
// RunGuided for its rules). Its runner checks on memo (nil: a private one,
// which the returned runner's memo field then holds). mark, when not nil,
// sees the initial state and the state after every delivered step; Fuzz
// passes nil, so its runner keeps no history digests and no state digest
// is computed.
func walk(cfg Config, prefix []int, seed, tossRange int64, memo *linz.Memo, mark func(*runner)) (*runner, error) {
	if tossRange <= 0 {
		tossRange = 2
	}
	digests := mark != nil
	if !digests {
		mark = func(*runner) {}
	}
	rng := rand.New(rand.NewSource(seed))
	tossRng := rand.New(rand.NewSource(sweep.Derive(seed, 1)))
	cfg.Tosses = func(int, int) int64 { return tossRng.Int63n(tossRange) }
	r, err := newRunner(cfg, memo, digests)
	if err != nil {
		return nil, err
	}
	mark(r) // the initial product state
	for _, pid := range prefix {
		if r.fail != nil || r.done() {
			break
		}
		if r.step(pid) {
			mark(r)
		}
	}
	var en []int
	for r.fail == nil && !r.done() {
		en = r.appendEnabled(en[:0])
		if len(en) == 0 {
			break
		}
		if r.step(en[rng.Intn(len(en))]) {
			mark(r)
		}
	}
	if r.done() {
		if err := r.finalCheck(); err != nil {
			return nil, err
		}
	}
	return r, nil
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
