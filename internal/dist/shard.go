// Package dist runs shardable jobs across a fleet of pull-based lbworker
// processes. The coordinator splits a job's coordinates [0, n) into
// contiguous ranges (Partition), leases each range to a polling worker
// over HTTP, re-leases the ranges of workers that crash or stall, checks
// each upload against its content hash, and hands the parts to
// jobs.MergeParts in range order. A worker runs its range with
// jobs.RunPart.
//
// dist knows nothing of job kinds. Which specs shard, how a range runs
// and how parts assemble are each kind's coordinate map in internal/jobs,
// the same code a local run executes as the one-part run [0, n). Every
// coordinate derives its seed from its own index, so moving a range
// boundary, re-leasing a range after a crash, or running the whole job
// locally cannot change a byte of the result. That is also why giving up
// on the fleet is always safe: when the workers vanish, a range poisons
// every worker that takes it, or an upload is too large or does not
// merge, Run declines and the scheduler recomputes the job locally.
package dist

// Range is a half-open interval [Lo, Hi) of coordinate indices — one
// shard's slice of the job.
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Len returns the number of coordinates in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Partition splits n coordinates into at most `shards` contiguous,
// near-equal ranges that cover [0, n) in order. Fewer than `shards`
// ranges come back when there are fewer coordinates than shards (a
// shard always holds at least one coordinate); zero coordinates yield
// no ranges. The split is deterministic: the first n mod s ranges are
// one coordinate longer.
func Partition(n, shards int) []Range {
	if n <= 0 {
		return nil
	}
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	out := make([]Range, 0, shards)
	width, extra := n/shards, n%shards
	lo := 0
	for i := 0; i < shards; i++ {
		hi := lo + width
		if i < extra {
			hi++
		}
		out = append(out, Range{Lo: lo, Hi: hi})
		lo = hi
	}
	return out
}
