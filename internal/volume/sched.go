package volume

import (
	"traxtents/internal/device/sched"
)

// The tenant-aware tier schedulers plug into sched.Queue but read
// per-request tenant metadata the Pending record does not carry: the
// Manager appends one tag per accepted submission, in the tier's
// sequence order, so Pick can index seqTag/seqDeadline
// by cands[i].Seq. Both break ties by arrival order (strict <, first
// candidate wins), keeping runs bit-reproducible.

// fairShare is start-time fair queueing (SFQ) across tenants: each
// submission carries a start tag S = max(v, tenant.lastFinish) and
// advances the tenant's finish tag by sectors/weight; dispatch picks
// the smallest start tag and advances the shard's virtual time v to
// it. Backlogged tenants therefore share a shard's service in
// proportion to their weights, regardless of how bursty each one is.
type fairShare struct {
	sh *shard
}

func (f *fairShare) Name() string { return tierFair }

func (f *fairShare) Pick(cands []sched.Pending, head int64) int {
	best, bestTag := 0, f.sh.seqTag[cands[0].Seq]
	for i := 1; i < len(cands); i++ {
		if tag := f.sh.seqTag[cands[i].Seq]; tag < bestTag {
			best, bestTag = i, tag
		}
	}
	if bestTag > f.sh.vtime {
		f.sh.vtime = bestTag
	}
	return best
}

// edf is earliest-deadline-first: each submission's deadline is its
// release instant plus the tenant's deadline budget, and dispatch
// picks the most urgent candidate.
type edf struct {
	sh *shard
}

func (e *edf) Name() string { return tierEDF }

func (e *edf) Pick(cands []sched.Pending, head int64) int {
	best, bestD := 0, e.sh.seqDeadline[cands[0].Seq]
	for i := 1; i < len(cands); i++ {
		if d := e.sh.seqDeadline[cands[i].Seq]; d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
