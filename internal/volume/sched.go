package volume

import (
	"traxtents/internal/device/sched"
)

// The tenant-aware tier schedulers plug into sched.Queue but read
// per-request tenant metadata the Pending record does not carry: the
// Manager stores each accepted span's sort key (SFQ start tag or EDF
// deadline) in the shard's route for it, so Pick reads
// routes[cands[i].Seq-routeBase].key. Routes hold only the current
// batch, so the keys take no memory beyond the requests in flight.
// Both break ties by arrival order (strict <, first candidate wins),
// keeping runs bit-reproducible.

// key returns the sort key of the span the shard's tier numbered seq.
func (s *shard) key(seq int) float64 { return s.routes[seq-s.routeBase].key }

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
	best, bestTag := 0, f.sh.key(cands[0].Seq)
	for i := 1; i < len(cands); i++ {
		if tag := f.sh.key(cands[i].Seq); tag < bestTag {
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
	best, bestD := 0, e.sh.key(cands[0].Seq)
	for i := 1; i < len(cands); i++ {
		if d := e.sh.key(cands[i].Seq); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
