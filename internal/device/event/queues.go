package event

import (
	"fmt"

	"traxtents/internal/device/sched"
)

// Queues makes a fleet of sched.Queue instances citizens of one event
// core. Each queue contributes at most one live event — its next
// dispatch-decision instant per Queue.NextDecision — and a fired event
// commits exactly one decision (Queue.ForceNext), reports it through
// onCommit, and reschedules the queue's next instant. Ties between
// queues resolve by schedule order: the fleet commits simultaneous
// decisions in Touch order, which for a batch of identical arrivals is
// queue-index order — deterministic at any GOMAXPROCS, unlike the
// slice-position order a time-only join would inherit.
//
// Invalidation is lazy, by generation tag: Touch bumps the queue's
// generation and schedules a fresh event instead of deleting the old
// one; stale generations are dropped when popped. The tag packs
// (generation, queue index), so firing allocates nothing.
//
// The adapter is for owners whose arrivals are themselves events on
// the core (driver.Fleet, workload.RebuildUnderLoad), so a queue's
// decisions must interleave with them on one clock. Independent queues
// fed from outside need no core: each one's AdvanceTo or Flush, in
// index order, commits the same decisions.
type Queues struct {
	core *Core
	id   HandlerID
	qs   []*sched.Queue
	gen  []uint32
	at   []float64
	live []bool
	// onCommit observes each committed decision, by queue index, in
	// global (time, seq) order. It runs with the queue's completion
	// buffer already holding the decision's completions (if any); this
	// is the hook owners use to fold results.
	onCommit func(i int) error
}

// NewQueues registers a fleet adapter for qs on core. onCommit may be
// nil.
func NewQueues(core *Core, qs []*sched.Queue, onCommit func(i int) error) *Queues {
	f := &Queues{
		core:     core,
		qs:       qs,
		gen:      make([]uint32, len(qs)),
		at:       make([]float64, len(qs)),
		live:     make([]bool, len(qs)),
		onCommit: onCommit,
	}
	f.id = core.Register(f)
	return f
}

// Touch re-reads queue i's next decision instant and (re)schedules its
// event if the instant is new. Call it after anything that can move
// the queue's decision point: a Submit, an out-of-band Serve, a
// Replace. Touching a slot whose instant is unchanged is a no-op, so
// the cost of redundant touches is one NextDecision call.
func (f *Queues) Touch(i int) error {
	nd, ok := f.qs[i].NextDecision()
	if !ok {
		f.live[i] = false
		return nil
	}
	if f.live[i] && f.at[i] == nd {
		return nil
	}
	f.gen[i]++
	f.live[i] = true
	f.at[i] = nd
	return f.core.Schedule(nd, f.id, int64(f.gen[i])<<32|int64(uint32(i)))
}

// Update replaces the queue in slot i (e.g. after a rebuild swaps in a
// fresh spindle) and reschedules its event.
func (f *Queues) Update(i int, q *sched.Queue) error {
	f.qs[i] = q
	f.live[i] = false
	return f.Touch(i)
}

// Fire implements Handler: commit one dispatch decision on the tagged
// queue. Stale generations drop silently. A queue whose decision
// instant moved since scheduling (an out-of-band Serve or Flush ran
// it forward) is not committed at the stale instant; the event
// reschedules at the queue's current instant instead, so the adapter
// self-heals rather than double-dispatching.
func (f *Queues) Fire(now float64, tag int64) error {
	i := int(uint32(tag))
	g := uint32(tag >> 32)
	if i >= len(f.qs) {
		return fmt.Errorf("event: queue tag %d out of range", i)
	}
	if !f.live[i] || f.gen[i] != g {
		return nil
	}
	f.live[i] = false
	q := f.qs[i]
	if err := q.Err(); err != nil {
		return err
	}
	nd, ok := q.NextDecision()
	if !ok {
		return nil
	}
	if nd != now {
		return f.Touch(i)
	}
	if !q.ForceNext() {
		if err := q.Err(); err != nil {
			return err
		}
		return nil
	}
	if f.onCommit != nil {
		if err := f.onCommit(i); err != nil {
			return err
		}
	}
	return f.Touch(i)
}
