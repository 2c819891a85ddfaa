package event

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"traxtents/internal/device"
	"traxtents/internal/device/sched"
	"traxtents/internal/disk/model"
	"traxtents/internal/disk/sim"
)

// newSim builds a fresh simulated disk of the smallest Table 1 model.
func newSim(t testing.TB, seed int64) *sim.Disk {
	t.Helper()
	m := model.MustGet("HP-C2247")
	cfg := m.DefaultConfig()
	cfg.Seed = seed
	d, err := m.NewDisk(cfg)
	if err != nil {
		t.Fatalf("NewDisk: %v", err)
	}
	return d
}

func newQueue(t testing.TB, seed int64, opts ...sched.Option) *sched.Queue {
	t.Helper()
	q, err := sched.New(newSim(t, seed), opts...)
	if err != nil {
		t.Fatalf("sched.New: %v", err)
	}
	return q
}

// fleetWorkload builds per-queue request streams with interleaved,
// non-decreasing issue times and plenty of exact time ties across
// queues.
func fleetWorkload(capacity int64, nq, perQ int, seed int64) ([][]device.Request, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([][]device.Request, nq)
	issues := make([][]float64, nq)
	at := 0.0
	for i := 0; i < perQ; i++ {
		// Every queue gets an arrival at this instant — cross-queue ties
		// at every step.
		for c := 0; c < nq; c++ {
			sect := 8 + rng.Intn(64)
			reqs[c] = append(reqs[c], device.Request{
				LBN:     rng.Int63n(capacity - int64(sect)),
				Sectors: sect,
				Write:   rng.Intn(5) == 0,
			})
			issues[c] = append(issues[c], at)
		}
		at += rng.Float64() * 3
	}
	return reqs, issues
}

// TestQueuesMatchesLegacyDrain is the differential pin for the fleet
// adapter: a fleet advanced on one event core must produce bit-identical
// completions, per queue, to the legacy per-queue Submit/Drain path.
func TestQueuesMatchesLegacyDrain(t *testing.T) {
	const nq, perQ = 8, 120
	reqs, issues := fleetWorkload(newSim(t, 1).Capacity(), nq, perQ, 23)

	// Legacy: independent queues, per-queue drain.
	want := make([][]sched.Completion, nq)
	for c := 0; c < nq; c++ {
		q := newQueue(t, int64(c+1), sched.WithScheduler(sched.CLOOK()), sched.WithDepth(4))
		for i := range reqs[c] {
			if _, err := q.Submit(issues[c][i], reqs[c][i]); err != nil {
				t.Fatalf("legacy submit q%d #%d: %v", c, i, err)
			}
		}
		cs, err := q.Drain()
		if err != nil {
			t.Fatalf("legacy drain q%d: %v", c, err)
		}
		want[c] = cs
	}

	// Event core: same queues as fleet citizens; completions folded per
	// commit through ConsumeCompleted.
	core := New()
	qs := make([]*sched.Queue, nq)
	for c := 0; c < nq; c++ {
		qs[c] = newQueue(t, int64(c+1), sched.WithScheduler(sched.CLOOK()), sched.WithDepth(4))
	}
	got := make([][]sched.Completion, nq)
	var fleet *Queues
	fleet = NewQueues(core, qs, func(i int) error {
		fleet.Queue(i).ConsumeCompleted(func(cp *sched.Completion) {
			got[i] = append(got[i], *cp)
		})
		return nil
	})
	for i := 0; i < perQ; i++ {
		for c := 0; c < nq; c++ {
			at := issues[c][i]
			if err := fleet.AdvanceTo(at); err != nil {
				t.Fatalf("advance to %g: %v", at, err)
			}
			if _, err := qs[c].Submit(at, reqs[c][i]); err != nil {
				t.Fatalf("fleet submit q%d #%d: %v", c, i, err)
			}
			if err := fleet.Touch(c); err != nil {
				t.Fatalf("touch q%d: %v", c, err)
			}
		}
	}
	if err := fleet.Drain(); err != nil {
		t.Fatalf("fleet drain: %v", err)
	}
	for c := 0; c < nq; c++ {
		// Any residue the event run left undispatched would show here.
		if n := qs[c].Pending(); n != 0 {
			t.Fatalf("q%d still has %d pending after fleet drain", c, n)
		}
		if !reflect.DeepEqual(got[c], want[c]) {
			t.Fatalf("queue %d diverged from legacy drain:\nevent: %+v\nlegacy: %+v", c, got[c], want[c])
		}
	}
	if core.Pending() != 0 {
		t.Fatalf("%d events pending after drain", core.Pending())
	}
}

// TestQueuesExactTieDeterminism is the regression test for the
// simultaneous-completion ordering bug: two identical spindles fed
// identical streams produce bit-for-bit equal decision instants, and
// the commit order must be the Touch (schedule) order — stable across
// GOMAXPROCS settings, not whatever slice or map order a time-only
// join would fall into.
func TestQueuesExactTieDeterminism(t *testing.T) {
	run := func(t *testing.T, flip bool) []int {
		core := New()
		qs := []*sched.Queue{
			newQueue(t, 7, sched.WithScheduler(sched.CLOOK()), sched.WithDepth(2)),
			newQueue(t, 7, sched.WithScheduler(sched.CLOOK()), sched.WithDepth(2)),
		}
		var commits []int
		fleet := NewQueues(core, qs, func(i int) error {
			commits = append(commits, i)
			return nil
		})
		// Identical request sequences at identical instants: every
		// decision instant ties exactly across the two queues.
		reqs := []device.Request{
			{LBN: 5000, Sectors: 16},
			{LBN: 90000, Sectors: 8},
			{LBN: 200, Sectors: 32},
			{LBN: 44000, Sectors: 16},
		}
		order := []int{0, 1}
		if flip {
			order = []int{1, 0}
		}
		// All arrivals at one instant: Submit's internal strict advance
		// commits nothing, so every decision flows through the fleet.
		for _, req := range reqs {
			at := 0.0
			for _, c := range order {
				if _, err := qs[c].Submit(at, req); err != nil {
					t.Fatalf("submit q%d: %v", c, err)
				}
				if err := fleet.Touch(c); err != nil {
					t.Fatalf("touch q%d: %v", c, err)
				}
			}
		}
		if err := fleet.Drain(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		if len(commits) != 2*len(reqs) {
			t.Fatalf("%d commits for %d dispatches", len(commits), 2*len(reqs))
		}
		// Sanity: the two spindles really did tie — identical clocks.
		if qs[0].Now() != qs[1].Now() {
			t.Fatalf("identical spindles diverged: %g vs %g", qs[0].Now(), qs[1].Now())
		}
		return commits
	}

	for _, procs := range []int{1, 4, 16} {
		t.Run(map[int]string{1: "gomaxprocs-1", 4: "gomaxprocs-4", 16: "gomaxprocs-16"}[procs], func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			straight := run(t, false)
			flipped := run(t, true)
			for i, c := range straight {
				// Tied decisions commit in Touch order: queue 0 first.
				if want := i % 2; c != want {
					t.Fatalf("straight run commit %d = q%d, want q%d (schedule order)", i, c, want)
				}
				// And the order is a property of the schedule order, not
				// of queue identity or slice position: flipping the
				// submission order flips every tie.
				if flipped[i] != 1-c {
					t.Fatalf("flipped run commit %d = q%d, want q%d", i, flipped[i], 1-c)
				}
			}
		})
	}
}

// TestQueuesStaleEventSelfHeal pins lazy invalidation: an out-of-band
// Flush moves a queue's decision history past its scheduled event; the
// stale event must neither double-dispatch nor error, and a fresh
// Touch must keep the fleet live.
func TestQueuesStaleEventSelfHeal(t *testing.T) {
	core := New()
	q := newQueue(t, 3, sched.WithScheduler(sched.CLOOK()), sched.WithDepth(2))
	var commits int
	fleet := NewQueues(core, []*sched.Queue{q}, func(int) error {
		commits++
		return nil
	})
	for i, lbn := range []int64{1000, 50000, 9000} {
		if _, err := q.Submit(float64(i)*0.01, device.Request{LBN: lbn, Sectors: 8}); err != nil {
			t.Fatalf("submit: %v", err)
		}
		if err := fleet.Touch(0); err != nil {
			t.Fatalf("touch: %v", err)
		}
	}
	// Out-of-band barrier: the queue dispatches everything itself.
	if err := q.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	drained, err := q.Drain()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(drained) != 3 {
		t.Fatalf("barrier drained %d of 3", len(drained))
	}
	// The fleet's scheduled events are now all stale; draining the core
	// must commit nothing extra.
	if err := fleet.Drain(); err != nil {
		t.Fatalf("fleet drain: %v", err)
	}
	if commits != 0 {
		t.Fatalf("stale events committed %d dispatches after an out-of-band flush", commits)
	}
	// The slot keeps working afterwards.
	if _, err := q.Submit(10, device.Request{LBN: 77, Sectors: 8}); err != nil {
		t.Fatalf("submit after heal: %v", err)
	}
	if err := fleet.Touch(0); err != nil {
		t.Fatalf("touch after heal: %v", err)
	}
	if err := fleet.Drain(); err != nil {
		t.Fatalf("drain after heal: %v", err)
	}
	if commits != 1 {
		t.Fatalf("commits=%d after heal, want 1", commits)
	}
}

// TestQueuesNilSlotAndUpdate covers mixed fleets (nil slots are inert)
// and Update (a replaced queue reschedules cleanly).
func TestQueuesNilSlotAndUpdate(t *testing.T) {
	core := New()
	q0 := newQueue(t, 11, sched.WithScheduler(sched.CLOOK()), sched.WithDepth(2))
	var commits []int
	fleet := NewQueues(core, []*sched.Queue{q0, nil}, func(i int) error {
		commits = append(commits, i)
		return nil
	})
	if fleet.Len() != 2 || fleet.Queue(1) != nil {
		t.Fatalf("fleet shape wrong: len=%d q1=%v", fleet.Len(), fleet.Queue(1))
	}
	if err := fleet.Touch(1); err != nil {
		t.Fatalf("touch nil slot: %v", err)
	}
	if _, err := q0.Submit(0, device.Request{LBN: 100, Sectors: 8}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := fleet.Touch(0); err != nil {
		t.Fatalf("touch: %v", err)
	}
	// Replace slot 0 mid-run: the old queue's event goes stale, the new
	// queue's decisions flow.
	q1 := newQueue(t, 12, sched.WithScheduler(sched.CLOOK()), sched.WithDepth(2))
	if _, err := q1.Submit(0, device.Request{LBN: 500, Sectors: 8}); err != nil {
		t.Fatalf("submit new: %v", err)
	}
	if err := fleet.Update(0, q1); err != nil {
		t.Fatalf("update: %v", err)
	}
	if fleet.Queue(0) != q1 {
		t.Fatal("Update did not swap the slot")
	}
	if err := fleet.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(commits) != 1 || commits[0] != 0 {
		t.Fatalf("commits=%v, want exactly one from slot 0's new queue", commits)
	}
	if got := q1.Stats().Dispatched; got != 1 {
		t.Fatalf("new queue dispatched %d, want 1", got)
	}
	if got := q0.Stats().Dispatched; got != 0 {
		t.Fatalf("replaced queue dispatched %d, want 0", got)
	}
}

// TestQueueAdvanceThroughBoundary is the satellite boundary pin for
// sched.Queue's two cuts at t == decision instant: AdvanceTo(t) leaves
// a decision landing exactly at t uncommitted (an arrival at t could
// still join it), AdvanceThrough(t) commits it, and the two agree with
// the event core's AdvanceBefore/AdvanceTo pair.
func TestQueueAdvanceThroughBoundary(t *testing.T) {
	mk := func() *sched.Queue {
		return newQueue(t, 5, sched.WithScheduler(sched.CLOOK()), sched.WithDepth(2))
	}

	t.Run("queue cuts", func(t *testing.T) {
		q := mk()
		if _, err := q.Submit(1.0, device.Request{LBN: 1000, Sectors: 8}); err != nil {
			t.Fatalf("submit: %v", err)
		}
		nd, ok := q.NextDecision()
		if !ok {
			t.Fatal("no decision pending")
		}
		if nd != 1.0 {
			t.Fatalf("idle queue's first decision at %g, want the arrival instant 1", nd)
		}
		if err := q.AdvanceTo(nd); err != nil {
			t.Fatalf("AdvanceTo: %v", err)
		}
		if got := q.Stats().Dispatched; got != 0 {
			t.Fatalf("strict cut at t==decision dispatched %d, want 0", got)
		}
		// A later arrival at exactly nd is still a legal candidate after
		// the strict cut — the reason the cut is strict.
		if _, err := q.Submit(nd, device.Request{LBN: 1008, Sectors: 8}); err != nil {
			t.Fatalf("submit at boundary: %v", err)
		}
		if err := q.AdvanceThrough(nd); err != nil {
			t.Fatalf("AdvanceThrough: %v", err)
		}
		if got := q.Stats().Dispatched; got != 1 {
			t.Fatalf("inclusive cut at t==decision dispatched %d, want 1", got)
		}
		if err := q.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
	})

	t.Run("completion instant", func(t *testing.T) {
		// The same boundary from the completion side: with one request
		// done at time d, AdvanceThrough(d) commits every decision
		// through d while AdvanceTo(d) stops short of one landing at d.
		probe := mk()
		res, err := probe.Serve(0, device.Request{LBN: 1000, Sectors: 8})
		if err != nil {
			t.Fatalf("probe serve: %v", err)
		}
		free := res.MediaEnd // head-free instant = the next decision time

		strict, inclusive := mk(), mk()
		for _, q := range []*sched.Queue{strict, inclusive} {
			if _, err := q.Submit(0, device.Request{LBN: 1000, Sectors: 8}); err != nil {
				t.Fatalf("submit: %v", err)
			}
			if _, err := q.Submit(0, device.Request{LBN: 1000 + 8, Sectors: 8}); err != nil {
				t.Fatalf("submit: %v", err)
			}
		}
		// Both commit the first dispatch (decision at 0 < free); only
		// the inclusive cut commits the second, whose decision instant
		// is exactly the first request's head-free time.
		if err := strict.AdvanceTo(free); err != nil {
			t.Fatalf("AdvanceTo: %v", err)
		}
		if got := strict.Stats().Dispatched; got != 1 {
			t.Fatalf("AdvanceTo(completion) dispatched %d, want 1", got)
		}
		if err := inclusive.AdvanceThrough(free); err != nil {
			t.Fatalf("AdvanceThrough: %v", err)
		}
		if got := inclusive.Stats().Dispatched; got != 2 {
			t.Fatalf("AdvanceThrough(completion) dispatched %d, want 2", got)
		}
		// Past the boundary the cuts agree again.
		if err := strict.AdvanceTo(math.Nextafter(free, math.Inf(1))); err != nil {
			t.Fatalf("AdvanceTo past boundary: %v", err)
		}
		if got := strict.Stats().Dispatched; got != 2 {
			t.Fatalf("strict cut just past boundary dispatched %d, want 2", got)
		}
	})
}
