package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"traxtents/internal/device"
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

// mixedWorkload builds a full mixed request stream — random sizes,
// sequential runs (cache hits and prefetch), writes, FUA repositioning,
// idle gaps and queued bursts — with the issue time for each request.
func mixedWorkload(capacity int64, n int, seed int64) ([]device.Request, []float64) {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]device.Request, 0, n)
	issues := make([]float64, 0, n)
	at := 0.0
	next := int64(0)
	for i := 0; i < n; i++ {
		var req device.Request
		switch rng.Intn(4) {
		case 0: // sequential run continuation: prefetch and cache hits
			sect := 8 + rng.Intn(64)
			if next+int64(sect) > capacity {
				next = 0
			}
			req = device.Request{LBN: next, Sectors: sect}
			next += int64(sect)
		default:
			sect := 1 + rng.Intn(200)
			req = device.Request{
				LBN:     rng.Int63n(capacity - int64(sect)),
				Sectors: sect,
				Write:   rng.Intn(5) == 0,
				FUA:     rng.Intn(12) == 0,
			}
		}
		reqs = append(reqs, req)
		issues = append(issues, at)
		switch rng.Intn(3) {
		case 0: // burst: next request queued at the same instant
		case 1:
			at += rng.Float64() * 2 // likely still queued
		case 2:
			at += 20 + rng.Float64()*20 // idle gap
		}
	}
	return reqs, issues
}

// TestDepth1FCFSBitIdentical is the differential pin: a sched.Queue at
// depth 1 with the FCFS scheduler must be bit-identical to the bare
// wrapped device on a full mixed workload — every field of every result,
// via both the Submit/Drain and the Serve paths. This is the same
// discipline as the simulator's closed-form-vs-loop drain pin: the
// wrapper must add scheduling capability without perturbing timing.
func TestDepth1FCFSBitIdentical(t *testing.T) {
	reqs, issues := mixedWorkload(newSim(t, 1).Capacity(), 1500, 17)

	bare := newSim(t, 1)
	want := make([]device.Result, len(reqs))
	for i, req := range reqs {
		res, err := bare.Serve(issues[i], req)
		if err != nil {
			t.Fatalf("bare serve %d: %v", i, err)
		}
		want[i] = res
	}

	t.Run("submit-drain", func(t *testing.T) {
		q, err := New(newSim(t, 1)) // defaults: depth 1, FCFS
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		for i, req := range reqs {
			if _, err := q.Submit(issues[i], req); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
		cs, err := q.Drain()
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		if len(cs) != len(want) {
			t.Fatalf("%d completions for %d requests", len(cs), len(want))
		}
		for i, c := range cs {
			if c.Seq != i {
				t.Fatalf("completion %d has seq %d: FCFS must preserve order", i, c.Seq)
			}
			if !reflect.DeepEqual(c.Res, want[i]) {
				t.Fatalf("request %d diverged:\nqueue: %+v\nbare:  %+v", i, c.Res, want[i])
			}
		}
		if q.Now() != bare.Now() {
			t.Fatalf("clock diverged: queue %g, bare %g", q.Now(), bare.Now())
		}
	})

	t.Run("serve", func(t *testing.T) {
		q, err := New(newSim(t, 1), WithDepth(1), WithScheduler(FCFS()))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		for i, req := range reqs {
			res, err := q.Serve(issues[i], req)
			if err != nil {
				t.Fatalf("serve %d: %v", i, err)
			}
			if !reflect.DeepEqual(res, want[i]) {
				t.Fatalf("request %d diverged:\nqueue: %+v\nbare:  %+v", i, res, want[i])
			}
		}
	})
}

// TestLazyReordering: a reordering queue must not commit a dispatch
// decision until no earlier arrival can join it, and must then pick by
// policy. Three requests: the first dispatches alone (it is the only
// arrival), and once it holds the head the scheduler sees the other two
// and takes the closer one first.
func TestLazyReordering(t *testing.T) {
	d := newSim(t, 2)
	q, err := New(d, WithDepth(8), WithScheduler(SSTF()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	capacity := d.Capacity()
	a := device.Request{LBN: capacity / 4, Sectors: 64, FUA: true}
	far := device.Request{LBN: capacity - 100, Sectors: 64, FUA: true}
	near := device.Request{LBN: capacity/4 + 64, Sectors: 64, FUA: true}

	if _, err := q.Submit(0, a); err != nil {
		t.Fatalf("submit a: %v", err)
	}
	if got := q.Pending(); got != 1 {
		t.Fatalf("a dispatched with no later arrival to license it (pending %d)", got)
	}
	if _, err := q.Submit(0.01, far); err != nil {
		t.Fatalf("submit far: %v", err)
	}
	// far's arrival proves no request can arrive before 0.01, so a's
	// dispatch at t=0 is now committed.
	if got := q.Pending(); got != 1 {
		t.Fatalf("a not dispatched once licensed (pending %d)", got)
	}
	if _, err := q.Submit(0.02, near); err != nil {
		t.Fatalf("submit near: %v", err)
	}
	cs, err := q.Drain()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	var order []int
	for _, c := range cs {
		order = append(order, c.Seq)
	}
	if !reflect.DeepEqual(order, []int{0, 2, 1}) {
		t.Fatalf("SSTF service order = %v, want [0 2 1] (near before far)", order)
	}
	for _, c := range cs {
		if c.Res.Response() <= 0 {
			t.Fatalf("completion %d has response %g", c.Seq, c.Res.Response())
		}
	}
}

// TestDepthWindowLimitsReordering: at depth 1 even SSTF must serve in
// arrival order — the window admits one request at a time.
func TestDepthWindowLimitsReordering(t *testing.T) {
	d := newSim(t, 3)
	q, err := New(d, WithDepth(1), WithScheduler(SSTF()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 64; i++ {
		req := device.Request{LBN: rng.Int63n(d.Capacity() - 64), Sectors: 64}
		if _, err := q.Submit(float64(i)*0.01, req); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	cs, err := q.Drain()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i, c := range cs {
		if c.Seq != i {
			t.Fatalf("depth-1 queue reordered: completion %d has seq %d", i, c.Seq)
		}
	}
}

// TestQueueRunDeterministic: identical seeds and submissions produce
// bit-identical completion streams run to run.
func TestQueueRunDeterministic(t *testing.T) {
	run := func() []Completion {
		d := newSim(t, 4)
		q, err := New(d, WithDepth(16), WithScheduler(CLOOK()))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		reqs, issues := mixedWorkload(d.Capacity(), 800, 23)
		for i, req := range reqs {
			if _, err := q.Submit(issues[i], req); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
		cs, err := q.Drain()
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		return cs
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical runs diverged")
	}
}

// TestForceNextAndAdvanceTo: ForceNext commits exactly one decision;
// AdvanceTo commits exactly those strictly before the horizon.
func TestForceNextAndAdvanceTo(t *testing.T) {
	d := newSim(t, 6)
	q, err := New(d, WithDepth(8), WithScheduler(SSTF()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 4; i++ {
		req := device.Request{LBN: int64(i) * 1000, Sectors: 32}
		if _, err := q.Submit(0, req); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	var cs []Completion
	take := func() []Completion {
		cs = cs[:0]
		q.ConsumeCompleted(func(c *Completion) { cs = append(cs, *c) })
		return cs
	}
	if got := len(take()); got != 0 {
		t.Fatalf("%d completions before any commitment", got)
	}
	if !q.ForceNext() {
		t.Fatal("ForceNext found nothing to dispatch")
	}
	if len(take()) != 1 {
		t.Fatalf("ForceNext yielded %d completions, want 1", len(cs))
	}
	// Everything decidable before the first completion's media end + a
	// hair: commits the remaining dispatch chain up to that horizon.
	if err := q.AdvanceTo(cs[0].Res.MediaEnd + 1e-9); err != nil {
		t.Fatalf("AdvanceTo: %v", err)
	}
	n := len(take())
	if n == 0 {
		t.Fatal("AdvanceTo past the head-free instant committed nothing")
	}
	rest, err := q.Drain()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if 1+n+len(rest) != 4 {
		t.Fatalf("completions 1+%d+%d, want 4 total", n, len(rest))
	}
}

// TestQueueForwardsCapabilities: a queue stands in for the wrapped
// device under capability discovery — boundary tables and extraction
// work through it.
func TestQueueForwardsCapabilities(t *testing.T) {
	d := newSim(t, 7)
	q, err := New(d, WithDepth(4), WithScheduler(CLOOK()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if q.Capacity() != d.Capacity() || q.SectorSize() != d.SectorSize() {
		t.Fatal("identity not forwarded")
	}
	if q.RotationPeriod() != d.RotationPeriod() {
		t.Fatal("rotation period not forwarded")
	}
	if len(q.TrackBoundaries()) != len(d.TrackBoundaries()) {
		t.Fatal("boundaries not forwarded")
	}
	if q.Layout() != d.Lay {
		t.Fatal("layout not forwarded")
	}
	if q.Name() != d.Name()+"+clook[d4]" {
		t.Fatalf("Name = %q", q.Name())
	}
}

// TestQueueRejections: invalid requests, regressive issue times, and
// bad construction all fail cleanly without touching the clock.
func TestQueueRejections(t *testing.T) {
	d := newSim(t, 8)
	if _, err := New(nil); err == nil {
		t.Fatal("New(nil) accepted")
	}
	if _, err := New(d, WithDepth(0)); err == nil {
		t.Fatal("depth 0 accepted")
	}
	if _, err := New(d, WithScheduler(nil)); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	q, err := New(d, WithDepth(4), WithScheduler(SSTF()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := q.Submit(0, device.Request{LBN: -1, Sectors: 8}); err == nil {
		t.Fatal("invalid request accepted")
	}
	if q.Now() != 0 || q.Pending() != 0 {
		t.Fatalf("rejection changed state: now %g, pending %d", q.Now(), q.Pending())
	}
	if _, err := q.Submit(5, device.Request{LBN: 0, Sectors: 8}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := q.Submit(4, device.Request{LBN: 0, Sectors: 8}); err == nil {
		t.Fatal("regressive issue time accepted")
	}
}

// TestSchedulerPolicies pins each policy's choice on a hand-built
// candidate set, including arrival-order tie-breaking.
func TestSchedulerPolicies(t *testing.T) {
	cands := []Pending{
		{Req: device.Request{LBN: 5000, Sectors: 8}, Seq: 0},
		{Req: device.Request{LBN: 900, Sectors: 8}, Seq: 1},
		{Req: device.Request{LBN: 1200, Sectors: 8}, Seq: 2},
		{Req: device.Request{LBN: 900, Sectors: 8}, Seq: 3}, // tie with 1
	}
	head := int64(1000)
	if got := FCFS().Pick(cands, head); got != 0 {
		t.Fatalf("FCFS pick %d, want 0", got)
	}
	// SSTF: 900 and 1200 are 100 and 200 away; 900 wins, earliest first.
	if got := SSTF().Pick(cands, head); got != 1 {
		t.Fatalf("SSTF pick %d, want 1", got)
	}
	// C-LOOK: ahead of head 1000 are 1200 and 5000; 1200 wins.
	if got := CLOOK().Pick(cands, head); got != 2 {
		t.Fatalf("CLOOK pick %d, want 2", got)
	}
	// C-LOOK wrap: nothing ahead of the head; lowest LBN, earliest first.
	if got := CLOOK().Pick(cands, 6000); got != 1 {
		t.Fatalf("CLOOK wrap pick %d, want 1", got)
	}
}

// TestTraxtentCLOOKKeepsTrackTogether: the traxtent-aware sweep is keyed
// by track, so a track-aligned request on the head's own track stays
// eligible for the current sweep even when its start LBN is behind the
// head — plain C-LOOK would defer it a full sweep.
func TestTraxtentCLOOKKeepsTrackTogether(t *testing.T) {
	bounds := []int64{0, 100, 200, 300, 400}
	s, err := TraxtentCLOOK(bounds)
	if err != nil {
		t.Fatalf("TraxtentCLOOK: %v", err)
	}
	// Head is mid-track-2 (LBN 250). The aligned request for track 2
	// starts at 200 — behind the head in raw LBN terms.
	cands := []Pending{
		{Req: device.Request{LBN: 300, Sectors: 100}, Seq: 0}, // track 3
		{Req: device.Request{LBN: 200, Sectors: 100}, Seq: 1}, // track 2, head's track
		{Req: device.Request{LBN: 0, Sectors: 100}, Seq: 2},   // track 0
	}
	if got := CLOOK().Pick(cands, 250); got != 0 {
		t.Fatalf("plain CLOOK pick %d, want 0 (defers the head's own track)", got)
	}
	if got := s.Pick(cands, 250); got != 1 {
		t.Fatalf("traxtent CLOOK pick %d, want 1 (head's track is not split off the sweep)", got)
	}
	// Nothing at or ahead of the head's track: wrap to the lowest track.
	if got := s.Pick(cands[2:], 350); got != 0 {
		t.Fatalf("traxtent CLOOK wrap pick %d, want 0", got)
	}

	if _, err := TraxtentCLOOK([]int64{0}); err == nil {
		t.Fatal("single-entry boundary table accepted")
	}
	if _, err := TraxtentCLOOK([]int64{0, 100, 100}); err == nil {
		t.Fatal("non-ascending boundary table accepted")
	}
	if _, err := TraxtentCLOOK([]int64{5, 100}); err == nil {
		t.Fatal("table not starting at 0 accepted")
	}
}

// TestByName resolves every built-in name and rejects unknowns.
func TestByName(t *testing.T) {
	d := newSim(t, 9)
	for _, name := range Names() {
		s, err := ByName(name, d)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := ByName("elevator", d); err == nil {
		t.Fatal("unknown name accepted")
	}
	// traxtent needs boundaries: a boundary-free device must be refused.
	if _, err := ByName("traxtent", bareDevice{}); err == nil {
		t.Fatal("traxtent scheduler built without boundaries")
	}
}

// bareDevice implements only the core Device interface.
type bareDevice struct{}

func (bareDevice) Serve(at float64, req device.Request) (device.Result, error) {
	return device.Result{Req: req, Issue: at, Start: at, MediaEnd: at, Done: at}, nil
}
func (bareDevice) Now() float64    { return 0 }
func (bareDevice) Capacity() int64 { return 1 << 20 }
func (bareDevice) SectorSize() int { return 512 }
