package driver

import (
	"container/heap"
	"fmt"
	"math/rand"

	"traxtents/internal/device"
	"traxtents/internal/device/sched"
	"traxtents/internal/stats"
)

// Arrival selects the workload's arrival process.
type Arrival int

const (
	// Open issues requests at seeded-Poisson arrival instants,
	// independent of completions: the offered load is RatePerSec.
	Open Arrival = iota
	// Closed keeps Clients requests in flight: each client waits for its
	// completion, thinks for ThinkMs, then issues the next request.
	Closed
)

// String names the arrival process.
func (a Arrival) String() string {
	if a == Closed {
		return "closed"
	}
	return "open"
}

// Workload describes the request population.
type Workload struct {
	// Requests is the total number of requests to issue.
	Requests int
	// IOSectors sizes unaligned requests; ignored when Aligned unless
	// SubTrack is set.
	IOSectors int
	// Aligned issues whole-track (traxtent) requests: each request
	// covers exactly one randomly chosen track of the device, whatever
	// its length. Requires the device to expose track boundaries.
	Aligned bool
	// SubTrack modifies Aligned: instead of whole tracks, each request
	// reads IOSectors sectors at a random IOSectors-aligned offset
	// inside a randomly chosen track, never crossing the track
	// boundary (clipped at the tail) — the access pattern of a
	// traxtent-aware application reading blocks within its extents.
	// The unaligned counterpart is the plain IOSectors workload, whose
	// requests land anywhere and straddle boundaries.
	SubTrack bool
	// Sequential walks the device in layout order instead of choosing
	// targets at random — the streaming pattern of a scan or a rebuild,
	// and the cheapest request the media model serves. Under Aligned the
	// walk is whole tracks; otherwise it is IOSectors-sized steps from
	// LBN 0, wrapping at the end. Incompatible with SubTrack.
	Sequential bool
	// WriteEvery makes every k-th request a write; 0 means reads only.
	WriteEvery int
	// WorkingSetTracks restricts the workload to the device's first K
	// tracks (cache studies need a bounded working set); 0 means the
	// whole device. Requires the device to expose track boundaries.
	WorkingSetTracks int
	// Seed fixes the workload's random source.
	Seed int64
}

// Load describes the arrival process.
type Load struct {
	Arrival Arrival
	// RatePerSec is the open-arrival offered load in requests/second.
	RatePerSec float64
	// Clients is the closed-loop population.
	Clients int
	// ThinkMs is the closed-loop per-client think time between a
	// completion and the next issue (fixed, for determinism).
	ThinkMs float64
}

// Metrics summarizes one run.
type Metrics struct {
	Requests       int
	MakespanMs     float64 // first issue (t=0) to last completion
	ThroughputIOPS float64
	MeanResponseMs float64
	P95ResponseMs  float64
	MaxResponseMs  float64
	// MeanOutstanding is the time-averaged number of requests in flight
	// (Little's law: sum of responses over the makespan).
	MeanOutstanding float64
}

// gen produces the seeded request stream.
type gen struct {
	rng      *rand.Rand
	bounds   []int64 // aligned/working-set modes: device track boundaries
	cap      int64   // request span in LBNs (working set or whole device)
	io       int
	aligned  bool
	subTrack bool
	seq      bool
	wEvery   int
	n        int // requests produced
}

func newGen(d device.Device, wl Workload) (*gen, error) {
	g := &gen{
		rng:      rand.New(rand.NewSource(wl.Seed)),
		cap:      d.Capacity(),
		io:       wl.IOSectors,
		aligned:  wl.Aligned,
		subTrack: wl.Aligned && wl.SubTrack,
		seq:      wl.Sequential,
		wEvery:   wl.WriteEvery,
	}
	if wl.SubTrack && !wl.Aligned {
		return nil, fmt.Errorf("driver: SubTrack requires Aligned")
	}
	if wl.Sequential && wl.SubTrack {
		return nil, fmt.Errorf("driver: Sequential is incompatible with SubTrack")
	}
	if wl.Aligned || wl.WorkingSetTracks > 0 {
		bp, ok := d.(device.BoundaryProvider)
		if !ok {
			return nil, fmt.Errorf("driver: workload needs a device with track boundaries, %T has none", d)
		}
		g.bounds = bp.TrackBoundaries()
		if len(g.bounds) < 2 {
			return nil, fmt.Errorf("driver: workload needs a device with track boundaries, %T has an empty table", d)
		}
	}
	if k := wl.WorkingSetTracks; k > 0 {
		if k > len(g.bounds)-1 {
			return nil, fmt.Errorf("driver: working set of %d tracks exceeds the device's %d", k, len(g.bounds)-1)
		}
		g.bounds = g.bounds[:k+1]
		g.cap = g.bounds[k]
	}
	if !wl.Aligned || wl.SubTrack {
		if wl.IOSectors <= 0 {
			return nil, fmt.Errorf("driver: workload needs IOSectors > 0, got %d", wl.IOSectors)
		}
		if int64(wl.IOSectors) > g.cap {
			return nil, fmt.Errorf("driver: IOSectors %d exceeds request span %d", wl.IOSectors, g.cap)
		}
	}
	return g, nil
}

func (g *gen) next() device.Request {
	var req device.Request
	switch {
	case g.subTrack:
		// A block inside one track: IOSectors at a random
		// IOSectors-aligned in-track offset, clipped at the tail.
		t := g.rng.Intn(len(g.bounds) - 1)
		first, n := g.bounds[t], int(g.bounds[t+1]-g.bounds[t])
		if g.io >= n {
			req = device.Request{LBN: first, Sectors: n}
			break
		}
		off := g.rng.Intn(n/g.io) * g.io
		req = device.Request{LBN: first + int64(off), Sectors: g.io}
	case g.aligned:
		t := g.n % (len(g.bounds) - 1)
		if !g.seq {
			t = g.rng.Intn(len(g.bounds) - 1)
		}
		req = device.Request{LBN: g.bounds[t], Sectors: int(g.bounds[t+1] - g.bounds[t])}
	default:
		if g.seq {
			steps := g.cap / int64(g.io)
			req = device.Request{LBN: int64(g.n%int(steps)) * int64(g.io), Sectors: g.io}
		} else {
			req = device.Request{LBN: g.rng.Int63n(g.cap - int64(g.io) + 1), Sectors: g.io}
		}
	}
	g.n++
	if g.wEvery > 0 && g.n%g.wEvery == 0 {
		req.Write = true
	}
	return req
}

// Run drives the workload through the queued device and summarizes the
// completions. The queue should be fresh: its clock defines t=0.
func Run(q *sched.Queue, wl Workload, ld Load) (Metrics, error) {
	if wl.Requests <= 0 {
		return Metrics{}, fmt.Errorf("driver: %d requests", wl.Requests)
	}
	if s := q.Stats(); s.Submitted != 0 {
		return Metrics{}, fmt.Errorf("driver: queue already carries %d requests; runs need a fresh queue", s.Submitted)
	}
	g, err := newGen(q, wl)
	if err != nil {
		return Metrics{}, err
	}
	var cs []sched.Completion
	switch ld.Arrival {
	case Open:
		cs, err = runOpen(q, g, wl.Requests, ld)
	case Closed:
		cs, err = runClosed(q, g, wl.Requests, ld)
	default:
		return Metrics{}, fmt.Errorf("driver: unknown arrival process %d", ld.Arrival)
	}
	if err != nil {
		return Metrics{}, err
	}
	return summarize(cs, wl.Requests)
}

// runOpen submits the whole Poisson arrival sequence, then drains: with
// an open process no arrival depends on a completion, so lazy dispatch
// resolves everything at the end.
func runOpen(q *sched.Queue, g *gen, n int, ld Load) ([]sched.Completion, error) {
	if ld.RatePerSec <= 0 {
		return nil, fmt.Errorf("driver: open arrivals need RatePerSec > 0, got %g", ld.RatePerSec)
	}
	ratePerMs := ld.RatePerSec / 1000
	at := 0.0
	for i := 0; i < n; i++ {
		if _, err := q.Submit(at, g.next()); err != nil {
			return nil, err
		}
		at += g.rng.ExpFloat64() / ratePerMs
	}
	return q.Drain()
}

// wake is one thinking client's next issue instant.
type wake struct {
	t      float64
	client int
}

// wakeHeap orders wakes by (time, client) — a total order, so the pop
// sequence is deterministic.
type wakeHeap []wake

func (h wakeHeap) Len() int { return len(h) }
func (h wakeHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].client < h[j].client
}
func (h wakeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *wakeHeap) Push(x interface{}) { *h = append(*h, x.(wake)) }
func (h *wakeHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// runClosed event-drives the closed loop. Decisions are committed one
// at a time: each commit may resolve a completion whose client
// re-issues *before* the next decision instant, and that arrival must
// be in the queue before the scheduler decides again — so the loop only
// forces the next decision while it provably precedes the earliest
// known wake-up, folding completions back into the heap between
// commits. When every client is waiting on the device there is no
// wake-up to guard, and the next decision is forced outright. Both
// moves only ever reveal wake-ups at or after every issue already
// submitted, so submission times stay non-decreasing — and by the time
// a wake-up is submitted, every decision before it has been committed,
// so Submit's internal advance never batches decisions past a
// yet-unsubmitted re-issue.
func runClosed(q *sched.Queue, g *gen, n int, ld Load) ([]sched.Completion, error) {
	if ld.Clients <= 0 {
		return nil, fmt.Errorf("driver: closed loop needs Clients > 0, got %d", ld.Clients)
	}
	if ld.ThinkMs < 0 {
		return nil, fmt.Errorf("driver: negative think time %g", ld.ThinkMs)
	}
	clients := ld.Clients
	if clients > n {
		clients = n
	}
	var h wakeHeap
	for c := 0; c < clients; c++ {
		h = append(h, wake{t: 0, client: c})
	}
	heap.Init(&h)

	clientOf := make([]int, 0, n)
	out := make([]sched.Completion, 0, n)
	submitted := 0
	fold := func(c *sched.Completion) {
		out = append(out, *c)
		if submitted < n {
			heap.Push(&h, wake{t: c.Res.Done + ld.ThinkMs, client: clientOf[c.Seq]})
		}
	}
	for len(out) < n {
		if h.Len() == 0 {
			// Every client is waiting on the device: force the next
			// scheduling decision to learn a completion.
			if !q.ForceNext() {
				if err := q.Err(); err != nil {
					return nil, err
				}
				return nil, fmt.Errorf("driver: closed loop stalled with %d of %d complete", len(out), n)
			}
			q.ConsumeCompleted(fold)
			continue
		}
		// Commit the next decision only if it provably precedes the
		// earliest known wake-up (a tie goes to the arrival: requests
		// landing exactly on a decision instant are visible to it).
		// The resolved completion may push an earlier wake-up, so
		// re-evaluate after every commit.
		if t, ok := q.NextDecision(); ok && t < h[0].t {
			if !q.ForceNext() {
				if err := q.Err(); err != nil {
					return nil, err
				}
				return nil, fmt.Errorf("driver: closed loop stalled with %d of %d complete", len(out), n)
			}
			q.ConsumeCompleted(fold)
			continue
		}
		w := heap.Pop(&h).(wake)
		if submitted >= n {
			continue // population shrinks once the budget is issued
		}
		clientOf = append(clientOf, w.client)
		if _, err := q.Submit(w.t, g.next()); err != nil {
			return nil, err
		}
		submitted++
		q.ConsumeCompleted(fold)
	}
	return out, nil
}

// summarize reduces completions to run metrics.
func summarize(cs []sched.Completion, want int) (Metrics, error) {
	if len(cs) != want {
		return Metrics{}, fmt.Errorf("driver: %d completions for %d requests", len(cs), want)
	}
	resp := make([]float64, len(cs))
	var makespan, sumResp float64
	for i := range cs {
		r := &cs[i].Res
		resp[i] = r.Response()
		sumResp += resp[i]
		if r.Done > makespan {
			makespan = r.Done
		}
	}
	m := Metrics{
		Requests:       len(cs),
		MakespanMs:     makespan,
		MeanResponseMs: stats.Mean(resp),
		P95ResponseMs:  stats.Percentile(resp, 95),
		MaxResponseMs:  stats.Max(resp),
	}
	if makespan > 0 {
		m.ThroughputIOPS = float64(len(cs)) / makespan * 1000
		m.MeanOutstanding = sumResp / makespan
	}
	return m, nil
}
