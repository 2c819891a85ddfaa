package driver

import (
	"fmt"
	"math/rand"

	"traxtents/internal/device"
	"traxtents/internal/device/event"
	"traxtents/internal/device/sched"
	"traxtents/internal/device/trace"
)

// Fleet drives open-arrival workloads into many queued spindles on ONE
// event core: every arrival and every queue dispatch decision is an
// event on the same (time, seq) heap, so a thousand spindles advance
// on one clock instead of a thousand per-device Drain barriers. This
// is the scale harness behind BENCH_events.json.
//
// The fleet is built once and Run any number of times: each run
// replays the same per-spindle arrival pattern shifted to start where
// the previous run's clock stopped, and the steady state allocates
// nothing — in-flight request records come from a typed arena,
// completions fold through a prebound closure, and the metrics are
// streamed (count/sum/max), never collected.
//
// Arrivals are chained, not prefilled: Run seeds each spindle's first
// arrival and every arrival schedules its successor as it fires. The
// heap therefore holds O(spindles) events instead of O(total
// requests), which is what keeps the per-event pop cost flat as the
// request count grows. Determinism is unaffected because each
// arrival's handler schedules the spindle's next arrival BEFORE it
// force-refreshes the spindle's decision event, so at any instant the
// pending arrival's seq is below the decision's — the same
// arrival-beats-decision tie order a full prefill would produce.
type Fleet struct {
	core  *event.Core
	fleet *event.Queues
	arrID event.HandlerID
	qs    []*sched.Queue

	// The per-arrival tables are flat, indexed s*perSpindle+j: with a
	// thousand spindles interleaving on one clock, ragged [][] layouts
	// cost a dependent slice-header miss on every event.
	perSpindle int
	reqs       []device.Request // request content
	offs       []float64        // issue offset from run start
	runStart   float64          // current run's t=0, read by fire to place chained arrivals
	base       []int            // per-spindle queue seq at run start
	recOf      []int32          // arena record index by s*perSpindle+(seq-base[s])

	arena event.Arena[fleetRec]

	start   float64 // next run's t=0 (previous run's last completion)
	count   int
	sumResp float64
	maxResp float64
	maxDone float64

	foldCur  int
	foldErr  error
	foldFn   func(*sched.Completion)
	commitFn func(int) error
	err      error
}

// fleetRec is one in-flight request's pooled record. The fold path
// checks it against the completion it resolves, so a pooled record
// that aliased a live request would be caught, not silently averaged.
type fleetRec struct {
	lbn     int64
	sectors int32
	spindle int32
}

// FleetMetrics summarizes one Run.
type FleetMetrics struct {
	Spindles   int
	Requests   int
	Events     uint64 // events fired on the core during the run
	MakespanMs float64
	MeanRespMs float64
	MaxRespMs  float64
}

// NewFleet precomputes the full workload for qs: spindle s draws its
// request content from wl with Seed+s (same shape, decorrelated
// streams) and its Poisson arrival offsets at ratePerSec from a
// derived source, wl.Requests arrivals per spindle. The queues must be
// fresh; the fleet owns them from here on.
func NewFleet(qs []*sched.Queue, wl Workload, ratePerSec float64) (*Fleet, error) {
	if len(qs) == 0 {
		return nil, fmt.Errorf("driver: fleet needs at least one spindle")
	}
	if wl.Requests <= 0 {
		return nil, fmt.Errorf("driver: %d requests", wl.Requests)
	}
	if ratePerSec <= 0 {
		return nil, fmt.Errorf("driver: fleet arrivals need ratePerSec > 0, got %g", ratePerSec)
	}
	f := &Fleet{
		qs:         qs,
		perSpindle: wl.Requests,
		reqs:       make([]device.Request, len(qs)*wl.Requests),
		offs:       make([]float64, len(qs)*wl.Requests),
		base:       make([]int, len(qs)),
		recOf:      make([]int32, len(qs)*wl.Requests),
	}
	ratePerMs := ratePerSec / 1000
	for s, q := range qs {
		if q == nil {
			return nil, fmt.Errorf("driver: fleet spindle %d is nil", s)
		}
		if st := q.Stats(); st.Submitted != 0 {
			return nil, fmt.Errorf("driver: fleet spindle %d already carries %d requests", s, st.Submitted)
		}
		swl := wl
		swl.Seed = wl.Seed + int64(s)
		g, err := newGen(q, swl)
		if err != nil {
			return nil, fmt.Errorf("driver: fleet spindle %d: %w", s, err)
		}
		iat := rand.New(rand.NewSource(swl.Seed ^ 0x666c656574)) // arrivals decoupled from content
		at := 0.0
		for j := 0; j < wl.Requests; j++ {
			f.reqs[s*wl.Requests+j] = g.next()
			f.offs[s*wl.Requests+j] = at
			at += iat.ExpFloat64() / ratePerMs
		}
	}
	f.wire()
	return f, nil
}

// wire binds the fleet's fold closures and event-core plumbing (shared
// by the synthetic and trace constructors).
func (f *Fleet) wire() {
	f.foldFn = f.foldOne
	f.commitFn = f.foldSpindle
	f.core = event.New()
	f.arrID = f.core.Register(event.HandlerFunc(f.fire))
	f.fleet = event.NewQueues(f.core, f.qs, f.commitFn)
}

// NewTraceFleet builds a Fleet whose per-spindle workloads come from
// recorded traces instead of a synthetic generator: spindle s replays
// trs[s]'s requests at trs[s]'s recorded arrival instants (Issue),
// all on the one event core — the trace-scale counterpart of NewFleet.
// Every trace must carry the same number of records (partition a large
// capture round-robin to get there), with non-decreasing arrival
// times; a trace with no arrival times at all replays as a burst at
// the run start, the queue working off the backlog. The queues must be
// fresh; the fleet owns them from here on. Run's repeat-run contract
// is unchanged — but note a spindle whose inner device is a
// trace.Player consumes its records, so Reset the players between
// runs.
func NewTraceFleet(qs []*sched.Queue, trs []trace.Trace) (*Fleet, error) {
	if len(qs) == 0 {
		return nil, fmt.Errorf("driver: fleet needs at least one spindle")
	}
	if len(trs) != len(qs) {
		return nil, fmt.Errorf("driver: %d traces for %d spindles", len(trs), len(qs))
	}
	per := len(trs[0].Records)
	if per == 0 {
		return nil, fmt.Errorf("driver: fleet trace 0 has no records")
	}
	f := &Fleet{
		qs:         qs,
		perSpindle: per,
		reqs:       make([]device.Request, len(qs)*per),
		offs:       make([]float64, len(qs)*per),
		base:       make([]int, len(qs)),
		recOf:      make([]int32, len(qs)*per),
	}
	for s, q := range qs {
		if q == nil {
			return nil, fmt.Errorf("driver: fleet spindle %d is nil", s)
		}
		if st := q.Stats(); st.Submitted != 0 {
			return nil, fmt.Errorf("driver: fleet spindle %d already carries %d requests", s, st.Submitted)
		}
		if n := len(trs[s].Records); n != per {
			return nil, fmt.Errorf("driver: fleet trace %d has %d records, trace 0 has %d (equal partitions required)",
				s, n, per)
		}
		prev := 0.0
		for j, rec := range trs[s].Records {
			if rec.Issue < prev {
				return nil, fmt.Errorf("driver: fleet trace %d record %d: issue time %g before %g",
					s, j, rec.Issue, prev)
			}
			prev = rec.Issue
			f.reqs[s*per+j] = device.Request{LBN: rec.LBN, Sectors: rec.Sectors, Write: rec.Write}
			f.offs[s*per+j] = rec.Issue
		}
	}
	f.wire()
	return f, nil
}

// fire handles one arrival: pool a record, submit at the event
// instant, fold whatever the submission's internal advance completed,
// chain the spindle's next arrival, and force-refresh the spindle's
// decision event. The tag packs (spindle, arrival index) as s<<32|j so
// the hot path decodes with a shift and a truncation, and chaining the
// successor BEFORE the Update keeps the arrival's seq below any
// decision seq the spindle can hold — same-instant arrivals beat
// same-instant decisions, exactly as a full prefill would order them.
func (f *Fleet) fire(now float64, tag int64) error {
	s := int(tag >> 32)
	j := int(int32(tag))
	lin := s*f.perSpindle + j
	req := f.reqs[lin]
	q := f.qs[s]
	ri := f.arena.Get()
	rec := f.arena.At(ri)
	rec.lbn, rec.sectors, rec.spindle = req.LBN, int32(req.Sectors), int32(s)
	// Each arrival is exactly one submission, so this run's j-th arrival
	// for spindle s gets queue seq base[s]+j: the record index is lin.
	f.recOf[lin] = ri
	if _, err := q.Submit(now, req); err != nil {
		return err
	}
	if err := f.foldSpindle(s); err != nil {
		return err
	}
	if j+1 < f.perSpindle {
		if err := f.core.Schedule(f.runStart+f.offs[lin+1], f.arrID, tag+1); err != nil {
			return err
		}
	}
	return f.fleet.Update(s, q)
}

// foldSpindle streams spindle s's buffered completions into the run's
// metrics.
func (f *Fleet) foldSpindle(s int) error {
	f.foldCur = s
	f.qs[s].ConsumeCompleted(f.foldFn)
	err := f.foldErr
	f.foldErr = nil
	return err
}

func (f *Fleet) foldOne(c *sched.Completion) {
	if f.foldErr != nil {
		return
	}
	s := f.foldCur
	ri := f.recOf[s*f.perSpindle+c.Seq-f.base[s]]
	rec := f.arena.At(ri)
	if rec.lbn != c.Res.Req.LBN || int(rec.sectors) != c.Res.Req.Sectors || int(rec.spindle) != s {
		f.foldErr = fmt.Errorf("driver: fleet spindle %d completion %d does not match its pooled record", s, c.Seq)
		return
	}
	f.arena.Put(ri)
	f.count++
	r := c.Res.Response()
	f.sumResp += r
	if r > f.maxResp {
		f.maxResp = r
	}
	if c.Res.Done > f.maxDone {
		f.maxDone = c.Res.Done
	}
}

// Run replays the fleet's arrival pattern starting at the previous
// run's final completion instant and drains the core: one event loop,
// every spindle, one clock. Steady-state runs do not allocate.
func (f *Fleet) Run() (FleetMetrics, error) {
	if f.err != nil {
		return FleetMetrics{}, f.err
	}
	start := f.start
	f.runStart = start
	fired0 := f.core.Fired()
	f.count, f.sumResp, f.maxResp = 0, 0, 0
	f.maxDone = start
	for s, q := range f.qs {
		f.base[s] = q.Stats().Submitted
	}
	for s := range f.qs {
		if err := f.core.Schedule(start+f.offs[s*f.perSpindle], f.arrID, int64(s)<<32); err != nil {
			f.err = err
			return FleetMetrics{}, err
		}
	}
	if err := f.core.Drain(); err != nil {
		f.err = err
		return FleetMetrics{}, err
	}
	// Safety net: a drained core leaves nothing pending, so these are
	// no-ops unless an adapter lost an event — which would surface here
	// as a short count.
	for s, q := range f.qs {
		if err := q.Flush(); err != nil {
			f.err = err
			return FleetMetrics{}, err
		}
		if err := f.foldSpindle(s); err != nil {
			f.err = err
			return FleetMetrics{}, err
		}
	}
	total := len(f.qs) * f.perSpindle
	if f.count != total {
		f.err = fmt.Errorf("driver: fleet resolved %d of %d requests", f.count, total)
		return FleetMetrics{}, f.err
	}
	if n := f.arena.InUse(); n != 0 {
		f.err = fmt.Errorf("driver: fleet leaked %d pooled records", n)
		return FleetMetrics{}, f.err
	}
	f.start = f.maxDone
	return FleetMetrics{
		Spindles:   len(f.qs),
		Requests:   total,
		Events:     f.core.Fired() - fired0,
		MakespanMs: f.maxDone - start,
		MeanRespMs: f.sumResp / float64(total),
		MaxRespMs:  f.maxResp,
	}, nil
}
