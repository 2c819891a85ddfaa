package sched

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"traxtents/internal/device"
	"traxtents/internal/disk/geom"
)

// config collects constructor options.
type config struct {
	depth int
	sch   Scheduler
}

// Option configures a Queue.
type Option func(*config)

// WithDepth sets the queue depth: the number of requests outstanding at
// the device at once, i.e. the scheduler's reordering window (admitted
// in arrival order). Depth 1 degenerates to FCFS. The default is 1.
func WithDepth(n int) Option { return func(c *config) { c.depth = n } }

// WithScheduler sets the scheduling policy. The default is FCFS.
func WithScheduler(s Scheduler) Option { return func(c *config) { c.sch = s } }

// Completion pairs a finished request with its submission sequence
// number (0-based Submit/Serve order), so drivers can route completions
// back to the submitting client.
type Completion struct {
	Seq int
	Res device.Result
}

// Stats aggregates queue activity.
type Stats struct {
	Submitted  int
	Dispatched int
	// MaxPending is the high-water mark of arrived-but-undispatched
	// requests (FCFS passthrough never holds any).
	MaxPending int
	// PendingAtDispatchSum sums, over dispatches, the pending count at
	// the decision instant (including the dispatched request); divided
	// by Dispatched it is the mean queue length seen by the scheduler.
	PendingAtDispatchSum int64
}

// Queue is a queued device: it implements device.Device and forwards the
// wrapped device's capabilities, so it can stand anywhere a backend can
// — including as a child of a striped array.
type Queue struct {
	inner    device.Device
	sch      Scheduler
	depth    int
	fcfs     bool  // passthrough mode
	capacity int64 // inner.Capacity(), cached off the per-submit path

	pending   []Pending // arrival order, undispatched
	nextSeq   int
	lastIssue float64
	freeAt    float64 // decision instant: head-free time of the last dispatch
	headLBN   int64   // LBN after the last dispatched request
	lastDone  float64
	completed []Completion
	err       error // sticky dispatch error

	candBuf []Pending // scratch candidate list
	idxBuf  []int     // scratch candidate -> pending index map
	stats   Stats
}

var (
	_ device.Batch            = (*Queue)(nil)
	_ device.Rotational       = (*Queue)(nil)
	_ device.BoundaryProvider = (*Queue)(nil)
	_ device.Mapped           = (*Queue)(nil)
	_ device.Named            = (*Queue)(nil)
)

// New wraps a device in a scheduling queue. Defaults: depth 1, FCFS.
func New(d device.Device, opts ...Option) (*Queue, error) {
	if d == nil {
		return nil, fmt.Errorf("sched: nil device")
	}
	cfg := config{depth: 1, sch: FCFS()}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.depth < 1 {
		return nil, fmt.Errorf("sched: queue depth %d", cfg.depth)
	}
	if cfg.sch == nil {
		return nil, fmt.Errorf("sched: nil scheduler")
	}
	_, isFCFS := cfg.sch.(fcfs)
	return &Queue{inner: d, sch: cfg.sch, depth: cfg.depth, fcfs: isFCFS, capacity: d.Capacity()}, nil
}

// Depth returns the configured queue depth.
func (q *Queue) Depth() int { return q.depth }

// Scheduler returns the configured scheduling policy.
func (q *Queue) Scheduler() Scheduler { return q.sch }

// Inner returns the wrapped device.
func (q *Queue) Inner() device.Device { return q.inner }

// Stats returns a copy of the accumulated queue statistics.
func (q *Queue) Stats() Stats { return q.stats }

// Pending returns the number of arrived-but-undispatched requests.
func (q *Queue) Pending() int { return len(q.pending) }

// Err returns the sticky error of a failed dispatch, if any.
func (q *Queue) Err() error { return q.err }

// Submit enqueues a request issued at the given host time and returns
// its sequence number (0-based Submit/Serve order, the Completion.Seq
// it finishes under). Issue times must be non-decreasing across
// Submit/Serve calls. The request is validated immediately;
// dispatching is lazy — decisions are committed only once no later
// arrival could join them — and finished requests accumulate for
// DrainEach or TakeCompleted. Under FCFS the request passes straight
// through to the wrapped device.
func (q *Queue) Submit(at float64, req device.Request) (int, error) {
	if q.err != nil {
		return 0, q.err
	}
	if err := device.CheckBounds(req.LBN, req.Sectors, q.capacity); err != nil {
		return 0, err
	}
	if at < q.lastIssue {
		return 0, fmt.Errorf("sched: issue time %g before previous %g", at, q.lastIssue)
	}
	q.lastIssue = at
	seq := q.nextSeq
	q.nextSeq++
	q.stats.Submitted++

	if q.fcfs {
		c := q.slot(seq)
		if err := device.ServeInto(q.inner, at, req, &c.Res); err != nil {
			q.completed = q.completed[:len(q.completed)-1]
			q.err = &device.Error{Op: "sched dispatch", Req: req, Err: err}
			return seq, q.err
		}
		q.note(&c.Res)
		q.stats.PendingAtDispatchSum++
		return seq, nil
	}

	q.advance(at, false)
	q.pending = append(q.pending, Pending{Req: req, Issue: at, Seq: seq})
	if len(q.pending) > q.stats.MaxPending {
		q.stats.MaxPending = len(q.pending)
	}
	return seq, q.err
}

// AdvanceTo commits every dispatch decision that happens strictly before
// t — the caller promises no arrival earlier than t is still coming.
// Closed-loop drivers use it to resolve completions (and thus future
// arrival times) up to their next known wake-up.
//
// The cut is deliberately strict (open-world): an arrival submitted at
// exactly t must still be a candidate for a decision at t, so that
// decision cannot be committed here. Callers that know no arrival at t
// is coming — event-core runs whose arrivals are all events — want the
// inclusive cut, AdvanceThrough. A decision instant landing exactly at
// t is therefore committed by AdvanceThrough(t) but left uncommitted by
// AdvanceTo(t); the two agree everywhere else.
func (q *Queue) AdvanceTo(t float64) error {
	if q.err == nil {
		q.advance(t, false)
	}
	return q.err
}

// AdvanceThrough commits every dispatch decision at instant <= t — the
// inclusive, closed-world cut matching event.Core.AdvanceTo: the caller
// promises no arrival at or before t is still coming.
func (q *Queue) AdvanceThrough(t float64) error {
	if q.err == nil {
		q.advance(t, true)
	}
	return q.err
}

// Flush commits every pending dispatch decision unconditionally: the
// caller promises no further arrivals matter.
func (q *Queue) Flush() error {
	return q.AdvanceTo(math.Inf(1))
}

// ForceNext commits the single next dispatch decision unconditionally,
// making its completion available to TakeCompleted. It reports whether a
// dispatch happened (false when nothing is pending or a dispatch
// failed).
func (q *Queue) ForceNext() bool {
	if q.err != nil || len(q.pending) == 0 {
		return false
	}
	return q.dispatchAt(q.nextDecision())
}

// NextDecision returns the instant of the next uncommitted dispatch
// decision, or false when nothing is pending. Closed-loop drivers
// compare it against their earliest known future arrival and commit
// decisions one at a time (ForceNext), folding each resolved completion
// — whose client may re-issue *before* the following decision — back in
// before the scheduler decides again.
func (q *Queue) NextDecision() (float64, bool) {
	if q.err != nil || len(q.pending) == 0 {
		return 0, false
	}
	return q.nextDecision(), true
}

// TakeCompleted returns the requests finished since the last call, in
// dispatch (virtual-time service) order, and clears the buffer. The
// returned slice is surrendered to the caller (the next batch gets a
// fresh buffer); steady-state consumers that do not need to retain the
// slice should prefer ConsumeCompleted, which recycles it.
func (q *Queue) TakeCompleted() []Completion {
	out := q.completed
	q.completed = nil
	return out
}

// ConsumeCompleted calls fn for each request finished since the last
// TakeCompleted/ConsumeCompleted, in dispatch order, then clears the
// buffer while retaining its capacity. Unlike TakeCompleted it never
// reallocates in steady state, which is what keeps event-core fold
// loops at zero allocations per request. fn receives a pointer into
// the recycled buffer: it must neither retain it past the call nor
// call back into the queue. (A completion is a 136-byte record; the
// pointer spares fold loops two full copies per request.)
func (q *Queue) ConsumeCompleted(fn func(*Completion)) {
	for i := range q.completed {
		fn(&q.completed[i])
	}
	q.completed = q.completed[:0]
}

// DrainEach flushes the queue and calls fn for every remaining
// completion, in dispatch order, under its submission sequence number
// — ConsumeCompleted after a Flush, in the device.Batch shape.
func (q *Queue) DrainEach(fn func(seq int, r *device.Result)) error {
	if err := q.Flush(); err != nil {
		return err
	}
	for i := range q.completed {
		fn(q.completed[i].Seq, &q.completed[i].Res)
	}
	q.completed = q.completed[:0]
	return nil
}

// Drain flushes the queue and returns every remaining completion.
func (q *Queue) Drain() ([]Completion, error) {
	err := q.Flush()
	return q.TakeCompleted(), err
}

// Serve implements device.Device: the request is submitted and the whole
// queue is flushed (a synchronous barrier), returning this request's
// result. Results of other requests completed by the flush remain
// available to TakeCompleted. Sequential consumers (extraction, the file
// systems) can therefore use a Queue anywhere a Device goes; concurrent
// workloads should Submit and Drain instead.
func (q *Queue) Serve(at float64, req device.Request) (device.Result, error) {
	seq, err := q.Submit(at, req)
	if err != nil {
		return device.Result{}, err
	}
	if err := q.Flush(); err != nil {
		return device.Result{}, err
	}
	for i, c := range q.completed {
		if c.Seq == seq {
			q.completed = append(q.completed[:i], q.completed[i+1:]...)
			return c.Res, nil
		}
	}
	return device.Result{}, fmt.Errorf("sched: flushed request %+v has no completion", req)
}

// slot appends a completion for seq and returns it; the caller serves
// the request straight into its Res, or drops the slot on failure.
func (q *Queue) slot(seq int) *Completion {
	n := len(q.completed)
	q.completed = slices.Grow(q.completed, 1)[:n+1]
	c := &q.completed[n]
	c.Seq = seq
	return c
}

// note records a completion's effect on the clock and dispatch count.
func (q *Queue) note(res *device.Result) {
	q.stats.Dispatched++
	if res.Done > q.lastDone {
		q.lastDone = res.Done
	}
}

// nextDecision returns the earliest instant a dispatch decision can
// happen: the device's head-free time, or the first windowed arrival if
// the device would idle. Submit enforces non-decreasing issue times, so
// pending is sorted by Issue and its head is the earliest arrival.
// Callers guarantee pending is non-empty.
func (q *Queue) nextDecision() float64 {
	if tmin := q.pending[0].Issue; q.freeAt < tmin {
		return tmin
	}
	return q.freeAt
}

// advance commits every dispatch decision before horizon — strictly
// before when inclusive is false (the open-world cut), at or before
// when true (the closed-world cut).
func (q *Queue) advance(horizon float64, inclusive bool) {
	for q.err == nil && len(q.pending) > 0 {
		t := q.nextDecision()
		if t > horizon || (!inclusive && t == horizon) {
			return
		}
		if !q.dispatchAt(t) {
			return
		}
	}
}

// dispatchAt makes the decision at instant t: the scheduler picks among
// the windowed requests that have arrived by t, the pick is served by
// the wrapped device, and the queue's head proxy and free time move on.
// The wrapped device is issued the request at t (dispatch instants are
// non-decreasing, preserving its issue-order contract); the stored
// result keeps the original host issue time so response includes the
// queue wait.
func (q *Queue) dispatchAt(t float64) bool {
	w := q.pending
	if len(w) > q.depth {
		w = w[:q.depth]
	}
	cands := q.candBuf[:0]
	idxs := q.idxBuf[:0]
	for i, p := range w {
		if p.Issue <= t {
			cands = append(cands, p)
			idxs = append(idxs, i)
		}
	}
	q.candBuf, q.idxBuf = cands[:0], idxs[:0] // retain grown capacity
	if len(cands) == 0 {
		// Unreachable from nextDecision, which never returns an instant
		// before the first windowed arrival.
		q.err = fmt.Errorf("sched: decision at %g has no candidates", t)
		return false
	}
	pick := q.sch.Pick(cands, q.headLBN)
	if pick < 0 || pick >= len(cands) {
		q.err = fmt.Errorf("sched: scheduler %s picked %d of %d candidates", q.sch.Name(), pick, len(cands))
		return false
	}
	p := cands[pick]
	c := q.slot(p.Seq)
	if err := device.ServeInto(q.inner, t, p.Req, &c.Res); err != nil {
		// The sticky typed error identifies the failing request: a
		// dispatch that dies mid-Drain reaches the caller attributed,
		// not dropped.
		q.completed = q.completed[:len(q.completed)-1]
		q.err = &device.Error{Op: "sched dispatch", Req: p.Req, Err: err}
		return false
	}
	// The queue length the scheduler saw: requests arrived by the
	// decision instant (including the dispatched one), not ones the
	// caller has revealed but that lie in the future of t. pending is
	// sorted by Issue, so the arrived set is a prefix — found in
	// O(log n) so a deep backlog (open arrivals under overload) does
	// not turn dispatching quadratic.
	arrived := sort.Search(len(q.pending), func(i int) bool { return q.pending[i].Issue > t })
	q.stats.PendingAtDispatchSum += int64(arrived)
	q.pending = append(q.pending[:idxs[pick]], q.pending[idxs[pick]+1:]...)
	c.Res.Issue = p.Issue
	// The next decision happens when the head frees (MediaEnd), not at
	// full completion: the following dispatch's positioning overlaps
	// this one's bus drain, exactly as the paper's tworeq pattern does.
	q.freeAt = c.Res.MediaEnd
	q.headLBN = p.Req.LBN + int64(p.Req.Sectors)
	q.note(&c.Res)
	return true
}

// ---- device.Device identity and forwarded capabilities ----

// Now returns the completion time of the last finished request.
func (q *Queue) Now() float64 { return q.lastDone }

// Capacity returns the wrapped device's capacity.
func (q *Queue) Capacity() int64 { return q.inner.Capacity() }

// SectorSize returns the wrapped device's sector size.
func (q *Queue) SectorSize() int { return q.inner.SectorSize() }

// RotationPeriod forwards the wrapped device's revolution time (0 when
// it has none).
func (q *Queue) RotationPeriod() float64 {
	if r, ok := q.inner.(device.Rotational); ok {
		return r.RotationPeriod()
	}
	return 0
}

// TrackBoundaries forwards the wrapped device's boundaries (nil when it
// has none), so traxtent tables build through the queue.
func (q *Queue) TrackBoundaries() []int64 {
	if bp, ok := q.inner.(device.BoundaryProvider); ok {
		return bp.TrackBoundaries()
	}
	return nil
}

// Layout forwards the wrapped device's physical mapping; nil when the
// wrapped device is not Mapped, per the device.Mapped contract.
func (q *Queue) Layout() *geom.Layout {
	if m, ok := q.inner.(device.Mapped); ok {
		return m.Layout()
	}
	return nil
}

// Name identifies the queue configuration over the wrapped device.
func (q *Queue) Name() string {
	inner := "device"
	if n, ok := q.inner.(device.Named); ok {
		inner = n.Name()
	}
	return fmt.Sprintf("%s+%s[d%d]", inner, q.sch.Name(), q.depth)
}
