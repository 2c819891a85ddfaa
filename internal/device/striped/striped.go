package striped

import (
	"errors"
	"fmt"
	"slices"

	"traxtents/internal/device"
	"traxtents/internal/device/event"
	"traxtents/internal/device/sched"
	"traxtents/internal/traxtent"
)

// config collects constructor options.
type config struct {
	chunkSectors int64
	queueOpts    []sched.Option
	queued       bool
	parity       bool
}

// Option configures the array.
type Option func(*config)

// WithQueuedChildren wraps every child in its own scheduling queue
// (sched.New with the given options) at construction: the array then
// composes per-child queues — the multi-disk analogue of per-drive
// command queueing. Per-spindle reordering needs concurrent array-level
// requests, so it takes effect on the Submit/DrainEach path, where each
// child's queue schedules its own span stream independently; the
// synchronous Serve path is a barrier per request and leaves nothing
// for a child scheduler to reorder. The queues forward the children's
// track boundaries, so traxtent-matched striping still sees the real
// geometry. Children that are already *sched.Queue values can of course
// be passed to New directly instead.
func WithQueuedChildren(opts ...sched.Option) Option {
	return func(c *config) {
		c.queueOpts = opts
		c.queued = true
	}
}

// WithChunkSectors switches the array from traxtent-matched (variable)
// stripe units to fixed chunks of n sectors, as in an ordinary RAID-0.
// Fixed chunks do not follow the children's track-size drift, so
// chunk-aligned reads are only track-aligned where the grid happens to
// coincide with a child boundary.
func WithChunkSectors(n int64) Option {
	return func(c *config) { c.chunkSectors = n }
}

// WithParity adds RAID-5-style rotating parity: stripe s is unit s of
// every child, one of which (child N-1-s mod N) holds the XOR of the
// others, and the logical space exposes only the data units. The
// stripe units stay keyed to the children's traxtents (or the fixed
// chunk grid), so no parity unit straddles a track. A parity array
// survives one lost child: degraded reads reconstruct from the
// survivors, a medium error on a healthy child is reconstructed and
// repaired in place, and transient timeouts are retried. Writes are
// read-modify-write, so the Submit path serves synchronously.
func WithParity() Option {
	return func(c *config) { c.parity = true }
}

// Array is a striped multi-device array.
type Array struct {
	children []device.Device
	// bounds[j] is the array LBN where stripe unit j starts; the last
	// entry is the capacity. Unit j lives on child childOf[j], starting
	// at child LBN childLBN[j] (childOf[j] = j mod N without parity).
	bounds     []int64
	index      traxtent.Index // unitOf's lookup over bounds (uniform == 0)
	childLBN   []int64
	childOf    []int
	uniform    int64 // stripe unit when all are equal (fixed chunks), else 0
	sectorSize int
	period     float64 // common child rotation period, 0 if mixed/unknown
	lastDone   float64

	// Parity state. nData is the data units per stripe (N-1);
	// childStarts[c][s] is where stripe s's unit starts on child c (data
	// or parity alike); parityChild[s] is the stripe's parity child; lost
	// is the failed child, -1 while healthy.
	parity      bool
	nData       int
	childStarts [][]int64
	parityChild []int
	lost        int
	dstats      DegradedStats

	// Per-Serve scratch, derived once at construction and reused on
	// every request so the steady-state Serve path is allocation-free.
	// childRes receives each child operation's result in place; it is
	// folded into the array's result before the next operation.
	spanBuf  []span // reused per-child span list
	spanOf   []int  // child index -> span index in spanBuf this Serve, -1 if none
	childRes device.Result

	// Submit/DrainEach state: joins holds array requests whose per-child
	// spans are in flight on queued children, and routes maps each
	// queued child's submission sequence numbers to the join they
	// belong to. nextSeq numbers the array's own submissions.
	joins     []join
	routes    []map[int]int
	nextSeq   int
	lastIssue float64

	// Event-core citizenship: when any child is a *sched.Queue the
	// array owns a discrete-event core and a fleet adapter over the
	// queued children, so DrainEach advances every spindle on one clock in
	// global (time, seq) order instead of flushing child by child.
	// Completions still fold child-major (see DrainEach), keeping results
	// bit-identical to the legacy join.
	core  *event.Core
	fleet *event.Queues
}

// join is one array-level request being assembled from child spans.
type join struct {
	res       device.Result
	seq       int
	remaining int // spans still outstanding on queued children
	started   bool
	// failed marks a request whose Submit was rejected part-way: spans
	// already in flight still fold into it, but it is never reported.
	failed bool
}

var (
	_ device.Batch            = (*Array)(nil)
	_ device.InPlace          = (*Array)(nil)
	_ device.Rotational       = (*Array)(nil)
	_ device.BoundaryProvider = (*Array)(nil)
	_ device.Named            = (*Array)(nil)
)

// New builds an array over the given children (at least one; they must
// share a sector size). Without options every child must expose its
// track boundaries, and the stripe units become the children's own
// traxtents; with WithChunkSectors the units are a fixed grid, and
// capacity is the largest whole number of stripes on the smallest
// child.
func New(children []device.Device, opts ...Option) (*Array, error) {
	if len(children) == 0 {
		return nil, fmt.Errorf("striped: no children")
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.queued {
		queued := make([]device.Device, len(children))
		for i, c := range children {
			q, err := sched.New(c, cfg.queueOpts...)
			if err != nil {
				return nil, fmt.Errorf("striped: queueing child %d: %w", i, err)
			}
			queued[i] = q
		}
		children = queued
	}

	a := &Array{children: children, sectorSize: children[0].SectorSize()}
	minCap := children[0].Capacity()
	for i, c := range children {
		if c.SectorSize() != a.sectorSize {
			return nil, fmt.Errorf("striped: child %d sector size %d != %d", i, c.SectorSize(), a.sectorSize)
		}
		if cc := c.Capacity(); cc < minCap {
			minCap = cc
		}
	}

	// Per-child stripe-unit boundary lists.
	childBounds := make([][]int64, len(children))
	if cfg.chunkSectors != 0 {
		if cfg.chunkSectors < 0 {
			return nil, fmt.Errorf("striped: chunk of %d sectors", cfg.chunkSectors)
		}
		per := minCap / cfg.chunkSectors
		if per == 0 {
			return nil, fmt.Errorf("striped: chunk of %d sectors exceeds smallest child (%d LBNs)", cfg.chunkSectors, minCap)
		}
		grid := make([]int64, per+1)
		for i := range grid {
			grid[i] = int64(i) * cfg.chunkSectors
		}
		for i := range children {
			childBounds[i] = grid
		}
		a.uniform = cfg.chunkSectors
	} else {
		for i, c := range children {
			bp, ok := c.(device.BoundaryProvider)
			if !ok {
				return nil, fmt.Errorf("striped: child %d exposes no track boundaries (use WithChunkSectors)", i)
			}
			b := bp.TrackBoundaries()
			if len(b) < 2 {
				return nil, fmt.Errorf("striped: child %d has an empty boundary table (use WithChunkSectors)", i)
			}
			childBounds[i] = b
		}
	}

	// Interleave up to the smallest child unit count so every stripe is
	// complete. Without parity, array unit j = child (j mod N)'s unit
	// (j div N). With parity, stripe s is unit s of every child; child
	// N-1-(s mod N) holds parity and the logical space skips it, so the
	// stripe contributes N-1 data units of the stripe's smallest unit
	// size (each starting at a unit boundary, so none straddles a track).
	units := len(childBounds[0]) - 1
	for _, b := range childBounds[1:] {
		if n := len(b) - 1; n < units {
			units = n
		}
	}
	n := len(children)
	a.lost = -1
	if cfg.parity {
		if n < 2 {
			return nil, fmt.Errorf("striped: parity needs at least 2 children")
		}
		a.parity = true
		a.nData = n - 1
		a.childStarts = make([][]int64, n)
		for c := range children {
			a.childStarts[c] = childBounds[c][:units+1]
		}
		a.parityChild = make([]int, units)
		a.bounds = make([]int64, 0, units*(n-1)+1)
		a.childLBN = make([]int64, 0, units*(n-1))
		a.childOf = make([]int, 0, units*(n-1))
		at := int64(0)
		a.bounds = append(a.bounds, 0)
		for s := 0; s < units; s++ {
			size := childBounds[0][s+1] - childBounds[0][s]
			for _, b := range childBounds[1:] {
				if u := b[s+1] - b[s]; u < size {
					size = u
				}
			}
			p := (n - 1) - s%n
			a.parityChild[s] = p
			for c := 0; c < n; c++ {
				if c == p {
					continue
				}
				a.childOf = append(a.childOf, c)
				a.childLBN = append(a.childLBN, childBounds[c][s])
				at += size
				a.bounds = append(a.bounds, at)
			}
		}
	} else {
		a.bounds = make([]int64, 0, units*n+1)
		a.childLBN = make([]int64, 0, units*n)
		a.childOf = make([]int, 0, units*n)
		at := int64(0)
		a.bounds = append(a.bounds, 0)
		for j := 0; j < units*n; j++ {
			c, k := j%n, j/n
			a.childOf = append(a.childOf, c)
			a.childLBN = append(a.childLBN, childBounds[c][k])
			at += childBounds[c][k+1] - childBounds[c][k]
			a.bounds = append(a.bounds, at)
		}
	}

	if a.uniform == 0 {
		index, err := traxtent.NewIndex(a.bounds)
		if err != nil {
			return nil, fmt.Errorf("striped: stripe units: %w", err)
		}
		a.index = index
	}
	a.spanBuf = make([]span, 0, n)
	a.spanOf = make([]int, n)
	a.routes = make([]map[int]int, n)
	anyQueued := false
	qslots := make([]*sched.Queue, n)
	for i, c := range children {
		if q, ok := c.(*sched.Queue); ok {
			qslots[i] = q
			anyQueued = true
		}
	}
	if anyQueued {
		a.core = event.New()
		a.fleet = event.NewQueues(a.core, qslots, nil)
	}

	// A common child rotation period is the array's; mixed spindles (or
	// non-rotational children) leave it unknown.
	for i, c := range children {
		r, ok := c.(device.Rotational)
		if !ok || r.RotationPeriod() <= 0 {
			a.period = 0
			break
		}
		if i == 0 {
			a.period = r.RotationPeriod()
		} else if r.RotationPeriod() != a.period {
			a.period = 0
			break
		}
	}
	return a, nil
}

// Width returns the number of child devices.
func (a *Array) Width() int { return len(a.children) }

// ChunkSectors returns the fixed stripe unit in sectors, or 0 when the
// units are traxtent-matched (variable).
func (a *Array) ChunkSectors() int64 { return a.uniform }

// Units returns the number of stripe units.
func (a *Array) Units() int { return len(a.childLBN) }

// Children exposes the child devices (for per-child statistics).
func (a *Array) Children() []device.Device { return a.children }

// Capacity returns the number of addressable LBNs.
func (a *Array) Capacity() int64 { return a.bounds[len(a.bounds)-1] }

// SectorSize returns the sector size in bytes.
func (a *Array) SectorSize() int { return a.sectorSize }

// Now returns the completion time of the last request serviced.
func (a *Array) Now() float64 { return a.lastDone }

// RotationPeriod returns the children's common revolution time, or 0
// when the children disagree or are not rotational.
func (a *Array) RotationPeriod() float64 { return a.period }

// Name identifies the array configuration.
func (a *Array) Name() string {
	unit := "traxtent"
	if a.uniform > 0 {
		unit = fmt.Sprint(a.uniform)
	}
	if a.parity {
		return fmt.Sprintf("striped[%dx%s+parity]", len(a.children), unit)
	}
	return fmt.Sprintf("striped[%dx%s]", len(a.children), unit)
}

// TrackBoundaries returns the stripe-unit boundaries: the array's
// traxtents are its stripe units.
func (a *Array) TrackBoundaries() []int64 {
	out := make([]int64, len(a.bounds))
	copy(out, a.bounds)
	return out
}

// unitOf returns the stripe unit holding the array LBN: one division
// for fixed chunks, one bucket lookup in the boundary index for
// traxtent-matched units.
func (a *Array) unitOf(lbn int64) int {
	if a.uniform > 0 {
		return int(lbn / a.uniform)
	}
	return a.index.Find(lbn)
}

// span is one contiguous piece of a request on one child.
type span struct {
	child   int
	lbn     int64
	sectors int
}

// split carves a request into per-child contiguous spans, reusing the
// array's scratch buffers. Stripe units landing on the same child (a
// request spanning at least a full stripe) are contiguous on that child
// and are merged into one sub-request, so the result holds at most one
// span per child. The returned slice aliases a.spanBuf and is only
// valid until the next split.
func (a *Array) split(req device.Request) []span {
	out := a.spanBuf[:0]
	for c := range a.spanOf {
		a.spanOf[c] = -1
	}
	lbn := req.LBN
	left := int64(req.Sectors)
	j := a.unitOf(lbn)
	for left > 0 {
		n := a.bounds[j+1] - lbn // sectors to the unit boundary
		if n > left {
			n = left
		}
		c := a.childOf[j]
		cl := a.childLBN[j] + (lbn - a.bounds[j])
		if si := a.spanOf[c]; si >= 0 && out[si].lbn+int64(out[si].sectors) == cl {
			out[si].sectors += int(n)
		} else {
			a.spanOf[c] = len(out)
			out = append(out, span{child: c, lbn: cl, sectors: int(n)})
		}
		lbn += n
		left -= n
		j++
	}
	a.spanBuf = out
	return out
}

// accumulate folds one child span result into an array-level result:
// the array starts when the first child starts and completes when the
// last child completes; bus occupancy and prefetch sum; the aggregate
// is a cache hit only if every span was.
func accumulate(dst *device.Result, started *bool, r *device.Result) {
	if !*started || r.Start < dst.Start {
		dst.Start = r.Start
	}
	if r.MediaEnd > dst.MediaEnd {
		dst.MediaEnd = r.MediaEnd
	}
	if r.Done > dst.Done {
		dst.Done = r.Done
	}
	dst.BusTime += r.BusTime
	dst.Prefetched += r.Prefetched
	dst.CacheHit = dst.CacheHit && r.CacheHit
	*started = true
}

// Serve services one request synchronously: each per-child span is
// issued at the request's issue time (the children position and
// transfer in parallel), and the array's completion is the last
// child's. The aggregate Result has no media-phase breakdown —
// per-child timing is available from the children themselves. Serve is
// a per-request barrier; it refuses to interleave with an in-flight
// Submit batch (DrainEach first) — except on parity arrays, whose
// submissions are themselves synchronous.
func (a *Array) Serve(at float64, req device.Request) (device.Result, error) {
	var res device.Result
	if err := a.ServeInto(at, req, &res); err != nil {
		return device.Result{}, err
	}
	return res, nil
}

// ServeInto is Serve writing the result into *res (device.InPlace);
// each child serves in place into the array's scratch result.
func (a *Array) ServeInto(at float64, req device.Request, res *device.Result) error {
	if err := device.CheckRequest(a, req); err != nil {
		return err
	}
	if !a.parity && len(a.joins) > 0 {
		return fmt.Errorf("striped: %d submitted requests outstanding; drain before Serve", len(a.joins))
	}
	// Enforce the issue-order contract up front: a regressive time
	// rejected by one child mid-fan-out would leave the children's
	// clocks inconsistently advanced.
	if at < a.lastIssue {
		return fmt.Errorf("striped: issue time %g before previous %g", at, a.lastIssue)
	}
	a.lastIssue = at
	if err := a.serve(at, req, res); err != nil {
		return err
	}
	if res.Done > a.lastDone {
		a.lastDone = res.Done
	}
	return nil
}

// maxRetries bounds in-place retries of transient child timeouts on
// parity arrays (non-parity arrays propagate the first failure).
const maxRetries = 3

// childOp issues one sub-request to one child, retrying transient
// timeouts on parity arrays and wrapping any failure in the typed
// device.Error record with the failing child and request identified.
// The result is the array's scratch record, valid until the next
// childOp.
func (a *Array) childOp(at float64, c int, sub device.Request) (*device.Result, error) {
	r := &a.childRes
	for attempt := 0; ; attempt++ {
		err := device.ServeInto(a.children[c], at, sub, r)
		if err == nil {
			if _, ok := a.children[c].(*sched.Queue); ok && a.fleet != nil {
				// The barrier ran the queue's clock forward; any event
				// scheduled at its old decision instant is stale now.
				if terr := a.fleet.Touch(c); terr != nil {
					return nil, &device.Error{Op: fmt.Sprintf("striped child %d", c), Req: sub, Err: terr}
				}
			}
			return r, nil
		}
		if a.parity && device.IsTransient(err) && attempt < maxRetries {
			a.dstats.Retries++
			continue
		}
		return nil, &device.Error{Op: fmt.Sprintf("striped child %d", c), Req: sub, Err: err}
	}
}

// serve routes one validated request into *res: parity writes and
// degraded parity arrays walk stripe units one by one; everything else
// fans out merged per-child spans — so a healthy parity array reads
// exactly like RAID-0 over the same data layout.
func (a *Array) serve(at float64, req device.Request, res *device.Result) error {
	if a.parity && (req.Write || a.lost >= 0) {
		return a.serveParity(at, req, res)
	}
	*res = device.Result{Req: req, Issue: at, CacheHit: true}
	started := false
	for _, s := range a.split(req) {
		sub := device.Request{LBN: s.lbn, Sectors: s.sectors, Write: req.Write, FUA: req.FUA}
		r, err := a.childOp(at, s.child, sub)
		if err != nil {
			if a.parity && a.absorb(err, s.child) {
				// The child just failed under a healthy parity read:
				// re-walk the whole request unit by unit, reconstructing
				// what the failed child cannot serve. Spans already
				// served stand — the retry is a fresh pass over the same
				// addresses.
				return a.serveParity(at, req, res)
			}
			return err
		}
		accumulate(res, &started, r)
	}
	return nil
}

// absorb classifies a child failure a healthy parity array survives in
// place: a whole-child loss degrades the array, and a medium error is
// reconstructable per unit. Transients were already retried by
// childOp. It reports whether the per-unit walk should take over.
func (a *Array) absorb(err error, c int) bool {
	if errors.Is(err, device.ErrLost) {
		if a.lost < 0 {
			a.lost = c
			return true
		}
		return a.lost == c
	}
	return errors.Is(err, device.ErrMedium)
}

// serveParity is the per-unit path: parity writes (read-modify-write),
// degraded reads (peer reconstruction), and medium-error repair all
// work on whole stripe units, so the walk never merges spans. It
// starts *res afresh.
func (a *Array) serveParity(at float64, req device.Request, res *device.Result) error {
	*res = device.Result{Req: req, Issue: at, CacheHit: true}
	started := false
	lbn := req.LBN
	left := int64(req.Sectors)
	j := a.unitOf(lbn)
	for left > 0 {
		n := a.bounds[j+1] - lbn
		if n > left {
			n = left
		}
		o := lbn - a.bounds[j]
		if err := a.serveUnit(at, j, o, n, req, res, &started); err != nil {
			return err
		}
		lbn += n
		left -= n
		j++
	}
	return nil
}

// serveUnit services the [o, o+n) window of logical unit j.
func (a *Array) serveUnit(at float64, j int, o, n int64, req device.Request, res *device.Result, started *bool) error {
	s := j / a.nData
	c := a.childOf[j]
	if req.Write {
		return a.writeUnit(at, s, o, n, c, a.parityChild[s], req.FUA, res, started)
	}
	if c == a.lost {
		return a.reconstruct(at, s, o, n, c, res, started)
	}
	rd := device.Request{LBN: a.childStarts[c][s] + o, Sectors: int(n), FUA: req.FUA}
	r, err := a.childOp(at, c, rd)
	if err == nil {
		accumulate(res, started, r)
		return nil
	}
	if errors.Is(err, device.ErrLost) && a.lost < 0 {
		a.lost = c
		return a.reconstruct(at, s, o, n, c, res, started)
	}
	if errors.Is(err, device.ErrMedium) {
		// Reconstruct the window from the peers, then rewrite it in
		// place: the write reassigns the bad sectors, repairing the
		// child without degrading the array.
		if err := a.reconstruct(at, s, o, n, c, res, started); err != nil {
			return err
		}
		w := device.Request{LBN: rd.LBN, Sectors: int(n), Write: true}
		wr, err := a.childOp(at, c, w)
		if err != nil {
			return err
		}
		a.dstats.Repairs++
		accumulate(res, started, wr)
		return nil
	}
	return err
}

// reconstruct answers the [o, o+n) window of stripe s's unit on child
// skip by reading the matching window of every other child (data and
// parity) and XORing them — free in virtual time beyond the reads,
// which are all issued at the same instant so the survivors position
// in parallel.
func (a *Array) reconstruct(at float64, s int, o, n int64, skip int, res *device.Result, started *bool) error {
	if a.lost >= 0 && a.lost != skip {
		return &device.Error{
			Op:  fmt.Sprintf("striped child %d", skip),
			Req: device.Request{LBN: a.childStarts[skip][s] + o, Sectors: int(n)},
			Err: fmt.Errorf("%w: stripe %d cannot reconstruct with children %d and %d both failed", device.ErrMedium, s, a.lost, skip),
		}
	}
	for c := range a.children {
		if c == skip {
			continue
		}
		rd := device.Request{LBN: a.childStarts[c][s] + o, Sectors: int(n)}
		r, err := a.childOp(at, c, rd)
		if err != nil {
			return err
		}
		accumulate(res, started, r)
	}
	a.dstats.Reconstructs++
	return nil
}

// writeUnit updates the [o, o+n) window of stripe s's data unit on
// child c and the stripe's parity on child p. All phases are issued at
// the same instant: each child queues its own read before its write
// FCFS, while the data and parity children overlap.
func (a *Array) writeUnit(at float64, s int, o, n int64, c, p int, fua bool, res *device.Result, started *bool) error {
	dataW := device.Request{LBN: a.childStarts[c][s] + o, Sectors: int(n), Write: true, FUA: fua}
	parW := device.Request{LBN: a.childStarts[p][s] + o, Sectors: int(n), Write: true, FUA: fua}
	switch {
	case c == a.lost:
		// The unit's child is gone: fold the new data into parity
		// instead — read the stripe's surviving data units and rewrite
		// parity as their XOR with the new data.
		for cc := range a.children {
			if cc == c || cc == p {
				continue
			}
			rd := device.Request{LBN: a.childStarts[cc][s] + o, Sectors: int(n)}
			r, err := a.childOp(at, cc, rd)
			if err != nil {
				return err
			}
			accumulate(res, started, r)
		}
		r, err := a.childOp(at, p, parW)
		if err != nil {
			return err
		}
		accumulate(res, started, r)
		return nil
	case p == a.lost:
		// Parity is gone: the data write alone carries the update.
		r, err := a.childOp(at, c, dataW)
		if err != nil {
			return err
		}
		accumulate(res, started, r)
		return nil
	}
	// Healthy stripe: read-modify-write — read old data and old parity,
	// then write new data and new parity.
	for _, ph := range [4]struct {
		c  int
		rq device.Request
	}{
		{c, device.Request{LBN: dataW.LBN, Sectors: int(n)}},
		{p, device.Request{LBN: parW.LBN, Sectors: int(n)}},
		{c, dataW},
		{p, parW},
	} {
		r, err := a.childOp(at, ph.c, ph.rq)
		if err != nil {
			if errors.Is(err, device.ErrLost) && a.lost < 0 {
				// Degrade and redo the unit: the degraded branches above
				// take over. Ops already served stand.
				a.lost = ph.c
				return a.writeUnit(at, s, o, n, c, p, fua, res, started)
			}
			if !ph.rq.Write && errors.Is(err, device.ErrMedium) {
				// The old contents are unreadable; recompute parity from
				// scratch instead: read every other data unit and write
				// data + parity (the writes reassign the bad sectors).
				return a.rewriteUnit(at, s, o, n, c, p, fua, res, started)
			}
			return err
		}
		accumulate(res, started, r)
	}
	return nil
}

// rewriteUnit is the reconstruct-write fallback for a healthy stripe
// whose old data or parity is unreadable: parity is recomputed from
// the other data units and both target windows are rewritten, which
// also repairs the bad sectors in place.
func (a *Array) rewriteUnit(at float64, s int, o, n int64, c, p int, fua bool, res *device.Result, started *bool) error {
	for cc := range a.children {
		if cc == c || cc == p {
			continue
		}
		rd := device.Request{LBN: a.childStarts[cc][s] + o, Sectors: int(n)}
		r, err := a.childOp(at, cc, rd)
		if err != nil {
			return err
		}
		accumulate(res, started, r)
	}
	for _, ph := range [2]struct {
		c   int
		lbn int64
	}{{c, a.childStarts[c][s] + o}, {p, a.childStarts[p][s] + o}} {
		w := device.Request{LBN: ph.lbn, Sectors: int(n), Write: true, FUA: fua}
		r, err := a.childOp(at, ph.c, w)
		if err != nil {
			return err
		}
		accumulate(res, started, r)
	}
	a.dstats.Repairs++
	return nil
}

// Submit enqueues one array request issued at the given host time on
// the concurrent path and returns its sequence number: every per-child
// span is handed to its child — lazily scheduled when the child is a
// *sched.Queue (per-spindle reordering), served immediately otherwise
// — and the array-level results are assembled by DrainEach. Issue
// times must be non-decreasing across Submit/Serve calls. Children
// managed by the array must not be driven directly while a batch is
// outstanding.
func (a *Array) Submit(at float64, req device.Request) (int, error) {
	if err := device.CheckRequest(a, req); err != nil {
		return 0, err
	}
	if at < a.lastIssue {
		return 0, fmt.Errorf("striped: issue time %g before previous %g", at, a.lastIssue)
	}
	a.lastIssue = at
	seq := a.nextSeq
	if a.parity {
		// Parity updates are read-modify-write: the phase-2 writes
		// depend on the phase-1 reads, which lazy per-child scheduling
		// cannot order. Parity arrays therefore serve each submission
		// synchronously, straight into the join; DrainEach still
		// reports results in submission order, so batch drivers work
		// unchanged.
		n := len(a.joins)
		a.joins = slices.Grow(a.joins, 1)[:n+1]
		j := &a.joins[n]
		j.seq, j.remaining, j.started, j.failed = seq, 0, true, false
		if err := a.serve(at, req, &j.res); err != nil {
			a.joins = a.joins[:n]
			return 0, err
		}
		a.lastDone = max(a.lastDone, j.res.Done)
	} else if err := a.submitSpans(at, req, seq); err != nil {
		return 0, err
	}
	a.nextSeq++
	return seq, nil
}

// submitSpans registers a join for req and hands each per-child span
// to its child: queued children get it lazily, routed back by the
// queue's sequence number; any other child serves it now. A span the
// child rejects fails the join: spans already in flight still fold
// into it, but it is never reported.
func (a *Array) submitSpans(at float64, req device.Request, seq int) error {
	a.joins = append(a.joins, join{res: device.Result{Req: req, Issue: at, CacheHit: true}, seq: seq})
	ji := len(a.joins) - 1
	j := &a.joins[ji]
	for _, s := range a.split(req) {
		sub := device.Request{LBN: s.lbn, Sectors: s.sectors, Write: req.Write, FUA: req.FUA}
		q, ok := a.children[s.child].(*sched.Queue)
		if !ok {
			r, err := a.childOp(at, s.child, sub)
			if err != nil {
				j.failed = true
				return err
			}
			accumulate(&j.res, &j.started, r)
			continue
		}
		cseq, err := q.Submit(at, sub)
		if err != nil {
			j.failed = true
			return fmt.Errorf("striped: child %d: %w", s.child, err)
		}
		if a.routes[s.child] == nil {
			a.routes[s.child] = make(map[int]int)
		}
		a.routes[s.child][cseq] = ji
		j.remaining++
		if err := a.fleet.Touch(s.child); err != nil {
			return err
		}
	}
	return nil
}

// Outstanding returns the number of submitted array requests awaiting
// DrainEach.
func (a *Array) Outstanding() int { return len(a.joins) }

// DrainEach commits every outstanding child dispatch, joins the span
// completions back into their array requests, and calls fn for each
// assembled result in submission order. With queued children the
// dispatches advance on the array's event core — every spindle on one
// clock, decisions committed in global (time, seq) order — and the
// per-child Flush below is a drained no-op kept as the safety net.
// Folding is child-major regardless of commit order, so the joined
// results do not depend on how the core interleaved the spindles.
func (a *Array) DrainEach(fn func(seq int, r *device.Result)) error {
	if a.fleet != nil {
		// A sticky child error surfaces from the per-child Flush below,
		// attributed to its child; the core run stops at the first
		// failure either way.
		_ = a.fleet.Drain()
	}
	var foldErr error
	for c, child := range a.children {
		q, ok := child.(*sched.Queue)
		if !ok {
			continue
		}
		cr := a.routes[c]
		if err := q.DrainEach(func(seq int, r *device.Result) {
			ji, ok := cr[seq]
			if !ok {
				if foldErr == nil {
					foldErr = fmt.Errorf("striped: child %d completion %d has no owner", c, seq)
				}
				return
			}
			delete(cr, seq)
			j := &a.joins[ji]
			accumulate(&j.res, &j.started, r)
			j.remaining--
		}); err != nil {
			return fmt.Errorf("striped: child %d: %w", c, err)
		}
		if foldErr != nil {
			return foldErr
		}
	}
	for i := range a.joins {
		j := &a.joins[i]
		if j.remaining != 0 {
			return fmt.Errorf("striped: request %d still missing %d spans after drain", i, j.remaining)
		}
		if !j.failed {
			a.lastDone = max(a.lastDone, j.res.Done)
			fn(j.seq, &j.res)
		}
	}
	a.joins = a.joins[:0]
	return nil
}

// DegradedStats counts the fault-absorption work a parity array has
// done.
type DegradedStats struct {
	// Reconstructs is the number of unit windows answered by XORing the
	// surviving children instead of reading the failed one.
	Reconstructs int
	// Repairs is the number of unit windows rewritten in place after a
	// medium error (sector reassignment through the write path).
	Repairs int
	// Retries is the number of transient child timeouts retried.
	Retries int
}

// DegradedStats returns the accumulated fault-absorption counters.
func (a *Array) DegradedStats() DegradedStats { return a.dstats }

// Parity reports whether the array maintains rotating parity.
func (a *Array) Parity() bool { return a.parity }

// LostChild returns the index of the failed child, or -1 while the
// array is healthy (always -1 without parity).
func (a *Array) LostChild() int {
	if !a.parity {
		return -1
	}
	return a.lost
}

// Stripes returns the number of parity stripes (0 without parity).
func (a *Array) Stripes() int {
	if !a.parity {
		return 0
	}
	return len(a.parityChild)
}

// ScrubStripe verifies stripe s end to end: every surviving child's
// full unit — data and parity alike — is read, and a latent sector
// error is reconstructed from the peers and rewritten in place, just
// as a foreground read would repair it. The logical read path never
// touches healthy parity units, so only a scrub surfaces their latent
// errors before a disk loss would make the stripe unrecoverable. It
// returns the completion time of the stripe's last operation and the
// number of unit reads issued.
func (a *Array) ScrubStripe(at float64, s int) (float64, int, error) {
	if !a.parity {
		return 0, 0, fmt.Errorf("striped: scrub needs a parity array")
	}
	if s < 0 || s >= a.Stripes() {
		return 0, 0, fmt.Errorf("striped: scrub stripe %d of %d", s, a.Stripes())
	}
	if at < a.lastIssue {
		return 0, 0, fmt.Errorf("striped: issue time %g before previous %g", at, a.lastIssue)
	}
	reads := 0
	for c := range a.children {
		if c == a.lost {
			continue
		}
		a.lastIssue = at
		n := a.childStarts[c][s+1] - a.childStarts[c][s]
		rd := device.Request{LBN: a.childStarts[c][s], Sectors: int(n)}
		r, err := a.childOp(at, c, rd)
		reads++
		switch {
		case err == nil:
			at = r.Done
		case errors.Is(err, device.ErrLost) && (a.lost < 0 || a.lost == c):
			// The child died under the scrub's hands: degrade and move
			// on — its units are now the rebuild pass's problem.
			a.lost = c
		case errors.Is(err, device.ErrMedium):
			res := device.Result{Req: rd, Issue: at}
			started := false
			if err := a.reconstruct(at, s, 0, n, c, &res, &started); err != nil {
				return 0, reads, err
			}
			w := device.Request{LBN: rd.LBN, Sectors: int(n), Write: true}
			wr, err := a.childOp(at, c, w)
			if err != nil {
				return 0, reads, err
			}
			a.dstats.Repairs++
			accumulate(&res, &started, wr)
			at = res.Done
		default:
			return 0, reads, err
		}
	}
	if at > a.lastDone {
		a.lastDone = at
	}
	return at, reads, nil
}

// Lose marks a child failed, as if every request to it returned
// device.ErrLost: reads reconstruct from the survivors and writes fold
// into parity. Only parity arrays survive a loss, and only one child
// may be lost at a time.
func (a *Array) Lose(c int) error {
	if !a.parity {
		return fmt.Errorf("striped: Lose on a non-parity array")
	}
	if c < 0 || c >= len(a.children) {
		return fmt.Errorf("striped: Lose(%d) of %d children", c, len(a.children))
	}
	if a.lost >= 0 && a.lost != c {
		return fmt.Errorf("striped: child %d already lost", a.lost)
	}
	a.lost = c
	return nil
}

// Replace installs a rebuilt replacement for the lost child and
// returns the array to healthy mode. The replacement must match the
// array's sector size and cover the lost child's striped extent; the
// caller is responsible for having regenerated its contents (see
// RebuildUnits).
func (a *Array) Replace(c int, d device.Device) error {
	if !a.parity {
		return fmt.Errorf("striped: Replace on a non-parity array")
	}
	if c != a.lost {
		return fmt.Errorf("striped: Replace(%d) but lost child is %d", c, a.lost)
	}
	if d == nil {
		return fmt.Errorf("striped: nil replacement")
	}
	if d.SectorSize() != a.sectorSize {
		return fmt.Errorf("striped: replacement sector size %d != %d", d.SectorSize(), a.sectorSize)
	}
	if need := a.childStarts[c][len(a.childStarts[c])-1]; d.Capacity() < need {
		return fmt.Errorf("striped: replacement capacity %d < %d", d.Capacity(), need)
	}
	a.children[c] = d
	q, _ := d.(*sched.Queue)
	if a.fleet != nil {
		// Swap the fleet slot too (nil for an unqueued replacement);
		// the old queue's scheduled event goes stale and drops.
		if err := a.fleet.Update(c, q); err != nil {
			return fmt.Errorf("striped: child %d: %w", c, err)
		}
	}
	a.lost = -1
	return nil
}

// RebuildUnit describes regenerating one stripe unit of the lost
// child. Reading [LBN, LBN+Sectors) of the array's logical space
// triggers exactly the survivor reads reconstruction needs (for a data
// unit, the degraded read of the unit itself; for a parity unit, a
// healthy read of the stripe's data), and the regenerated unit lands
// at [SpareLBN, SpareLBN+SpareSectors) on the replacement child.
type RebuildUnit struct {
	Stripe       int
	LBN          int64
	Sectors      int64
	SpareLBN     int64
	SpareSectors int64
}

// RebuildUnits returns the lost child's stripe units in ascending
// stripe order — the work list a rebuild pass must regenerate onto the
// replacement. Nil while the array is healthy or has no parity.
func (a *Array) RebuildUnits() []RebuildUnit {
	if !a.parity || a.lost < 0 {
		return nil
	}
	units := len(a.parityChild)
	out := make([]RebuildUnit, 0, units)
	for s := 0; s < units; s++ {
		j0 := s * a.nData
		size := a.bounds[j0+1] - a.bounds[j0]
		u := RebuildUnit{
			Stripe:       s,
			SpareLBN:     a.childStarts[a.lost][s],
			SpareSectors: size,
		}
		if a.parityChild[s] == a.lost {
			// Parity unit: regenerating it reads the whole stripe's data.
			u.LBN = a.bounds[j0]
			u.Sectors = a.bounds[j0+a.nData] - a.bounds[j0]
		} else {
			for j := j0; j < j0+a.nData; j++ {
				if a.childOf[j] == a.lost {
					u.LBN = a.bounds[j]
					u.Sectors = a.bounds[j+1] - a.bounds[j]
					break
				}
			}
		}
		out = append(out, u)
	}
	return out
}
