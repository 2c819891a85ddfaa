package striped

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"traxtents/internal/device"
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
// command queueing. Every request's spans are queued lazily on their
// children; per-spindle reordering needs concurrent array-level
// requests, so it takes effect when a batch of Submits is drained
// together, while Serve, a batch of one, leaves nothing for a child
// scheduler to reorder. The queues forward the children's track
// boundaries, so traxtent-matched striping still sees the real
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

	// Parity state. nData is the data units per stripe (N, or N-1);
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

	// Batch state: the unreported requests in submission order, one
	// slot per merged span of theirs, each queued child's routes back to
	// the slots, and the number of spans queued lazily since the last
	// settle. nextSeq numbers the array's own submissions.
	joins     []join
	spans     []spanSlot
	lanes     []lane
	lazy      int
	nextSeq   int
	lastIssue float64
}

// join is one array-level request being assembled from child spans,
// whose merged spans hold slots span0 .. span0+spans-1 in split order.
type join struct {
	res       device.Result
	seq       int
	span0     int
	spans     int
	remaining int // spans still queued lazily on children
	started   bool
	// failed marks a request whose Submit was rejected part-way: spans
	// already in flight still fold into it, but it is never reported.
	failed bool
}

// spanSlot is one merged span: its join and, once served, its bus
// time, which finish sums in split order.
type spanSlot struct {
	ji  int
	bus float64
}

// lane routes a queued child's lazily submitted spans in the current
// batch: slots[i] is the span slot of its submission base+i, -1 once in.
type lane struct {
	base  int
	slots []int
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
		minCap = min(minCap, c.Capacity())
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
		units = min(units, len(b)-1)
	}
	n := len(children)
	a.lost = -1
	a.nData = n
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
	}
	a.bounds = make([]int64, 1, units*a.nData+1)
	a.childLBN = make([]int64, 0, units*a.nData)
	a.childOf = make([]int, 0, units*a.nData)
	at := int64(0)
	for s := 0; s < units; s++ {
		p, size := -1, int64(0)
		if a.parity {
			p = (n - 1) - s%n
			a.parityChild[s] = p
			size = childBounds[0][s+1] - childBounds[0][s]
			for _, b := range childBounds[1:] {
				size = min(size, b[s+1]-b[s])
			}
		}
		for c := 0; c < n; c++ {
			if c == p {
				continue
			}
			if !a.parity {
				size = childBounds[c][s+1] - childBounds[c][s]
			}
			a.childOf = append(a.childOf, c)
			a.childLBN = append(a.childLBN, childBounds[c][s])
			at += size
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
	a.lanes = make([]lane, n)

	// A common child rotation period is the array's; mixed spindles (or
	// non-rotational children) leave it unknown.
	for i, c := range children {
		r, ok := c.(device.Rotational)
		if !ok || r.RotationPeriod() <= 0 || (i > 0 && r.RotationPeriod() != a.period) {
			a.period = 0
			break
		}
		a.period = r.RotationPeriod()
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
func (a *Array) TrackBoundaries() []int64 { return slices.Clone(a.bounds) }

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
		n := min(a.bounds[j+1]-lbn, left) // sectors to the unit boundary
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
	dst.MediaEnd = max(dst.MediaEnd, r.MediaEnd)
	dst.Done = max(dst.Done, r.Done)
	dst.BusTime += r.BusTime
	dst.Prefetched += r.Prefetched
	dst.CacheHit = dst.CacheHit && r.CacheHit
	*started = true
}

// Serve services one request synchronously, as a batch of one: each
// per-child span is issued at the request's issue time (the children
// position and transfer in parallel), and the array's completion is
// the last child's. The aggregate Result has no media-phase breakdown —
// per-child timing is available from the children themselves. Serve is
// a per-request barrier; it refuses to interleave with an outstanding
// Submit batch (DrainEach first) — except on parity arrays, whose
// submissions are themselves synchronous.
func (a *Array) Serve(at float64, req device.Request) (device.Result, error) {
	var res device.Result
	if err := a.ServeInto(at, req, &res); err != nil {
		return device.Result{}, err
	}
	return res, nil
}

// ServeInto is Serve writing the result into *res (device.InPlace):
// Submit, settle, and take the request's join. The steady state
// allocates nothing.
func (a *Array) ServeInto(at float64, req device.Request, res *device.Result) error {
	if !a.parity && len(a.joins) > 0 {
		return fmt.Errorf("striped: %d submitted requests outstanding; drain before Serve", len(a.joins))
	}
	if _, err := a.Submit(at, req); err != nil {
		if a.lazy > 0 {
			// Land the failed request's queued spans, so Serve stays a
			// barrier; the request itself is never reported.
			a.DrainEach(func(int, *device.Result) {})
		}
		return err
	}
	if err := a.settle(); err != nil {
		return err
	}
	ji := len(a.joins) - 1
	j := &a.joins[ji]
	*res = j.res
	a.joins, a.spans = a.joins[:ji], a.spans[:j.span0]
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
			return r, nil
		}
		if a.parity && device.IsTransient(err) && attempt < maxRetries {
			a.dstats.Retries++
			continue
		}
		return nil, &device.Error{Op: fmt.Sprintf("striped child %d", c), Req: sub, Err: err}
	}
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
		n := min(a.bounds[j+1]-lbn, left)
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
		return a.repair(at, s, o, n, c, res, started)
	}
	return err
}

// repair reconstructs the [o, o+n) window of stripe s's unit on child
// c from the peers, then rewrites it in place: the write reassigns the
// bad sectors, repairing the child without degrading the array.
func (a *Array) repair(at float64, s int, o, n int64, c int, res *device.Result, started *bool) error {
	if err := a.reconstruct(at, s, o, n, c, res, started); err != nil {
		return err
	}
	wr, err := a.childOp(at, c, device.Request{LBN: a.childStarts[c][s] + o, Sectors: int(n), Write: true})
	if err != nil {
		return err
	}
	a.dstats.Repairs++
	accumulate(res, started, wr)
	return nil
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
	if err := a.readPeers(at, s, o, n, skip, skip, res, started); err != nil {
		return err
	}
	a.dstats.Reconstructs++
	return nil
}

// readPeers reads the [o, o+n) window of stripe s on every child but x
// and y, all at the same instant.
func (a *Array) readPeers(at float64, s int, o, n int64, x, y int, res *device.Result, started *bool) error {
	for c := range a.children {
		if c == x || c == y {
			continue
		}
		r, err := a.childOp(at, c, device.Request{LBN: a.childStarts[c][s] + o, Sectors: int(n)})
		if err != nil {
			return err
		}
		accumulate(res, started, r)
	}
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
		if err := a.readPeers(at, s, o, n, c, p, res, started); err != nil {
			return err
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
	if err := a.readPeers(at, s, o, n, c, p, res, started); err != nil {
		return err
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

// Submit enqueues one array request issued at the given host time and
// returns its sequence number; DrainEach reports the assembled result.
// Parity writes and degraded parity arrays walk stripe units
// synchronously (lazy per-child scheduling cannot order dependent
// read-modify-write phases); other requests fan out in submitSpans.
// Issue times must be non-decreasing across Submit/Serve calls, and
// children must not be driven directly while a batch is outstanding.
func (a *Array) Submit(at float64, req device.Request) (int, error) {
	if err := device.CheckRequest(a, req); err != nil {
		return 0, err
	}
	// Enforce the issue-order contract up front: a regressive time
	// rejected by one child mid-fan-out would leave the children's
	// clocks inconsistently advanced.
	if at < a.lastIssue {
		return 0, fmt.Errorf("striped: issue time %g before previous %g", at, a.lastIssue)
	}
	a.lastIssue = at
	ji := len(a.joins)
	a.joins = append(a.joins, join{res: device.Result{Req: req, Issue: at, CacheHit: true}, seq: a.nextSeq, span0: len(a.spans)})
	var err error
	if a.parity && (req.Write || a.lost >= 0) {
		err = a.serveParity(at, req, &a.joins[ji].res)
	} else {
		err = a.submitSpans(at, req, ji)
	}
	j := &a.joins[ji]
	if err != nil {
		j.failed = true // spans in flight still fold into it; it is never reported
		if j.remaining == 0 {
			a.joins, a.spans = a.joins[:ji], a.spans[:j.span0]
		}
		return 0, err
	}
	if j.remaining == 0 {
		a.finish(j)
	}
	a.nextSeq++
	return j.seq, nil
}

// submitSpans fans join ji's request out as merged per-child spans in
// split order: a non-parity array queues a span lazily on a child that
// is a *sched.Queue, and any other child serves its span now, so a
// healthy parity read fans out exactly like RAID-0 over the same
// layout. A span the child rejects fails the request; spans already
// queued still fold into the join, which is never reported.
func (a *Array) submitSpans(at float64, req device.Request, ji int) error {
	j := &a.joins[ji]
	spans := a.split(req)
	j.spans = len(spans)
	for i, s := range spans {
		a.spans = append(a.spans, spanSlot{ji: ji})
		sub := device.Request{LBN: s.lbn, Sectors: s.sectors, Write: req.Write, FUA: req.FUA}
		if q, ok := a.children[s.child].(*sched.Queue); ok && !a.parity {
			cseq, err := q.Submit(at, sub)
			if err != nil {
				return &device.Error{Op: fmt.Sprintf("striped child %d", s.child), Req: sub, Err: err}
			}
			l := &a.lanes[s.child]
			if len(l.slots) == 0 {
				l.base = cseq
			}
			l.slots = append(l.slots, j.span0+i)
			j.remaining++
			a.lazy++
			continue
		}
		r, err := a.childOp(at, s.child, sub)
		if err != nil {
			if a.parity && a.absorb(err, s.child) {
				// The child just failed under a healthy parity read:
				// re-walk the whole request unit by unit, reconstructing
				// what the failed child cannot serve. Spans already
				// served stand — the retry is a fresh pass over the same
				// addresses.
				j.spans = 0
				return a.serveParity(at, req, &j.res)
			}
			return err
		}
		a.spans[j.span0+i].bus = r.BusTime
		accumulate(&j.res, &j.started, r)
	}
	return nil
}

// finish completes a join: merged spans' BusTime is re-summed from the
// slots in split order, and the array clock moves to its completion.
func (a *Array) finish(j *join) {
	if j.spans > 1 {
		bus := a.spans[j.span0].bus
		for _, s := range a.spans[j.span0+1 : j.span0+j.spans] {
			bus += s.bus
		}
		j.res.BusTime = bus
	}
	a.lastDone = max(a.lastDone, j.res.Done)
}

// settle flushes each child holding lazily queued spans, in index
// order, and folds the completions into their joins; it does nothing
// when no span was queued lazily. Spindles share no state and finish
// sums bus time in split order, so the fold order changes no result.
// A failed settle abandons the batch.
func (a *Array) settle() error {
	if a.lazy == 0 {
		return nil
	}
	a.lazy = 0
	var err error
	for c := range a.lanes {
		l := &a.lanes[c]
		if len(l.slots) > 0 && err == nil {
			if qerr := a.children[c].(*sched.Queue).DrainEach(func(seq int, r *device.Result) {
				i := seq - l.base
				if i < 0 || i >= len(l.slots) || l.slots[i] < 0 {
					err = cmp.Or(err, fmt.Errorf("striped: child %d completion %d has no owner", c, seq))
					return
				}
				k := l.slots[i]
				l.slots[i] = -1
				a.spans[k].bus = r.BusTime
				j := &a.joins[a.spans[k].ji]
				accumulate(&j.res, &j.started, r)
				if j.remaining--; j.remaining == 0 && !j.failed {
					a.finish(j)
				}
			}); qerr != nil {
				err = fmt.Errorf("striped: child %d: %w", c, qerr)
			}
		}
		l.slots = l.slots[:0]
	}
	for i := range a.joins {
		if j := &a.joins[i]; err == nil && j.remaining != 0 {
			err = fmt.Errorf("striped: request %d still missing %d spans after drain", i, j.remaining)
		}
	}
	if err != nil {
		a.joins, a.spans = a.joins[:0], a.spans[:0]
	}
	return err
}

// Outstanding returns the number of submitted array requests awaiting
// DrainEach.
func (a *Array) Outstanding() int { return len(a.joins) }

// DrainEach settles the batch and calls fn for each assembled result
// in submission order.
func (a *Array) DrainEach(fn func(seq int, r *device.Result)) error {
	if err := a.settle(); err != nil {
		return err
	}
	for i := range a.joins {
		if j := &a.joins[i]; !j.failed {
			fn(j.seq, &j.res)
		}
	}
	a.joins, a.spans = a.joins[:0], a.spans[:0]
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
			if err := a.repair(at, s, 0, n, c, &res, &started); err != nil {
				return 0, reads, err
			}
			at = res.Done
		default:
			return 0, reads, err
		}
	}
	a.lastDone = max(a.lastDone, at)
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
