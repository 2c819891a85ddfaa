// Submit/DrainEach is the cache's one request path (device.Batch);
// Serve is a batch of one. Submit applies the full line-state machine
// (hit detection, fills, allocation, eviction, writeback) at
// submission time and serves hits from the host port. Misses, fills,
// and writebacks go to the wrapped device's own Submit when it is a
// device.Batch — a queue's scheduler, or an array's queued children,
// must see them together to reorder them — and are served
// synchronously otherwise; DrainEach drains the wrapped device and
// reports every result in submission order.
//
// Line state therefore never depends on inner timing — only the
// *timing* of fills and forwards resolves at drain — which keeps the
// policy deterministic and the results independent of how requests
// are grouped into batches over an inner device that does not reorder.
// The cost is virtual-time optimism: a read that hits a just-filled
// line completes at port speed even though the fill's media access may
// be scheduled later by the inner queue. Everything runs on the
// caller's goroutine, so a batch is bit-identical at any GOMAXPROCS.

package cache

import (
	"fmt"
	"slices"

	"traxtents/internal/device"
)

// slot is one submitted request's result, filled either immediately
// (hits, absorbs, forwards to a synchronous device) or at drain.
type slot struct {
	filled bool
	res    device.Result
}

type routeKind int

const (
	routeForward routeKind = iota // bypass / FUA / unexpanded miss
	routeFill                     // line fill: report as the demand request
	routeFlush                    // dirty writeback: timing only
	routeDone                     // resolved, or a number this batch never used
)

// route maps one inner submission back to its cache-level meaning.
type route struct {
	kind routeKind
	pos  int // pend slot; -1 for flushes
	req  device.Request
}

// Submit enqueues a request issued at the given host time and returns
// its sequence number; hit/miss is decided against the current line
// state. Issue times must be non-decreasing across Submit/Serve calls,
// and the wrapped device must not be driven directly while a batch is
// outstanding. A request the wrapped device rejects when it is
// forwarded untouched returns the device's error and leaves no slot
// behind; a failed fill or writeback is sticky.
func (c *Cache) Submit(at float64, req device.Request) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	if err := device.CheckRequest(c, req); err != nil {
		return 0, err
	}
	if at < c.lastIssue {
		return 0, fmt.Errorf("cache: issue time %g before previous %g", at, c.lastIssue)
	}
	c.lastIssue = at
	c.op++
	if req.Write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	// Restore the budget before anything is shielded: a previous
	// request's merge may have grown its own (then-shielded) lines past
	// the budget, and a hit-only steady state would otherwise never
	// evict the excess.
	if err := c.evict(at); err != nil {
		return 0, err
	}
	pos := len(c.pend)
	c.pend = slices.Grow(c.pend, 1)[:pos+1]
	c.pend[pos].filled = false
	if err := c.dispatch(at, req, pos); err != nil {
		c.pend = c.pend[:pos]
		return 0, err
	}
	c.nextSeq++
	return c.nextSeq - 1, nil
}

// dispatch runs one request through the line-state machine into slot
// pos.
func (c *Cache) dispatch(at float64, req device.Request, pos int) error {
	if !c.bypass && !req.FUA {
		if req.Write {
			return c.submitWrite(at, req, pos)
		}
		return c.submitRead(at, req, pos)
	}
	// A FUA write makes overlapping cached lines stale, so they are
	// dropped (dirty ranges the write does not fully supersede are
	// flushed first); a FUA read must observe the device, so
	// overlapping dirty lines are written back before it is forwarded.
	if req.FUA && !c.bypass {
		end := req.LBN + int64(req.Sectors)
		if req.Write {
			if err := c.invalidateRange(at, req.LBN, end); err != nil {
				return err
			}
		} else if err := c.flushRange(at, req.LBN, end); err != nil {
			return err
		}
	}
	if err := c.forward(at, req, pos); err != nil {
		return err
	}
	c.stats.Bypassed++
	return nil
}

// submitRead services a read: a full hit is served from the host port;
// a miss fills through the wrapped device, promoted to whole-line
// (whole-track) fills under readahead.
func (c *Cache) submitRead(at float64, req device.Request, pos int) error {
	end := req.LBN + int64(req.Sectors)
	first, last := c.lineOf(req.LBN), c.lineOf(end-1)
	if c.covered(first, last, req.LBN, end) {
		c.touchLines(first, last)
		c.stats.Hits++
		c.servePort(at, req, pos)
		return nil
	}
	fillLBN, fillEnd := req.LBN, end
	if c.readahead {
		fillLBN, fillEnd = c.lineStart(first), c.lineEnd(last)
	}
	if fillEnd-fillLBN > c.capSectors {
		// Larger than the whole budget: serve the demand uncached —
		// bypass traffic, not a demand miss.
		c.stats.Bypassed++
		return c.forward(at, req, pos)
	}
	c.stats.Misses++
	// Admit (evicting, flushing victims) before the fill so the fill
	// queues behind any writeback traffic on the device.
	if err := c.admitRange(at, fillLBN, fillEnd, false); err != nil {
		return err
	}
	fill := device.Request{LBN: fillLBN, Sectors: int(fillEnd - fillLBN)}
	if err := c.forwardAs(at, fill, route{kind: routeFill, pos: pos, req: req}); err != nil {
		c.err = fmt.Errorf("cache: fill %+v: %w", fill, err)
		return c.err
	}
	c.stats.FillReads++
	c.stats.FillSectors += fillEnd - fillLBN
	c.stats.ReadaheadSectors += (fillEnd - fillLBN) - int64(req.Sectors)
	return nil
}

// submitWrite services a write: write-back absorbs it into dirty lines
// at host-port cost; write-through forwards it and write-allocates, so
// read-your-writes hits in both modes. Writes larger than the whole
// budget forward uncached (overlapping lines are dropped as stale).
func (c *Cache) submitWrite(at float64, req device.Request, pos int) error {
	end := req.LBN + int64(req.Sectors)
	if int64(req.Sectors) > c.capSectors {
		c.stats.Bypassed++
		if err := c.invalidateRange(at, req.LBN, end); err != nil {
			return err
		}
		return c.forward(at, req, pos)
	}
	if c.writeBack {
		if err := c.admitRange(at, req.LBN, end, true); err != nil {
			return err
		}
		c.stats.Absorbed++
		c.servePort(at, req, pos)
		return nil
	}
	if err := c.forward(at, req, pos); err != nil {
		return err
	}
	return c.admitRange(at, req.LBN, end, false)
}

// forward hands the request itself to the wrapped device.
func (c *Cache) forward(at float64, req device.Request, pos int) error {
	return c.forwardAs(at, req, route{kind: routeForward, pos: pos, req: req})
}

// forwardAs hands an inner request (the caller's own, an expanded
// fill, or a writeback) to the wrapped device — through its Submit
// when it is a device.Batch, served synchronously otherwise — and
// records how to resolve the completion. Errors are the device's own.
func (c *Cache) forwardAs(at float64, inner device.Request, rt route) error {
	if c.batch == nil {
		res, err := c.inner.Serve(at, inner)
		if err != nil {
			return err
		}
		c.resolve(rt, &res)
		return nil
	}
	seq, err := c.batch.Submit(at, inner)
	if err != nil {
		return err
	}
	if len(c.routes) == 0 {
		c.routeBase = seq
	}
	for c.routeBase+len(c.routes) < seq {
		c.routes = append(c.routes, route{kind: routeDone})
	}
	c.routes = append(c.routes, rt)
	c.inflight++
	return nil
}

// innerFlush issues one dirty writeback: inside a batch it is inner
// traffic like any other; outside one (FlushDirty, or the budget
// restore ahead of a request) it completes synchronously.
func (c *Cache) innerFlush(at float64, req device.Request) error {
	rt := route{kind: routeFlush, pos: -1}
	if len(c.pend) > 0 {
		return c.forwardAs(at, req, rt)
	}
	res, err := c.inner.Serve(at, req)
	if err != nil {
		return err
	}
	c.resolve(rt, &res)
	return nil
}

// Outstanding returns the number of submitted requests awaiting Drain.
func (c *Cache) Outstanding() int { return len(c.pend) }

// resolve settles one inner completion against its route.
func (c *Cache) resolve(rt route, res *device.Result) {
	c.noteDone(res.Done)
	if rt.kind == routeFlush {
		return
	}
	s := &c.pend[rt.pos]
	s.filled = true
	s.res = *res
	if rt.kind == routeFill {
		s.res.Req = rt.req
	}
}

// Drain drains the wrapped device, settles in-flight fills, and
// returns every submitted request's result in submission order.
func (c *Cache) Drain() ([]device.Result, error) {
	out := make([]device.Result, 0, len(c.pend))
	if err := c.DrainEach(func(_ int, r *device.Result) { out = append(out, *r) }); err != nil {
		return nil, err
	}
	return out, nil
}

// DrainEach is Drain without the materialized result slice: fn is
// called once per submitted request, in submission order, with its
// sequence number and a pointer into the batch buffer (valid only
// during the call). With a caller-prebound fn the steady-state path
// allocates nothing, which is what lets the bulk trace-replay driver
// stream millions of requests through the stack in bounded windows.
func (c *Cache) DrainEach(fn func(seq int, r *device.Result)) error {
	if err := c.resolveAll(); err != nil {
		return err
	}
	base := c.nextSeq - len(c.pend)
	for i := range c.pend {
		fn(base+i, &c.pend[i].res)
	}
	c.pend = c.pend[:0]
	return nil
}

// resolveAll drains the wrapped device when the batch has traffic in
// flight there, and checks that every outstanding request has its
// result.
func (c *Cache) resolveAll() error {
	if c.err != nil {
		return c.err
	}
	if c.inflight > 0 {
		if err := c.batch.DrainEach(c.settleFn); err != nil {
			c.err = fmt.Errorf("cache: drain: %w", err)
			return c.err
		}
		if c.err != nil {
			return c.err
		}
		if c.inflight > 0 {
			c.err = fmt.Errorf("cache: %d inner submissions unresolved after drain", c.inflight)
			return c.err
		}
	}
	c.routes = c.routes[:0]
	for i := range c.pend {
		if !c.pend[i].filled {
			c.err = fmt.Errorf("cache: submitted request %d has no completion", i)
			return c.err
		}
	}
	return nil
}

// settle routes one inner completion back to its batch slot (the
// prebound fold of the wrapped device's DrainEach).
func (c *Cache) settle(seq int, r *device.Result) {
	if c.err != nil {
		return
	}
	i := seq - c.routeBase
	if i < 0 || i >= len(c.routes) || c.routes[i].kind == routeDone {
		c.err = fmt.Errorf("cache: inner completion %d has no owner", seq)
		return
	}
	rt := c.routes[i]
	c.routes[i].kind = routeDone
	c.inflight--
	c.resolve(rt, r)
}
