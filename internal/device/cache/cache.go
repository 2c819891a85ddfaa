package cache

import (
	"fmt"
	"sort"

	"traxtents/internal/device"
	"traxtents/internal/disk/geom"
	"traxtents/internal/traxtent"
)

// config collects constructor options.
type config struct {
	capSectors  int64
	capInMB     bool // budget given as capMB, not capSectors
	capMB       float64
	readahead   bool
	writeBack   bool
	slru        bool
	lineSectors int64
}

// Fixed cache parameters: the SLRU protected segment's share of the
// budget, and the host-port timing of a hit — a fixed overhead in ms
// plus the transfer at the port rate in MB/s.
const (
	protectedFrac = 0.5
	hitOverheadMs = 0.05
	hitMBps       = 320
)

// Option configures a Cache.
type Option func(*config)

// WithCapacitySectors sets the cache budget in sectors. Zero disables
// caching entirely: the cache becomes a transparent bypass,
// bit-identical to the bare device.
func WithCapacitySectors(n int64) Option {
	return func(c *config) { c.capSectors, c.capInMB = n, false }
}

// WithCapacityMB sets the cache budget in megabytes (10^6 bytes, the
// same convention as the bus bandwidth); it is converted to sectors
// against the wrapped device's sector size. Zero disables caching. The
// default budget is 4 MB.
func WithCapacityMB(mb float64) Option {
	return func(c *config) { c.capMB, c.capInMB = mb, true }
}

// WithReadahead enables whole-line readahead: a missing read is
// promoted to a full fill of every line (track) it touches, so later
// requests anywhere in those tracks hit. Off, fills cover exactly the
// demanded range. The default is on.
func WithReadahead(on bool) Option {
	return func(c *config) { c.readahead = on }
}

// WithWriteBack switches writes from write-through (forwarded
// immediately, write-allocate) to write-back: the write is absorbed
// into a dirty line and reaches the device only on eviction or
// FlushDirty, coalesced per line. The default is write-through.
func WithWriteBack(on bool) Option {
	return func(c *config) { c.writeBack = on }
}

// WithSegmentedLRU switches eviction from plain LRU to segmented LRU:
// new lines enter a probationary segment and are promoted to a
// protected segment (at most half the budget) on re-reference, so a
// one-pass scan cannot flush the hot set. The default is plain LRU.
func WithSegmentedLRU(on bool) Option {
	return func(c *config) { c.slru = on }
}

// WithLineSectors sets the line size used when the wrapped device
// exposes no track boundaries (default 128 sectors). Devices with
// boundaries always use track-granular lines.
func WithLineSectors(n int64) Option {
	return func(c *config) { c.lineSectors = n }
}

// Stats aggregates cache activity. Hits and Misses count demand reads
// that went through the cache proper; bypassed traffic (budget 0, FUA)
// is counted separately.
type Stats struct {
	Reads, Writes int

	Hits, Misses int
	// Absorbed counts write-back writes that completed in the cache.
	Absorbed int
	// Bypassed counts requests forwarded untouched (bypass mode, FUA,
	// and requests larger than the whole budget).
	Bypassed int

	// FillReads/FillSectors count the reads issued to the wrapped
	// device to fill lines; ReadaheadSectors is the portion fetched
	// beyond the demanded range.
	FillReads        int
	FillSectors      int64
	ReadaheadSectors int64

	Evictions      int
	EvictedSectors int64
	// FlushWrites/FlushSectors count dirty-line writebacks to the
	// wrapped device (evictions, replacements, and FlushDirty).
	FlushWrites  int
	FlushSectors int64
}

// HitRate returns the demand-read hit rate, 0 before any demand read.
func (s Stats) HitRate() float64 {
	if n := s.Hits + s.Misses; n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// line is one cache line: the portion of one device track (or uniform
// line) currently held, with at most one contiguous cached range and
// one contiguous dirty sub-range. Lines are linked into their
// segment's recency list; no map is ever iterated.
type line struct {
	idx    int
	cs, ce int64 // cached [cs, ce)
	ds, de int64 // dirty [ds, de) ⊆ [cs, ce); ds == de means clean
	touch  uint64
	prot   bool // in the SLRU protected segment
	prev   *line
	next   *line
}

func (l *line) sectors() int64 { return l.ce - l.cs }
func (l *line) dirty() bool    { return l.ds < l.de }

// lruList is an intrusive recency list: head is most recent.
type lruList struct {
	head, tail *line
	sectors    int64
}

func (ll *lruList) pushFront(n *line) {
	n.prev, n.next = nil, ll.head
	if ll.head != nil {
		ll.head.prev = n
	}
	ll.head = n
	if ll.tail == nil {
		ll.tail = n
	}
	ll.sectors += n.sectors()
}

func (ll *lruList) remove(n *line) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		ll.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		ll.tail = n.prev
	}
	n.prev, n.next = nil, nil
	ll.sectors -= n.sectors()
}

// Cache is a host-side cache layer over a device. It implements
// device.Device and forwards the wrapped device's capabilities, so it
// can stand anywhere a backend can: under a sched.Queue, over a
// striped array, or around a single disk.
type Cache struct {
	inner device.Device

	bounds  []int64        // track-granular line boundaries; nil → uniform
	index   traxtent.Index // lineOf's lookup over bounds
	uniform int64          // uniform line size in sectors (bounds == nil)
	capLBNs int64

	capSectors  int64
	readahead   bool
	writeBack   bool
	slru        bool
	protCap     int64
	hitSectorMs float64
	bypass      bool

	// batch is the wrapped device as a device.Batch, nil when it is not
	// one. Over a batch inner, forwarded traffic is submitted lazily and
	// resolved at drain; any other inner serves it synchronously.
	batch device.Batch

	lines map[int]*line
	prob  lruList // probationary segment (the only list under plain LRU)
	prot  lruList // protected segment (SLRU)
	total int64   // cached sectors
	op    uint64  // per-request counter: shields the live request's lines

	lastIssue float64
	lastDone  float64
	portFree  float64 // host-port serialization clock for hits
	err       error   // sticky inner failure

	// Submit/Drain batch state (submit.go): pend holds the outstanding
	// requests' slots, the last numbered nextSeq-1; routes[i] is the
	// cache-level meaning of inner sequence number routeBase+i, and
	// inflight counts those not yet resolved. settleFn is the prebound
	// inner DrainEach fold, so repeated drains allocate nothing.
	pend      []slot
	nextSeq   int
	routes    []route
	routeBase int
	inflight  int
	settleFn  func(int, *device.Result)

	stats Stats
}

var (
	_ device.Batch            = (*Cache)(nil)
	_ device.Rotational       = (*Cache)(nil)
	_ device.BoundaryProvider = (*Cache)(nil)
	_ device.Mapped           = (*Cache)(nil)
	_ device.Named            = (*Cache)(nil)
)

// New wraps a device in a host cache. Lines follow the device's track
// boundaries when it is a BoundaryProvider (striped arrays: stripe
// units), and fall back to uniform WithLineSectors lines otherwise.
// Defaults: 4 MB budget, readahead on, write-through, plain LRU.
func New(d device.Device, opts ...Option) (*Cache, error) {
	if d == nil {
		return nil, fmt.Errorf("cache: nil device")
	}
	cfg := config{
		capInMB:     true,
		capMB:       4,
		readahead:   true,
		lineSectors: 128,
	}
	for _, o := range opts {
		o(&cfg)
	}
	budget := cfg.capSectors
	if cfg.capInMB {
		if cfg.capMB < 0 {
			return nil, fmt.Errorf("cache: budget of %g MB", cfg.capMB)
		}
		budget = int64(cfg.capMB * 1e6 / float64(d.SectorSize()))
	}
	if budget < 0 {
		return nil, fmt.Errorf("cache: budget of %d sectors", budget)
	}
	if cfg.lineSectors <= 0 {
		return nil, fmt.Errorf("cache: line of %d sectors", cfg.lineSectors)
	}
	c := &Cache{
		inner:       d,
		capLBNs:     d.Capacity(),
		capSectors:  budget,
		readahead:   cfg.readahead,
		writeBack:   cfg.writeBack,
		slru:        cfg.slru,
		protCap:     int64(protectedFrac * float64(budget)),
		hitSectorMs: float64(d.SectorSize()) / (hitMBps * 1000),
		bypass:      budget == 0,
		lines:       make(map[int]*line),
	}
	c.batch, _ = d.(device.Batch)
	c.settleFn = c.settle
	if bp, ok := d.(device.BoundaryProvider); ok {
		if b := bp.TrackBoundaries(); len(b) >= 2 {
			index, err := traxtent.NewIndex(b)
			if err != nil {
				return nil, fmt.Errorf("cache: line boundaries: %w", err)
			}
			c.bounds, c.index = b, index
		}
	}
	if c.bounds == nil {
		c.uniform = cfg.lineSectors
	}
	return c, nil
}

// Inner returns the wrapped device.
func (c *Cache) Inner() device.Device { return c.inner }

// Stats returns a copy of the accumulated cache statistics.
func (c *Cache) Stats() Stats { return c.stats }

// CapacitySectors returns the configured budget; 0 means bypass.
func (c *Cache) CapacitySectors() int64 { return c.capSectors }

// Bypass reports whether the cache is a transparent passthrough.
func (c *Cache) Bypass() bool { return c.bypass }

// CachedSectors returns the sectors currently held.
func (c *Cache) CachedSectors() int64 { return c.total }

// Err returns the sticky error of a failed inner operation, if any.
func (c *Cache) Err() error { return c.err }

// ---- line geometry ----

// lineOf returns the line index holding lbn: one division for uniform
// lines, one bucket lookup in the boundary index for track-granular
// ones.
func (c *Cache) lineOf(lbn int64) int {
	if c.uniform > 0 {
		return int(lbn / c.uniform)
	}
	return c.index.Find(lbn)
}

func (c *Cache) lineStart(i int) int64 {
	if c.uniform > 0 {
		return int64(i) * c.uniform
	}
	return c.bounds[i]
}

func (c *Cache) lineEnd(i int) int64 {
	if c.uniform > 0 {
		e := int64(i+1) * c.uniform
		if e > c.capLBNs {
			e = c.capLBNs
		}
		return e
	}
	return c.bounds[i+1]
}

// ---- device.Device ----

// Serve services one request as a batch of one: Submit, then drain.
// Requests must be issued in non-decreasing time order (the same
// contract as sched.Queue and the striped array); a request is
// validated before any state changes, so a rejected request leaves the
// cache and the wrapped device untouched.
func (c *Cache) Serve(at float64, req device.Request) (device.Result, error) {
	if len(c.pend) > 0 {
		return device.Result{}, fmt.Errorf("cache: %d submitted requests outstanding; Drain before Serve", len(c.pend))
	}
	if _, err := c.Submit(at, req); err != nil {
		return device.Result{}, err
	}
	if err := c.resolveAll(); err != nil {
		return device.Result{}, err
	}
	res := c.pend[0].res
	c.pend = c.pend[:0]
	return res, nil
}

// servePort serves a request entirely from the host port (hits,
// write-back absorbs) into batch slot pos: serialized on the port
// clock, a fixed overhead plus the transfer at the port rate.
func (c *Cache) servePort(at float64, req device.Request, pos int) {
	start := max(at, c.portFree)
	xfer := float64(req.Sectors) * c.hitSectorMs
	done := start + hitOverheadMs + xfer
	c.portFree = done
	c.noteDone(done)
	s := &c.pend[pos]
	s.filled = true
	s.res = device.Result{
		Req:      req,
		Issue:    at,
		Start:    start,
		MediaEnd: start,
		Done:     done,
		BusTime:  xfer,
		CacheHit: true,
	}
}

// covered reports whether [lbn, end) is entirely held by lines
// first..last.
func (c *Cache) covered(first, last int, lbn, end int64) bool {
	for i := first; i <= last; i++ {
		ln := c.lines[i]
		if ln == nil {
			return false
		}
		s, e := max(lbn, c.lineStart(i)), min(end, c.lineEnd(i))
		if s < ln.cs || e > ln.ce {
			return false
		}
	}
	return true
}

// touchLines refreshes recency for a hit across lines first..last,
// promoting probationary lines to the protected segment under SLRU.
func (c *Cache) touchLines(first, last int) {
	for i := first; i <= last; i++ {
		ln := c.lines[i]
		ln.touch = c.op
		if c.slru && !ln.prot {
			c.prob.remove(ln)
			ln.prot = true
			c.prot.pushFront(ln)
			c.demoteOverflow()
			continue
		}
		c.listOf(ln).remove(ln)
		c.listOf(ln).pushFront(ln)
	}
}

func (c *Cache) listOf(ln *line) *lruList {
	if ln.prot {
		return &c.prot
	}
	return &c.prob
}

// demoteOverflow moves protected-segment LRU lines back to the
// probationary segment until the protected budget holds.
func (c *Cache) demoteOverflow() {
	for c.prot.sectors > c.protCap && c.prot.tail != nil {
		v := c.prot.tail
		c.prot.remove(v)
		v.prot = false
		c.prob.pushFront(v)
	}
}

// admitRange caches [lbn, end): per covered line the new segment is
// merged into the cached range (flushing a dirty range the merge would
// orphan), and dirty marks the segment dirty (write-back). Admission
// is followed by eviction back under budget; the live request's lines
// are shielded.
func (c *Cache) admitRange(at float64, lbn, end int64, dirty bool) error {
	first, last := c.lineOf(lbn), c.lineOf(end-1)
	for i := first; i <= last; i++ {
		s, e := max(lbn, c.lineStart(i)), min(end, c.lineEnd(i))
		ln := c.lines[i]
		if ln == nil {
			ln = &line{idx: i, cs: s, ce: e}
			c.lines[i] = ln
			c.total += e - s
			c.prob.pushFront(ln)
		} else {
			list := c.listOf(ln)
			list.remove(ln)
			if s <= ln.ce && e >= ln.cs {
				// Overlap or abutment: grow the cached range.
				ns, ne := min(s, ln.cs), max(e, ln.ce)
				c.total += (ne - ns) - ln.sectors()
				ln.cs, ln.ce = ns, ne
			} else {
				// Disjoint replacement: the old range (and any dirty
				// part of it) is dropped; unwritten dirty data must
				// reach the device first.
				if ln.dirty() {
					if err := c.flushLine(at, ln); err != nil {
						return err
					}
				}
				c.total += (e - s) - ln.sectors()
				ln.cs, ln.ce = s, e
				ln.ds, ln.de = 0, 0
			}
			list.pushFront(ln)
		}
		if dirty {
			switch {
			case !ln.dirty():
				ln.ds, ln.de = s, e
			case s <= ln.de && e >= ln.ds:
				ln.ds, ln.de = min(s, ln.ds), max(e, ln.de)
			default:
				// Two disjoint dirty ranges cannot be represented:
				// write the old one back, then dirty the new.
				if err := c.flushLine(at, ln); err != nil {
					return err
				}
				ln.ds, ln.de = s, e
			}
		}
		ln.touch = c.op
	}
	return c.evict(at)
}

// evict drops least-recently-used lines until the budget holds,
// probationary segment first, writing dirty victims back. Lines of the
// live request (touch == op) are shielded, so a single admission never
// evicts itself; requests larger than the budget never reach
// admission.
func (c *Cache) evict(at float64) error {
	for c.total > c.capSectors {
		v := c.victim(&c.prob)
		if v == nil {
			v = c.victim(&c.prot)
		}
		if v == nil {
			return nil
		}
		if v.dirty() {
			if err := c.flushLine(at, v); err != nil {
				return err
			}
		}
		c.stats.Evictions++
		c.stats.EvictedSectors += v.sectors()
		c.dropLine(v)
	}
	return nil
}

// victim returns the least recent evictable line of a segment.
func (c *Cache) victim(ll *lruList) *line {
	for v := ll.tail; v != nil; v = v.prev {
		if v.touch != c.op {
			return v
		}
	}
	return nil
}

// dropLine removes a line from its list and the index.
func (c *Cache) dropLine(ln *line) {
	c.listOf(ln).remove(ln)
	delete(c.lines, ln.idx)
	c.total -= ln.sectors()
}

// flushLine writes a line's dirty range to the wrapped device at the
// given issue time and marks the line clean.
func (c *Cache) flushLine(at float64, ln *line) error {
	req := device.Request{LBN: ln.ds, Sectors: int(ln.de - ln.ds), Write: true}
	if err := c.innerFlush(at, req); err != nil {
		c.err = fmt.Errorf("cache: writeback %+v: %w", req, err)
		return c.err
	}
	c.stats.FlushWrites++
	c.stats.FlushSectors += ln.de - ln.ds
	ln.ds, ln.de = 0, 0
	return nil
}

// invalidateRange drops every line overlapping [lbn, end); a dirty
// range the invalidating write does not fully supersede is written
// back first.
func (c *Cache) invalidateRange(at float64, lbn, end int64) error {
	for i := c.lineOf(lbn); i <= c.lineOf(end-1); i++ {
		ln := c.lines[i]
		if ln == nil {
			continue
		}
		if ln.dirty() && !(ln.ds >= lbn && ln.de <= end) {
			if err := c.flushLine(at, ln); err != nil {
				return err
			}
		}
		c.dropLine(ln)
	}
	return nil
}

// flushRange writes back the dirty range of every line overlapping
// [lbn, end), leaving the lines cached clean.
func (c *Cache) flushRange(at float64, lbn, end int64) error {
	for i := c.lineOf(lbn); i <= c.lineOf(end-1); i++ {
		if ln := c.lines[i]; ln != nil && ln.dirty() {
			if err := c.flushLine(at, ln); err != nil {
				return err
			}
		}
	}
	return nil
}

// FlushDirty writes every dirty line back to the wrapped device at the
// given issue time in ascending line order, leaving the lines cached
// clean. Issue times follow the same non-decreasing contract as Serve.
func (c *Cache) FlushDirty(at float64) error {
	if c.err != nil {
		return c.err
	}
	if at < c.lastIssue {
		return fmt.Errorf("cache: flush at %g before previous issue %g", at, c.lastIssue)
	}
	c.lastIssue = at
	var idxs []int
	for i, ln := range c.lines {
		if ln.dirty() {
			idxs = append(idxs, i)
		}
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		if err := c.flushLine(at, c.lines[i]); err != nil {
			return err
		}
	}
	return nil
}

// noteDone records a completion on the cache's clock.
func (c *Cache) noteDone(done float64) {
	if done > c.lastDone {
		c.lastDone = done
	}
}

// ---- identity and forwarded capabilities ----

// Now returns the completion time of the last finished request.
func (c *Cache) Now() float64 { return c.lastDone }

// Capacity returns the wrapped device's capacity.
func (c *Cache) Capacity() int64 { return c.capLBNs }

// SectorSize returns the wrapped device's sector size.
func (c *Cache) SectorSize() int { return c.inner.SectorSize() }

// RotationPeriod forwards the wrapped device's revolution time (0 when
// it has none).
func (c *Cache) RotationPeriod() float64 {
	if r, ok := c.inner.(device.Rotational); ok {
		return r.RotationPeriod()
	}
	return 0
}

// TrackBoundaries forwards the wrapped device's boundaries (nil when
// it has none), so traxtent tables build through the cache.
func (c *Cache) TrackBoundaries() []int64 {
	if bp, ok := c.inner.(device.BoundaryProvider); ok {
		return bp.TrackBoundaries()
	}
	return nil
}

// Layout forwards the wrapped device's physical mapping; nil when the
// wrapped device is not Mapped, per the device.Mapped contract.
func (c *Cache) Layout() *geom.Layout {
	if m, ok := c.inner.(device.Mapped); ok {
		return m.Layout()
	}
	return nil
}

// Name identifies the cache configuration over the wrapped device.
func (c *Cache) Name() string {
	inner := "device"
	if n, ok := c.inner.(device.Named); ok {
		inner = n.Name()
	}
	if c.bypass {
		return inner + "+cache[off]"
	}
	mode := "wt"
	if c.writeBack {
		mode = "wb"
	}
	pol := "lru"
	if c.slru {
		pol = "slru"
	}
	ra := ""
	if c.readahead {
		ra = ",ra"
	}
	return fmt.Sprintf("%s+cache[%dKiB,%s,%s%s]", inner,
		c.capSectors*int64(c.inner.SectorSize())/1024, pol, mode, ra)
}
