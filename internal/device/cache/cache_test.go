package cache_test

import (
	"errors"
	"strings"
	"testing"

	"traxtents/internal/device"
	"traxtents/internal/device/cache"
	"traxtents/internal/device/sched"
	"traxtents/internal/device/trace"
	"traxtents/internal/device/zoned"
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

// newBareSim builds the same disk with its firmware cache and prefetch
// disabled, so Result.CacheHit can only come from the host cache layer
// (fills through a cache-enabled disk propagate firmware hits).
func newBareSim(t testing.TB, seed int64) *sim.Disk {
	t.Helper()
	m := model.MustGet("HP-C2247")
	cfg := m.DefaultConfig()
	cfg.Seed = seed
	cfg.CacheSegments, cfg.CacheSegSectors = 0, 0
	cfg.ReadAhead = false
	d, err := m.NewDisk(cfg)
	if err != nil {
		t.Fatalf("NewDisk: %v", err)
	}
	return d
}

func newCached(t testing.TB, inner device.Device, opts ...cache.Option) *cache.Cache {
	t.Helper()
	c, err := cache.New(inner, opts...)
	if err != nil {
		t.Fatalf("cache.New: %v", err)
	}
	return c
}

// track returns track ti's start LBN and length on the device.
func track(t testing.TB, d device.Device, ti int) (int64, int) {
	t.Helper()
	b := d.(device.BoundaryProvider).TrackBoundaries()
	if ti+1 >= len(b) {
		t.Fatalf("track %d outside %d-track device", ti, len(b)-1)
	}
	return b[ti], int(b[ti+1] - b[ti])
}

// serve is a fatal-on-error Serve helper that walks the issue time.
func serve(t testing.TB, c device.Device, at *float64, req device.Request) device.Result {
	t.Helper()
	res, err := c.Serve(*at, req)
	if err != nil {
		t.Fatalf("Serve(%g, %+v): %v", *at, req, err)
	}
	*at = res.Done
	return res
}

func TestNewValidation(t *testing.T) {
	d := newSim(t, 1)
	if _, err := cache.New(nil); err == nil {
		t.Error("nil device accepted")
	}
	bad := [][]cache.Option{
		{cache.WithCapacityMB(-1)},
		{cache.WithCapacitySectors(-100)},
		{cache.WithLineSectors(0)},
		{cache.WithLineSectors(-8)},
	}
	for i, opts := range bad {
		if _, err := cache.New(d, opts...); err == nil {
			t.Errorf("bad option set %d accepted", i)
		}
	}
}

// TestReadaheadPromotesToWholeTrack: a sub-track miss fills the whole
// track, so every later read anywhere in that track is a host hit.
func TestReadaheadPromotesToWholeTrack(t *testing.T) {
	d := newSim(t, 1)
	c := newCached(t, d, cache.WithCapacityMB(4))
	s0, n0 := track(t, c, 0)
	at := 0.0

	req := device.Request{LBN: s0, Sectors: 8}
	r1 := serve(t, c, &at, req)
	if r1.Req != req {
		t.Fatalf("fill echoed %+v, want %+v", r1.Req, req)
	}
	st := c.Stats()
	if st.Misses != 1 || st.FillReads != 1 || st.FillSectors != int64(n0) {
		t.Fatalf("first read: %+v, want 1 miss filling %d sectors", st, n0)
	}
	if st.ReadaheadSectors != int64(n0-8) {
		t.Fatalf("ReadaheadSectors = %d, want %d", st.ReadaheadSectors, n0-8)
	}

	// A different block of the same track, and the whole track, hit.
	r2 := serve(t, c, &at, device.Request{LBN: s0 + 16, Sectors: 8})
	r3 := serve(t, c, &at, device.Request{LBN: s0, Sectors: n0})
	if !r2.CacheHit || !r3.CacheHit {
		t.Fatalf("same-track reads missed: %+v / %+v", r2, r3)
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("after hits: %+v", st)
	}
	// Hits are host-port served: far cheaper than the media fill.
	if hit := r2.Done - r2.Issue; hit >= r1.Done-r1.Issue {
		t.Fatalf("hit (%g ms) not cheaper than fill (%g ms)", hit, r1.Done-r1.Issue)
	}
}

// TestReadaheadOff: fills cover exactly the demand, so a different
// block of the same track still misses.
func TestReadaheadOff(t *testing.T) {
	d := newSim(t, 1)
	c := newCached(t, d, cache.WithCapacityMB(4), cache.WithReadahead(false))
	s0, _ := track(t, c, 0)
	at := 0.0
	serve(t, c, &at, device.Request{LBN: s0, Sectors: 8})
	serve(t, c, &at, device.Request{LBN: s0 + 16, Sectors: 8})
	if st := c.Stats(); st.Misses != 2 || st.ReadaheadSectors != 0 {
		t.Fatalf("readahead-off stats: %+v", st)
	}
	if r := serve(t, c, &at, device.Request{LBN: s0, Sectors: 8}); !r.CacheHit {
		t.Fatal("exact re-read missed")
	}
}

// TestWriteThroughAllocates: write-through forwards the write to the
// device immediately and write-allocates, so read-your-writes hits.
func TestWriteThroughAllocates(t *testing.T) {
	d := newSim(t, 1)
	c := newCached(t, d, cache.WithCapacityMB(4))
	s0, _ := track(t, c, 0)
	at := 0.0
	w := serve(t, c, &at, device.Request{LBN: s0, Sectors: 32, Write: true})
	if w.CacheHit {
		t.Fatal("write-through write reported as cache hit")
	}
	if got := d.Stats().SectorsIn; got != 32 {
		t.Fatalf("device saw %d written sectors, want 32", got)
	}
	r := serve(t, c, &at, device.Request{LBN: s0, Sectors: 32})
	if !r.CacheHit {
		t.Fatal("read-your-writes missed after write-through")
	}
}

// TestWriteBackAbsorbsAndFlushes: write-back completes writes in the
// cache; the device sees them only at FlushDirty, coalesced per line.
func TestWriteBackAbsorbsAndFlushes(t *testing.T) {
	d := newSim(t, 1)
	c := newCached(t, d, cache.WithCapacityMB(4), cache.WithWriteBack(true))
	s0, _ := track(t, c, 0)
	at := 0.0

	w1 := serve(t, c, &at, device.Request{LBN: s0, Sectors: 16, Write: true})
	w2 := serve(t, c, &at, device.Request{LBN: s0 + 16, Sectors: 16, Write: true})
	if !w1.CacheHit || !w2.CacheHit {
		t.Fatalf("write-back writes not absorbed: %+v / %+v", w1, w2)
	}
	if got := d.Stats().Requests; got != 0 {
		t.Fatalf("device served %d requests before flush", got)
	}
	if r := serve(t, c, &at, device.Request{LBN: s0, Sectors: 32}); !r.CacheHit {
		t.Fatal("read-your-writes missed after write-back absorb")
	}
	if err := c.FlushDirty(at); err != nil {
		t.Fatalf("FlushDirty: %v", err)
	}
	st := c.Stats()
	if st.Absorbed != 2 || st.FlushWrites != 1 || st.FlushSectors != 32 {
		t.Fatalf("abutting writes not coalesced into one writeback: %+v", st)
	}
	if got := d.Stats().SectorsIn; got != 32 {
		t.Fatalf("device saw %d written sectors after flush, want 32", got)
	}
	// Flushed lines stay cached clean: a second flush writes nothing.
	if err := c.FlushDirty(at); err != nil {
		t.Fatalf("FlushDirty: %v", err)
	}
	if st := c.Stats(); st.FlushWrites != 1 {
		t.Fatalf("clean flush wrote: %+v", st)
	}
}

// TestFlushDirtyAscendingOrder: FlushDirty writes dirty lines back in
// ascending line order, whatever order they were dirtied in — observed
// through a trace recorder between cache and disk.
func TestFlushDirtyAscendingOrder(t *testing.T) {
	rec := trace.NewRecorder(newSim(t, 1))
	c := newCached(t, rec, cache.WithCapacityMB(4), cache.WithWriteBack(true))
	at := 0.0
	var starts []int64
	for _, ti := range []int{5, 2, 9} {
		s, _ := track(t, c, ti)
		starts = append(starts, s)
		serve(t, c, &at, device.Request{LBN: s, Sectors: 8, Write: true})
	}
	if err := c.FlushDirty(at); err != nil {
		t.Fatalf("FlushDirty: %v", err)
	}
	recs := rec.Trace().Records
	if len(recs) != 3 {
		t.Fatalf("%d device writes, want 3", len(recs))
	}
	if !(recs[0].LBN == starts[1] && recs[1].LBN == starts[0] && recs[2].LBN == starts[2]) {
		t.Fatalf("flush order %d,%d,%d not ascending", recs[0].LBN, recs[1].LBN, recs[2].LBN)
	}
}

// TestDirtyEvictionWritesBack: evicting a dirty line reaches the
// device even without an explicit flush.
func TestDirtyEvictionWritesBack(t *testing.T) {
	d := newSim(t, 1)
	b := d.TrackBoundaries()
	// Budget: exactly the first two tracks.
	c := newCached(t, d, cache.WithCapacitySectors(b[2]), cache.WithWriteBack(true))
	at := 0.0
	s0, _ := track(t, c, 0)
	serve(t, c, &at, device.Request{LBN: s0, Sectors: 8, Write: true})
	// Fill two more tracks: track 0's dirty line is the LRU victim.
	for _, ti := range []int{1, 2} {
		s, n := track(t, c, ti)
		serve(t, c, &at, device.Request{LBN: s, Sectors: n})
	}
	st := c.Stats()
	if st.Evictions == 0 || st.FlushWrites != 1 {
		t.Fatalf("dirty eviction did not write back: %+v", st)
	}
	if got := d.Stats().SectorsIn; got != 8 {
		t.Fatalf("device saw %d written sectors, want 8", got)
	}
}

// TestLRUEviction: with a two-track budget, touching a third track
// evicts the least recently used and only it.
func TestLRUEviction(t *testing.T) {
	d := newBareSim(t, 1)
	b := d.TrackBoundaries()
	c := newCached(t, d, cache.WithCapacitySectors(b[2]))
	at := 0.0
	for _, ti := range []int{0, 1, 2} {
		s, n := track(t, c, ti)
		serve(t, c, &at, device.Request{LBN: s, Sectors: n})
	}
	s1, n1 := track(t, c, 1)
	if r := serve(t, c, &at, device.Request{LBN: s1, Sectors: n1}); !r.CacheHit {
		t.Fatal("recently used track 1 was evicted")
	}
	s0, n0 := track(t, c, 0)
	if r := serve(t, c, &at, device.Request{LBN: s0, Sectors: n0}); r.CacheHit {
		t.Fatal("LRU track 0 survived over budget")
	}
}

// TestSLRUScanResistance: a re-referenced line is promoted to the
// protected segment and survives a one-pass scan that evicts it under
// plain LRU.
func TestSLRUScanResistance(t *testing.T) {
	run := func(slru bool) bool {
		d := newBareSim(t, 1)
		b := d.TrackBoundaries()
		c := newCached(t, d, cache.WithCapacitySectors(b[2]), cache.WithSegmentedLRU(slru))
		at := 0.0
		s0, n0 := track(t, c, 0)
		serve(t, c, &at, device.Request{LBN: s0, Sectors: n0})
		serve(t, c, &at, device.Request{LBN: s0, Sectors: n0}) // re-reference: hot
		for _, ti := range []int{3, 4, 5} {                    // scan
			s, n := track(t, c, ti)
			serve(t, c, &at, device.Request{LBN: s, Sectors: n})
		}
		return serve(t, c, &at, device.Request{LBN: s0, Sectors: n0}).CacheHit
	}
	if run(false) {
		t.Fatal("plain LRU unexpectedly kept the hot line through a scan")
	}
	if !run(true) {
		t.Fatal("SLRU lost the hot line to a scan")
	}
}

// TestUniformLineFallback: a device with no track boundaries gets
// fixed sector-granular lines, clipped at the capacity.
func TestUniformLineFallback(t *testing.T) {
	p, err := trace.NewPlayer(trace.Trace{Capacity: 1000, SectorSize: 512})
	if err != nil {
		t.Fatalf("NewPlayer: %v", err)
	}
	c := newCached(t, p, cache.WithCapacitySectors(512), cache.WithLineSectors(64))
	at := 0.0
	serve(t, c, &at, device.Request{LBN: 10, Sectors: 8})
	if st := c.Stats(); st.FillSectors != 64 {
		t.Fatalf("uniform fill of %d sectors, want the 64-sector line", st.FillSectors)
	}
	if r := serve(t, c, &at, device.Request{LBN: 0, Sectors: 64}); !r.CacheHit {
		t.Fatal("read of the filled uniform line missed")
	}
	// The tail line is clipped: capacity 1000 ends mid-line.
	serve(t, c, &at, device.Request{LBN: 999, Sectors: 1})
	if r := serve(t, c, &at, device.Request{LBN: 960, Sectors: 40}); !r.CacheHit {
		t.Fatal("clipped tail line not filled")
	}
	if c.CachedSectors() > 512 {
		t.Fatalf("budget exceeded: %d cached sectors", c.CachedSectors())
	}
}

// TestOverBudgetRequestsBypass: a request larger than the whole budget
// is forwarded uncached instead of churning the lines.
func TestOverBudgetRequestsBypass(t *testing.T) {
	d := newSim(t, 1)
	c := newCached(t, d, cache.WithCapacitySectors(64), cache.WithLineSectors(32))
	at := 0.0
	s0, n0 := track(t, c, 0)
	if n0 <= 64 {
		t.Skipf("first track of %d sectors does not exceed the budget", n0)
	}
	serve(t, c, &at, device.Request{LBN: s0, Sectors: n0})
	st := c.Stats()
	if st.Bypassed != 1 || st.FillReads != 0 {
		t.Fatalf("over-budget read was cached: %+v", st)
	}
	if c.CachedSectors() != 0 {
		t.Fatalf("over-budget read left %d sectors cached", c.CachedSectors())
	}
}

// TestFUABypassesCache: FUA requests reach the device untouched; a FUA
// write drops the now-stale lines.
func TestFUABypassesCache(t *testing.T) {
	d := newSim(t, 1)
	c := newCached(t, d, cache.WithCapacityMB(4))
	s0, n0 := track(t, c, 0)
	at := 0.0
	serve(t, c, &at, device.Request{LBN: s0, Sectors: n0})
	if r := serve(t, c, &at, device.Request{LBN: s0, Sectors: 8, FUA: true}); r.CacheHit {
		t.Fatal("FUA read served from the host cache")
	}
	serve(t, c, &at, device.Request{LBN: s0, Sectors: 8, Write: true, FUA: true})
	if r := serve(t, c, &at, device.Request{LBN: s0 + 16, Sectors: 8}); r.CacheHit {
		t.Fatal("line survived a FUA write")
	}
}

// TestIssueOrderEnforced mirrors the sched.Queue contract: regressive
// issue times are rejected without disturbing state.
func TestIssueOrderEnforced(t *testing.T) {
	c := newCached(t, newSim(t, 1), cache.WithCapacityMB(1))
	if _, err := c.Serve(5, device.Request{LBN: 0, Sectors: 8}); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	now := c.Now()
	if _, err := c.Serve(3, device.Request{LBN: 0, Sectors: 8}); err == nil {
		t.Fatal("regressive issue time accepted")
	}
	if c.Now() != now {
		t.Fatal("rejected request moved the clock")
	}
	if _, err := c.Serve(6, device.Request{LBN: 0, Sectors: 8}); err != nil {
		t.Fatalf("ordering rejection was sticky: %v", err)
	}
}

// TestServeDuringBatchRefused: the synchronous barrier cannot
// interleave with an outstanding Submit batch.
func TestServeDuringBatchRefused(t *testing.T) {
	q, err := sched.New(newSim(t, 1), sched.WithDepth(4), sched.WithScheduler(sched.SSTF()))
	if err != nil {
		t.Fatalf("sched.New: %v", err)
	}
	c := newCached(t, q, cache.WithCapacityMB(1))
	if _, err := c.Submit(0, device.Request{LBN: 0, Sectors: 8}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := c.Serve(1, device.Request{LBN: 64, Sectors: 8}); err == nil {
		t.Fatal("Serve accepted mid-batch")
	}
	if _, err := c.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := c.Serve(1, device.Request{LBN: 64, Sectors: 8}); err != nil {
		t.Fatalf("Serve after Drain: %v", err)
	}
}

// TestName: the name describes the stack and configuration.
func TestName(t *testing.T) {
	c := newCached(t, newSim(t, 1), cache.WithCapacitySectors(0))
	if name := c.Name(); !strings.Contains(name, "cache[off]") {
		t.Fatalf("bypass name %q", name)
	}
	c = newCached(t, newSim(t, 1), cache.WithWriteBack(true), cache.WithSegmentedLRU(true))
	name := c.Name()
	for _, want := range []string{"cache[", "slru", "wb", "ra"} {
		if !strings.Contains(name, want) {
			t.Fatalf("name %q missing %q", name, want)
		}
	}
}

// TestAccessorsAndSubmitBypass covers the inspection surface and the
// Submit path's bypass/FUA forwarding over a plain (non-lazy) device.
func TestAccessorsAndSubmitBypass(t *testing.T) {
	d := newSim(t, 1)
	c := newCached(t, d, cache.WithCapacitySectors(0))
	if c.Inner() != device.Device(d) {
		t.Fatal("Inner does not return the wrapped device")
	}
	if !c.Bypass() || c.CapacitySectors() != 0 {
		t.Fatalf("bypass identity wrong: bypass=%v cap=%d", c.Bypass(), c.CapacitySectors())
	}
	if c.Err() != nil {
		t.Fatalf("fresh cache has a sticky error: %v", c.Err())
	}
	if _, err := c.Submit(0, device.Request{LBN: 0, Sectors: 8}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := c.Submit(1, device.Request{LBN: 64, Sectors: 8, Write: true, FUA: true}); err != nil {
		t.Fatalf("Submit FUA: %v", err)
	}
	if c.Outstanding() != 2 {
		t.Fatalf("Outstanding = %d, want 2", c.Outstanding())
	}
	out, err := c.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if len(out) != 2 || out[0].Done <= 0 || !out[1].Req.FUA {
		t.Fatalf("bypass drain results %+v", out)
	}
	if st := c.Stats(); st.Bypassed != 2 || st.HitRate() != 0 {
		t.Fatalf("bypass stats %+v", st)
	}
	// FUA through a live (non-bypass) cache on the Submit path drops
	// overlapping lines.
	c2 := newCached(t, newBareSim(t, 2), cache.WithCapacityMB(1))
	s0, n0 := track(t, c2, 0)
	at := 0.0
	serve(t, c2, &at, device.Request{LBN: s0, Sectors: n0})
	if _, err := c2.Submit(at, device.Request{LBN: s0, Sectors: 8, Write: true, FUA: true}); err != nil {
		t.Fatalf("Submit FUA: %v", err)
	}
	if _, err := c2.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if r := serve(t, c2, &at, device.Request{LBN: s0, Sectors: 8}); r.CacheHit {
		t.Fatal("line survived a FUA write on the Submit path")
	}
}

// TestCacheOverCacheSubmitDrain: a cache over another cache rides the
// inner cache's own Submit/DrainEach path, and the stacked batch
// resolves completely instead of stranding inner submissions.
func TestCacheOverCacheSubmitDrain(t *testing.T) {
	inner := newCached(t, newBareSim(t, 1), cache.WithCapacityMB(1))
	outer := newCached(t, inner, cache.WithCapacityMB(1), cache.WithReadahead(false))
	s0, _ := track(t, outer, 0)
	s3, _ := track(t, outer, 3)
	at := 0.0
	for i, lbn := range []int64{s0, s3, s0} {
		if _, err := outer.Submit(at+float64(i), device.Request{LBN: lbn, Sectors: 8}); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	out, err := outer.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if len(out) != 3 {
		t.Fatalf("drained %d of 3", len(out))
	}
	if !out[2].CacheHit {
		t.Fatalf("re-read through the stacked cache missed: %+v", out[2])
	}
	if err := outer.Err(); err != nil {
		t.Fatalf("stacked drain left a sticky error: %v", err)
	}
}

// TestFUAReadFlushesDirtyLines: a FUA read must observe the device, so
// overlapping write-back dirty lines are written back before it
// forwards.
func TestFUAReadFlushesDirtyLines(t *testing.T) {
	d := newBareSim(t, 1)
	c := newCached(t, d, cache.WithCapacityMB(1), cache.WithWriteBack(true))
	s0, _ := track(t, c, 0)
	at := 0.0
	serve(t, c, &at, device.Request{LBN: s0, Sectors: 16, Write: true})
	if got := d.Stats().SectorsIn; got != 0 {
		t.Fatalf("absorbed write reached the device: %d sectors", got)
	}
	serve(t, c, &at, device.Request{LBN: s0 + 8, Sectors: 8, FUA: true})
	if got := d.Stats().SectorsIn; got != 16 {
		t.Fatalf("FUA read flushed %d sectors, want the dirty 16", got)
	}
	if st := c.Stats(); st.FlushWrites != 1 {
		t.Fatalf("flush stats %+v", st)
	}
	// The line stays cached (clean): the next read still hits.
	if r := serve(t, c, &at, device.Request{LBN: s0, Sectors: 16}); !r.CacheHit {
		t.Fatal("flushed line was dropped")
	}
}

// TestBudgetRestoredAfterShieldedMerge: a merge may grow the live
// request's own (shielded) line past the budget, but the next
// operation restores it before touching anything — the cache never
// stays over budget across operations.
func TestBudgetRestoredAfterShieldedMerge(t *testing.T) {
	p, err := trace.NewPlayer(trace.Trace{Capacity: 4096, SectorSize: 512})
	if err != nil {
		t.Fatalf("NewPlayer: %v", err)
	}
	c := newCached(t, p, cache.WithCapacitySectors(32), cache.WithLineSectors(64), cache.WithReadahead(false))
	at := 0.0
	serve(t, c, &at, device.Request{LBN: 0, Sectors: 30})
	// Overlapping read merges the shielded line to [0,40): 40 > 32.
	serve(t, c, &at, device.Request{LBN: 28, Sectors: 12})
	if got := c.CachedSectors(); got != 40 {
		t.Fatalf("merge held %d sectors, want the documented 40-sector overshoot", got)
	}
	// Any next operation — even a pure hit attempt — evicts first.
	serve(t, c, &at, device.Request{LBN: 0, Sectors: 8})
	if got := c.CachedSectors(); got > 32 {
		t.Fatalf("budget not restored: %d cached sectors", got)
	}
}

// TestOverBudgetReadNotAMiss: over-budget reads are bypass traffic and
// must not deflate the demand hit rate.
func TestOverBudgetReadNotAMiss(t *testing.T) {
	d := newSim(t, 1)
	c := newCached(t, d, cache.WithCapacitySectors(64), cache.WithLineSectors(32))
	s0, n0 := track(t, c, 0)
	if n0 <= 64 {
		t.Skipf("first track of %d sectors does not exceed the budget", n0)
	}
	at := 0.0
	serve(t, c, &at, device.Request{LBN: s0, Sectors: n0})
	if st := c.Stats(); st.Misses != 0 || st.Bypassed != 1 || st.HitRate() != 0 {
		t.Fatalf("over-budget read miscounted: %+v", st)
	}
}

// TestRejectedForwardNotSticky: a request the wrapped device rejects
// when the cache forwards it untouched (here a write off a zone's
// write pointer) fails alone. Submit returns the device's own error
// and keeps no slot for it, Stats read as after the same rejection
// through Serve, and the cache goes on serving: the batch it was part
// of still drains.
func TestRejectedForwardNotSticky(t *testing.T) {
	mk := func() *cache.Cache {
		f, err := zoned.NewFlash(64 * 1024)
		if err != nil {
			t.Fatalf("NewFlash: %v", err)
		}
		z, err := zoned.New(f, zoned.WithZones(16))
		if err != nil {
			t.Fatalf("zoned.New: %v", err)
		}
		return newCached(t, z, cache.WithCapacityMB(4))
	}
	bad := device.Request{LBN: 100, Sectors: 8, Write: true}
	good := device.Request{LBN: 0, Sectors: 8, Write: true}

	viaServe := mk()
	if _, err := viaServe.Serve(0, bad); !errors.Is(err, device.ErrZoneViolation) {
		t.Fatalf("Serve of an off-pointer write: %v, want a zone violation", err)
	}

	c := mk()
	if _, err := c.Submit(0, bad); !errors.Is(err, device.ErrZoneViolation) {
		t.Fatalf("Submit of an off-pointer write: %v, want a zone violation", err)
	}
	if n := c.Outstanding(); n != 0 {
		t.Fatalf("rejected request left %d outstanding", n)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("rejected forward set the sticky error: %v", err)
	}
	if got, want := c.Stats(), viaServe.Stats(); got != want {
		t.Fatalf("stats after the rejection %+v, want %+v as through Serve", got, want)
	}
	seq, err := c.Submit(1, good)
	if err != nil {
		t.Fatalf("Submit after a rejection: %v", err)
	}
	var drained []int
	if err := c.DrainEach(func(s int, r *device.Result) {
		drained = append(drained, s)
		if r.Req != good {
			t.Errorf("drained %+v, want %+v", r.Req, good)
		}
	}); err != nil {
		t.Fatalf("DrainEach: %v", err)
	}
	if len(drained) != 1 || drained[0] != seq {
		t.Fatalf("drained seqs %v, want [%d]", drained, seq)
	}
}
