package sim

import (
	"math"
	"math/rand"
	"testing"

	"traxtents/internal/disk/geom"
	"traxtents/internal/disk/mech"
	"traxtents/internal/stats"
)

func testDisk(t *testing.T, cfg Config, zeroLat bool) *Disk {
	t.Helper()
	g := &geom.Geometry{
		Name:       "sim-test",
		Surfaces:   2,
		Cyls:       200,
		SectorSize: 512,
		Zones:      []geom.Zone{{FirstCyl: 0, LastCyl: 199, SPT: 100, TrackSkew: 10, CylSkew: 15}},
	}
	l, err := geom.Build(g)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	m, err := mech.New(mech.Spec{
		RPM:         6000, // P = 10 ms
		HeadSwitch:  0.8,
		WriteSettle: 1.0,
		SeekSingle:  0.5,
		SeekAvg:     5.0,
		SeekFull:    10.0,
		ZeroLatency: zeroLat,
	}, g.Cyls)
	if err != nil {
		t.Fatalf("mech.New: %v", err)
	}
	return New(l, m, cfg)
}

func randomTrackReads(d *Disk, n int, seed int64, aligned bool, sectors int) []Request {
	rng := rand.New(rand.NewSource(seed))
	tracks := len(d.Lay.Tracks)
	reqs := make([]Request, 0, n)
	for len(reqs) < n {
		ti := rng.Intn(tracks - 2)
		first, count := d.Lay.TrackRange(ti)
		if count < sectors {
			continue
		}
		lbn := first
		if !aligned {
			lbn = first + int64(rng.Intn(count))
		}
		if lbn+int64(sectors) > d.Lay.NumLBNs() {
			continue
		}
		reqs = append(reqs, Request{LBN: lbn, Sectors: sectors})
	}
	return reqs
}

func TestInfiniteBusDoneEqualsMediaEnd(t *testing.T) {
	d := testDisk(t, Config{}, true)
	res, err := d.Submit(Request{LBN: 500, Sectors: 64})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if res.Done != res.MediaEnd {
		t.Fatalf("Done %g != MediaEnd %g with infinite bus", res.Done, res.MediaEnd)
	}
	if res.BusTime != 0 {
		t.Fatalf("BusTime = %g, want 0", res.BusTime)
	}
}

func TestSubmitRejectsBadRequests(t *testing.T) {
	d := testDisk(t, Config{}, true)
	if _, err := d.Submit(Request{LBN: 0, Sectors: 0}); err == nil {
		t.Fatal("expected error for zero-sector request")
	}
	if _, err := d.Submit(Request{LBN: -5, Sectors: 4}); err == nil {
		t.Fatal("expected error for negative LBN")
	}
	if _, err := d.Submit(Request{LBN: d.Lay.NumLBNs() - 1, Sectors: 4}); err == nil {
		t.Fatal("expected error for overrun")
	}
}

// TestTrackAlignedBeatsUnaligned reproduces the core claim: for
// track-sized requests, aligned access has substantially lower head time
// because it avoids rotational latency and head switches.
func TestTrackAlignedBeatsUnaligned(t *testing.T) {
	mk := func(aligned bool) float64 {
		d := testDisk(t, Config{BusMBps: 80, CmdOverhead: 0.1}, true)
		reqs := randomTrackReads(d, 500, 11, aligned, 100)
		rs, err := d.TwoReq(reqs)
		if err != nil {
			t.Fatalf("TwoReq: %v", err)
		}
		return stats.Mean(HeadTimesTwoReq(rs))
	}
	al, un := mk(true), mk(false)
	// Expected gap: ~P/2 rotational latency plus most of a head switch.
	if un-al < 0.6*d10perHalfRev() {
		t.Fatalf("aligned %g vs unaligned %g: gap too small", al, un)
	}
	if al >= un {
		t.Fatalf("aligned %g should beat unaligned %g", al, un)
	}
}

func d10perHalfRev() float64 { return 5.0 } // P/2 of the 6000 RPM test disk

// TestTwoReqHidesBusTransfer: with command queueing the head time of
// aligned track reads approaches seek + one revolution, while onereq
// pays the (in-order) bus tail.
func TestTwoReqHidesBusTransfer(t *testing.T) {
	run := func(two bool) float64 {
		d := testDisk(t, Config{BusMBps: 80, CmdOverhead: 0.1}, true)
		reqs := randomTrackReads(d, 400, 3, true, 100)
		var rs []Result
		var err error
		if two {
			rs, err = d.TwoReq(reqs)
		} else {
			rs, err = d.OneReq(reqs)
		}
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if two {
			return stats.Mean(HeadTimesTwoReq(rs))
		}
		return stats.Mean(HeadTimesOneReq(rs))
	}
	one, two := run(false), run(true)
	if two >= one {
		t.Fatalf("tworeq %g should beat onereq %g", two, one)
	}
	// tworeq aligned should be close to mean seek + P + a little.
	if two > 5.0+10.0+1.0 {
		t.Fatalf("tworeq aligned head time %g too large", two)
	}
}

// TestOutOfOrderBusBeatsInOrder (Figure 7's bottom bar): out-of-order
// delivery overlaps bus and media transfer, shortening onereq responses.
func TestOutOfOrderBusBeatsInOrder(t *testing.T) {
	run := func(ooo bool) float64 {
		d := testDisk(t, Config{BusMBps: 80, CmdOverhead: 0.1, OutOfOrderBus: ooo}, true)
		reqs := randomTrackReads(d, 400, 5, true, 100)
		rs, err := d.OneReq(reqs)
		if err != nil {
			t.Fatalf("OneReq: %v", err)
		}
		return stats.Mean(HeadTimesOneReq(rs))
	}
	inOrder, outOfOrder := run(false), run(true)
	if outOfOrder >= inOrder {
		t.Fatalf("out-of-order %g should beat in-order %g", outOfOrder, inOrder)
	}
}

func TestCacheHitSkipsMedia(t *testing.T) {
	d := testDisk(t, Config{BusMBps: 80, CacheSegments: 4, CacheSegSectors: 200}, true)
	r1, err := d.Submit(Request{LBN: 1000, Sectors: 50})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if r1.CacheHit {
		t.Fatal("first read should miss")
	}
	r2, err := d.Submit(Request{LBN: 1010, Sectors: 20}) // inside cached range
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if !r2.CacheHit {
		t.Fatal("second read should hit the cache")
	}
	if r2.Timing.HeadTime() != 0 {
		t.Fatalf("cache hit used the head: %+v", r2.Timing)
	}
	if got := d.Stats().CacheHits; got != 1 {
		t.Fatalf("CacheHits = %d, want 1", got)
	}
	// A write through the range invalidates it.
	if _, err := d.Submit(Request{LBN: 1010, Sectors: 4, Write: true}); err != nil {
		t.Fatalf("write: %v", err)
	}
	r3, err := d.Submit(Request{LBN: 1010, Sectors: 20})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if r3.CacheHit {
		t.Fatal("read after overlapping write must miss")
	}
}

// TestSequentialQueuedReadsStream: back-to-back sequential reads issued
// with queueing achieve near-streaming throughput (no rotational latency
// after the first request) thanks to skewed layout.
func TestSequentialQueuedReadsStream(t *testing.T) {
	d := testDisk(t, Config{BusMBps: 800}, true)
	var reqs []Request
	for i := 0; i < 20; i++ {
		reqs = append(reqs, Request{LBN: int64(i) * 100, Sectors: 100})
	}
	rs, err := d.TwoReq(reqs)
	if err != nil {
		t.Fatalf("TwoReq: %v", err)
	}
	total := rs[len(rs)-1].Done - rs[0].Start
	stream, err := d.M.StreamTime(d.Lay, 0, 2000)
	if err != nil {
		t.Fatalf("StreamTime: %v", err)
	}
	// Within 15% of pure streaming (first-request latency amortized).
	if total > stream*1.15 {
		t.Fatalf("sequential queued total %g, streaming bound %g", total, stream)
	}
}

// TestPrefetchContinuation: after an idle gap, a sequential read is
// served partly from the firmware prefetch buffer.
func TestPrefetchContinuation(t *testing.T) {
	d := testDisk(t, Config{BusMBps: 800, CacheSegments: 4, CacheSegSectors: 400, ReadAhead: true}, true)
	r1, err := d.Submit(Request{LBN: 0, Sectors: 100})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Wait 3 ms (30 sectors worth) before the next sequential read.
	r2, err := d.Serve(r1.Done+3.0, Request{LBN: 100, Sectors: 100})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if r2.Prefetched == 0 {
		t.Fatal("expected prefetched sectors on sequential continuation")
	}
	if r2.Timing.Seek != 0 {
		t.Fatalf("continuation should not seek, got %g", r2.Timing.Seek)
	}
	// A non-sequential read invalidates the cursor.
	r3, err := d.Submit(Request{LBN: 5000, Sectors: 100})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if r3.Prefetched != 0 {
		t.Fatal("random read must not be served as continuation")
	}
}

// TestWriteGatesOnBusTransfer: a write's media phase cannot begin before
// its data is on board; with a very slow bus the response is dominated by
// the transfer.
func TestWriteGatesOnBusTransfer(t *testing.T) {
	slow := testDisk(t, Config{BusMBps: 1}, true) // 0.512 ms/sector
	res, err := slow.Submit(Request{LBN: 5000, Sectors: 100, Write: true})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	xfer := 100 * 0.512
	if res.Done < xfer {
		t.Fatalf("write done %g before bus transfer %g completes", res.Done, xfer)
	}
}

// TestWriteSettlePenalty: writes pay the settle time; aligned track
// writes on a zero-latency disk still take about one revolution plus
// settle.
func TestWriteSettlePenalty(t *testing.T) {
	d := testDisk(t, Config{}, true)
	first, count := d.Lay.TrackRange(10)
	res, err := d.Submit(Request{LBN: first, Sectors: count, Write: true})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	head := res.Timing.HeadTime()
	min := res.Timing.Seek + 1.0 + 10.0 // settle + one revolution
	if head < min-0.2 || head > min+0.2 {
		t.Fatalf("aligned write head time %g, want about %g", head, min)
	}
}

// TestNoiseDeterminism: the same seed yields identical runs; different
// seeds differ.
func TestNoiseDeterminism(t *testing.T) {
	run := func(seed int64) float64 {
		d := testDisk(t, Config{HostNoiseSD: 0.3, Seed: seed}, true)
		reqs := randomTrackReads(d, 100, 1, false, 50)
		rs, err := d.OneReq(reqs)
		if err != nil {
			t.Fatalf("OneReq: %v", err)
		}
		return stats.Mean(HeadTimesOneReq(rs))
	}
	if run(5) != run(5) {
		t.Fatal("same seed must reproduce identical timing")
	}
	if run(5) == run(6) {
		t.Fatal("different seeds should differ")
	}
}

func TestDrainChunks(t *testing.T) {
	sb := 0.01
	// Single chunk, media-limited (Per > sb): completion one bus-sector
	// after the last media sector.
	done, busy := drainChunks([]mech.AvailChunk{{Sectors: 10, At: 5, Per: 0.1}}, 0, sb)
	want := 5 + 9*0.1 + sb
	if math.Abs(done-want) > 1e-9 {
		t.Fatalf("media-limited drain = %g, want %g", done, want)
	}
	if busy <= 0 {
		t.Fatal("busy must be positive")
	}
	// Bus-limited: all data available at t=1, bus free at t=2.
	done, _ = drainChunks([]mech.AvailChunk{{Sectors: 10, At: 1, Per: 0}}, 2, sb)
	if math.Abs(done-(2+10*sb)) > 1e-9 {
		t.Fatalf("bus-limited drain = %g, want %g", done, 2+10*sb)
	}
	// Two chunks: the wrap pattern of a zero-latency track read.
	done, _ = drainChunks([]mech.AvailChunk{
		{Sectors: 5, At: 3, Per: 0.1},
		{Sectors: 5, At: 3.5, Per: 0},
	}, 0, sb)
	if math.Abs(done-(3.5+5*sb)) > 1e-9 {
		t.Fatalf("wrap drain = %g, want %g", done, 3.5+5*sb)
	}
}

func TestStatsAccounting(t *testing.T) {
	d := testDisk(t, Config{BusMBps: 80}, true)
	if _, err := d.Submit(Request{LBN: 0, Sectors: 10}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := d.Submit(Request{LBN: 100, Sectors: 20, Write: true}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	s := d.Stats()
	if s.Requests != 2 || s.SectorsOut != 10 || s.SectorsIn != 20 {
		t.Fatalf("stats = %+v", s)
	}
	if s.HeadBusy <= 0 || s.Transfer <= 0 {
		t.Fatalf("busy accounting missing: %+v", s)
	}
	d.ResetStats()
	if d.Stats().Requests != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

// randomChunkLists generates availability-chunk lists covering the
// shapes mech produces: single media-limited ramps, zero-latency wrap
// pairs (ramp + all-at-once), prefetch chunks, and multi-track chains.
func randomChunkLists(rng *rand.Rand, n int) [][]mech.AvailChunk {
	out := make([][]mech.AvailChunk, 0, n)
	for i := 0; i < n; i++ {
		nc := 1 + rng.Intn(4)
		chunks := make([]mech.AvailChunk, 0, nc)
		at := rng.Float64() * 20
		for j := 0; j < nc; j++ {
			per := 0.0
			switch rng.Intn(3) {
			case 0: // all-at-once (wrap tail, prefetched data)
			case 1: // media ramp slower than the bus
				per = 0.05 + rng.Float64()*0.2
			case 2: // ramp slower than a (slow) bus
				per = rng.Float64() * 0.02
			}
			c := mech.AvailChunk{Sectors: 1 + rng.Intn(600), At: at, Per: per}
			chunks = append(chunks, c)
			at += float64(c.Sectors)*per + rng.Float64()*2
		}
		out = append(out, chunks)
	}
	return out
}

// TestDrainChunksClosedFormDifferential pins the O(chunks) closed-form
// drain to the per-sector reference loop: completion and occupancy must
// agree to within a nanosecond of virtual time (the closed form is
// exact; the loop accumulates one float rounding per sector), and in the
// media-limited regime — a ramp starting at or after bus-free, slower
// than the bus, the common case for every figure — the two must be
// bit-identical.
func TestDrainChunksClosedFormDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const tol = 1e-6 // ms, i.e. one nanosecond of virtual time
	for _, sb := range []float64{0.0032, 0.0064, 0.01, 0.03} {
		for _, chunks := range randomChunkLists(rng, 400) {
			busFree := rng.Float64() * 25
			gd, gb := drainChunks(chunks, busFree, sb)
			wd, wb := drainChunksLoop(chunks, busFree, sb)
			if math.Abs(gd-wd) > tol || math.Abs(gb-wb) > tol {
				t.Fatalf("sb=%g busFree=%g chunks=%+v: closed (%g,%g) vs loop (%g,%g)",
					sb, busFree, chunks, gd, gb, wd, wb)
			}
		}
	}
	// Media-limited single ramp: bit-identical by construction.
	for i := 0; i < 200; i++ {
		c := mech.AvailChunk{Sectors: 1 + rng.Intn(600), At: rng.Float64() * 10, Per: 0.01 + rng.Float64()*0.1}
		sb := 0.001 + rng.Float64()*0.009 // always below Per
		busFree := c.At * rng.Float64()   // bus free before the ramp starts
		gd, gb := drainChunks([]mech.AvailChunk{c}, busFree, sb)
		wd, wb := drainChunksLoop([]mech.AvailChunk{c}, busFree, sb)
		if gd != wd || gb != wb {
			t.Fatalf("media-limited drain not bit-identical: (%g,%g) vs (%g,%g)", gd, gb, wd, wb)
		}
	}
}

// TestDrainChunksEmpty: an empty chunk list (nothing delivered over the
// bus) must report zero occupancy, not busFree-sized garbage.
func TestDrainChunksEmpty(t *testing.T) {
	for _, f := range []func([]mech.AvailChunk, float64, float64) (float64, float64){drainChunks, drainChunksLoop} {
		done, busy := f(nil, 42.5, 0.01)
		if done != 42.5 || busy != 0 {
			t.Fatalf("empty drain = (%g,%g), want (42.5,0)", done, busy)
		}
	}
}

// drainChunksLoop is the per-sector reference bus drain the closed
// form in drainChunks replaced: each sector waits for its availability
// and for the bus, one at a time.
func drainChunksLoop(chunks []mech.AvailChunk, busFree, sb float64) (done, busy float64) {
	t := busFree
	first := true
	var busStart float64
	for _, c := range chunks {
		for j := 0; j < c.Sectors; j++ {
			avail := c.At + float64(j)*c.Per
			if avail > t {
				t = avail
			}
			if first {
				busStart = t
				first = false
			}
			t += sb
		}
	}
	if first {
		return busFree, 0
	}
	return t, t - busStart
}

// TestServeDifferentialClosedVsLoopDrain runs full mixed workloads
// through a disk and, after every read that drained over the bus,
// re-drains that request's availability chunks with the per-sector
// reference loop from the bus-free time before the request. Completion
// and bus occupancy must agree within a nanosecond of virtual time.
//
// The schedule is fixed (pairs of queued requests at arithmetic issue
// times, idle gaps between pairs) rather than completion-driven, as
// the workloads of the figures are. The second request of each pair
// queues behind the first. At 40 MB/s the bus outruns the media and
// every drain is paced by availability; at 2 MB/s it is slower than
// the media, so drains also start while the bus is still busy with
// earlier data (the busFree > availability regime).
func TestServeDifferentialClosedVsLoopDrain(t *testing.T) {
	queued := 0
	for _, bus := range []float64{40, 2} {
		cfg := Config{BusMBps: bus, CmdOverhead: 0.1, CacheSegments: 4, CacheSegSectors: 400, ReadAhead: true}
		for _, zl := range []bool{false, true} {
			d := testDisk(t, cfg, zl)
			sb := d.sectorBusTime()
			rng := rand.New(rand.NewSource(31))
			drained := 0
			check := func(i int, issue float64, req Request) {
				busFree := d.busFree
				res, err := d.Serve(issue, req)
				if err != nil {
					t.Fatalf("Serve: %v", err)
				}
				if req.Write || res.CacheHit {
					return // no availability-paced drain
				}
				chunks := d.scratch.Chunks
				wd, wb := drainChunksLoop(chunks, busFree, sb)
				wd = max(wd, res.MediaEnd)
				const tol = 1e-6
				if math.Abs(res.Done-wd) > tol || math.Abs(res.BusTime-wb) > tol {
					t.Fatalf("bus=%g zl=%v req %d %+v busFree=%g chunks=%+v: closed (%g,%g) vs loop (%g,%g)",
						bus, zl, i, req, busFree, chunks, res.Done, res.BusTime, wd, wb)
				}
				drained++
				if len(chunks) > 0 && busFree > chunks[0].At {
					queued++
				}
			}
			for i := 0; i < 1000; i++ {
				issue := float64(i) * 120 // past every earlier completion: the disk starts idle
				n := 1 + rng.Intn(200)
				first := Request{
					LBN:     rng.Int63n(d.Lay.NumLBNs() - int64(n)),
					Sectors: n,
					Write:   rng.Intn(5) == 0,
					FUA:     rng.Intn(10) == 0,
				}
				check(2*i, issue, first)
				n = 1 + rng.Intn(200)
				check(2*i+1, issue, Request{LBN: rng.Int63n(d.Lay.NumLBNs() - int64(n)), Sectors: n})
			}
			if drained < 1000 {
				t.Fatalf("bus=%g zl=%v: %d drains checked, want >= 1000", bus, zl, drained)
			}
		}
	}
	if queued == 0 {
		t.Fatalf("no drain started behind a busy bus")
	}
	t.Logf("%d drains started behind a busy bus", queued)
}

// TestServePoolingBitIdentical: the pooled-scratch Serve must be
// bit-identical run to run — the pooled buffers carry no state between
// requests.
func TestServePoolingBitIdentical(t *testing.T) {
	run := func() []float64 {
		d := testDisk(t, Config{BusMBps: 40, CmdOverhead: 0.1, CacheSegments: 4, CacheSegSectors: 400, ReadAhead: true}, true)
		rng := rand.New(rand.NewSource(7))
		var out []float64
		issue := 0.0
		for i := 0; i < 1000; i++ {
			n := 1 + rng.Intn(200)
			req := Request{LBN: rng.Int63n(d.Lay.NumLBNs() - int64(n)), Sectors: n, Write: rng.Intn(5) == 0}
			r, err := d.Serve(issue, req)
			if err != nil {
				t.Fatalf("Serve: %v", err)
			}
			out = append(out, r.Done, r.Response(), r.BusTime)
			issue = r.Done
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

// TestServeZeroAllocSteadyState is the allocation guard of the hot
// path: after warm-up, Serve must not allocate for reads (aligned and
// unaligned, cached and uncached) or writes.
func TestServeZeroAllocSteadyState(t *testing.T) {
	d := testDisk(t, Config{BusMBps: 40, CmdOverhead: 0.1, CacheSegments: 4, CacheSegSectors: 400, ReadAhead: true}, true)
	reqs := randomTrackReads(d, 64, 13, false, 80)
	for i := range reqs {
		if i%3 == 0 {
			reqs[i].Write = true
		}
	}
	at := 0.0
	for _, r := range reqs { // warm the pooled buffers
		res, err := d.Serve(at, r)
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
		at = res.Done
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		r := reqs[i%len(reqs)]
		i++
		res, err := d.Serve(at, r)
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
		at = res.Done
	})
	if allocs != 0 {
		t.Fatalf("steady-state Serve allocates %.1f per op, want 0", allocs)
	}
}
