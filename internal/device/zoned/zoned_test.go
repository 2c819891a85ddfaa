package zoned_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"traxtents/internal/device"
	"traxtents/internal/device/cache"
	"traxtents/internal/device/devtest"
	"traxtents/internal/device/faults"
	"traxtents/internal/device/sched"
	"traxtents/internal/device/stack"
	"traxtents/internal/device/zoned"
)

func newFlash(t *testing.T) *zoned.Flash {
	t.Helper()
	f, err := zoned.NewFlash(64 * 1024)
	if err != nil {
		t.Fatalf("NewFlash: %v", err)
	}
	return f
}

func newZoned(t *testing.T, opts ...zoned.Option) *zoned.Device {
	t.Helper()
	z, err := zoned.New(newFlash(t), opts...)
	if err != nil {
		t.Fatalf("zoned.New: %v", err)
	}
	return z
}

// TestZoneProtocol pins the write-pointer state machine directly:
// in-order writes advance the pointer, out-of-order and cross-boundary
// writes fail typed with nothing moved, appends land on the pointer,
// resets rewind it.
func TestZoneProtocol(t *testing.T) {
	z := newZoned(t, zoned.WithZones(8))
	b := z.ZoneBoundaries()
	if len(b) != 9 {
		t.Fatalf("8 zones want 9 boundaries, got %d", len(b))
	}
	if z.Zones() != 8 {
		t.Fatalf("Zones = %d", z.Zones())
	}
	zoneLen := b[1] - b[0]

	// In-order writes advance the pointer.
	res, err := z.Serve(0, device.Request{LBN: 0, Sectors: 16, Write: true})
	if err != nil {
		t.Fatalf("in-order write: %v", err)
	}
	if wp := z.WritePointer(0); wp != 16 {
		t.Fatalf("write pointer = %d, want 16", wp)
	}
	at := res.Done

	// A gap, a rewind, and a cross-boundary write all violate.
	for _, req := range []device.Request{
		{LBN: 24, Sectors: 8, Write: true},                  // past the pointer
		{LBN: 0, Sectors: 8, Write: true},                   // behind the pointer
		{LBN: 16, Sectors: int(zoneLen), Write: true},       // crosses into zone 1
		{LBN: b[1], Sectors: int(zoneLen) + 1, Write: true}, // crosses out of zone 1
	} {
		_, err := z.Serve(at, req)
		if !errors.Is(err, device.ErrZoneViolation) {
			t.Fatalf("write %+v: err = %v, want ErrZoneViolation", req, err)
		}
		var de *device.Error
		if !errors.As(err, &de) || de.Req != req {
			t.Fatalf("write %+v: violation not typed with the request: %v", req, err)
		}
	}
	if wp := z.WritePointer(0); wp != 16 {
		t.Fatalf("violations moved the pointer to %d", wp)
	}
	if now := z.Now(); now != at {
		t.Fatalf("violations moved the clock to %g", now)
	}

	// Append lands on the pointer and reports where.
	ares, err := z.Append(at, 0, 8)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if ares.Req.LBN != 16 {
		t.Fatalf("append landed at %d, want 16", ares.Req.LBN)
	}
	if wp := z.WritePointer(0); wp != 24 {
		t.Fatalf("append left the pointer at %d, want 24", wp)
	}

	// Reset rewinds; the zone accepts from the start again.
	done, err := z.ResetZoneAt(ares.Done, 0)
	if err != nil {
		t.Fatalf("ResetZoneAt: %v", err)
	}
	if done < ares.Done {
		t.Fatalf("reset done %g before issue %g", done, ares.Done)
	}
	if wp := z.WritePointer(0); wp != 0 {
		t.Fatalf("reset left the pointer at %d", wp)
	}
	if _, err := z.Serve(done, device.Request{LBN: 0, Sectors: 8, Write: true}); err != nil {
		t.Fatalf("write after reset: %v", err)
	}

	// Filling a zone exactly closes it; appending to it violates.
	wp := z.WritePointer(0)
	if _, err := z.Serve(z.Now(), device.Request{LBN: wp, Sectors: int(b[1] - wp), Write: true}); err != nil {
		t.Fatalf("fill to zone end: %v", err)
	}
	if got := z.WritePointer(0); got != b[1] {
		t.Fatalf("full zone's pointer = %d, want %d", got, b[1])
	}
	if _, err := z.Append(z.Now(), 0, 1); !errors.Is(err, device.ErrZoneViolation) {
		t.Fatalf("append to a full zone: err = %v, want ErrZoneViolation", err)
	}

	// Bad zone indexes are invalid requests, not violations.
	if _, err := z.ResetZoneAt(z.Now(), 99); !errors.Is(err, device.ErrInvalidRequest) {
		t.Fatalf("reset of zone 99: %v", err)
	}
	if _, err := z.Append(z.Now(), -1, 8); !errors.Is(err, device.ErrInvalidRequest) {
		t.Fatalf("append to zone -1: %v", err)
	}
	if wp := z.WritePointer(99); wp != -1 {
		t.Fatalf("WritePointer(99) = %d, want -1", wp)
	}
}

// TestOpenZoneLimit: opening one more zone than the limit allows is a
// violation; closing a zone (filling it) and resetting both release
// slots.
func TestOpenZoneLimit(t *testing.T) {
	z := newZoned(t, zoned.WithZones(8), zoned.WithMaxOpenZones(2))
	b := z.ZoneBoundaries()
	at := 0.0
	for zi := 0; zi < 2; zi++ {
		res, err := z.Serve(at, device.Request{LBN: b[zi], Sectors: 8, Write: true})
		if err != nil {
			t.Fatalf("open zone %d: %v", zi, err)
		}
		at = res.Done
	}
	if open, max := z.OpenZones(); open != 2 || max != 2 {
		t.Fatalf("OpenZones = %d/%d, want 2/2", open, max)
	}
	if _, err := z.Serve(at, device.Request{LBN: b[2], Sectors: 8, Write: true}); !errors.Is(err, device.ErrZoneViolation) {
		t.Fatalf("third open: err = %v, want ErrZoneViolation", err)
	}
	// Writing into an already-open zone is fine at the limit.
	res, err := z.Serve(at, device.Request{LBN: b[0] + 8, Sectors: 8, Write: true})
	if err != nil {
		t.Fatalf("write to open zone at the limit: %v", err)
	}
	at = res.Done
	// Fill zone 1 completely: it closes, freeing a slot.
	wp := z.WritePointer(1)
	res, err = z.Serve(at, device.Request{LBN: wp, Sectors: int(b[2] - wp), Write: true})
	if err != nil {
		t.Fatalf("fill zone 1: %v", err)
	}
	at = res.Done
	if open, _ := z.OpenZones(); open != 1 {
		t.Fatalf("after closing zone 1, open = %d, want 1", open)
	}
	if _, err := z.Serve(at, device.Request{LBN: b[2], Sectors: 8, Write: true}); err != nil {
		t.Fatalf("open after a close: %v", err)
	}
	// Reset releases the slot too.
	done, err := z.ResetZoneAt(at, 0)
	if err != nil {
		t.Fatalf("reset: %v", err)
	}
	if open, _ := z.OpenZones(); open != 1 {
		t.Fatalf("after reset, open = %d, want 1", open)
	}
	// A whole-zone write opens and closes its zone in one command, so
	// it never changes the open count (it still needs a free slot to
	// start, like any other opening write).
	if _, err := z.Serve(done, device.Request{LBN: b[3], Sectors: int(b[4] - b[3]), Write: true}); err != nil {
		t.Fatalf("whole-zone write: %v", err)
	}
	if open, _ := z.OpenZones(); open != 1 {
		t.Fatalf("whole-zone write changed open to %d", open)
	}
}

// TestGiantZonePin is the differential pin the ISSUE asks for: a zoned
// device with one giant zone, driven by a zone-legal stream (sequential
// writes interleaved with random reads), is bit-identical to the
// conventional backend it wraps — result structs compared field for
// field, mirroring the PR-3 FCFS and PR-4 zero-budget-cache pins.
func TestGiantZonePin(t *testing.T) {
	bare := newFlash(t)
	z, err := zoned.New(newFlash(t), zoned.WithZones(1))
	if err != nil {
		t.Fatalf("zoned.New: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	at := 0.0
	var wp int64
	for i := 0; i < 400; i++ {
		var req device.Request
		if rng.Intn(2) == 0 && wp < z.Capacity()-64 {
			req = device.Request{LBN: wp, Sectors: 1 + rng.Intn(64), Write: true}
			wp += int64(req.Sectors)
		} else {
			n := 1 + rng.Intn(128)
			req = device.Request{LBN: rng.Int63n(z.Capacity() - int64(n)), Sectors: n}
		}
		r1, err1 := bare.Serve(at, req)
		r2, err2 := z.Serve(at, req)
		if err1 != nil || err2 != nil {
			t.Fatalf("request %d (%+v): errs %v, %v", i, req, err1, err2)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("request %d (%+v): results diverge:\nbare:  %+v\nzoned: %+v", i, req, r1, r2)
		}
		if bare.Now() != z.Now() {
			t.Fatalf("request %d: clocks diverge: %g vs %g", i, bare.Now(), z.Now())
		}
		at = r1.Done + rng.Float64()
	}
}

// TestReadSplit: a read crossing a zone boundary becomes one inner
// command per zone — same bytes moved, extra per-command cost — and
// matches serving the two halves by hand against a replica.
func TestReadSplit(t *testing.T) {
	z := newZoned(t, zoned.WithZones(8))
	replica := newFlash(t)
	b := z.ZoneBoundaries()
	req := device.Request{LBN: b[1] - 16, Sectors: 32}
	got, err := z.Serve(0, req)
	if err != nil {
		t.Fatalf("straddling read: %v", err)
	}
	p1, err := replica.Serve(0, device.Request{LBN: b[1] - 16, Sectors: 16})
	if err != nil {
		t.Fatalf("replica: %v", err)
	}
	p2, err := replica.Serve(0, device.Request{LBN: b[1], Sectors: 16})
	if err != nil {
		t.Fatalf("replica: %v", err)
	}
	if got.Req != req || got.Issue != 0 {
		t.Fatalf("merged result echoes %+v at %g", got.Req, got.Issue)
	}
	if got.Start != p1.Start || got.Done != p2.Done || got.MediaEnd != p2.MediaEnd {
		t.Fatalf("merged timing %+v, want start %g done %g", got, p1.Start, p2.Done)
	}
	if got.BusTime != p1.BusTime+p2.BusTime {
		t.Fatalf("merged bus time %g, want %g", got.BusTime, p1.BusTime+p2.BusTime)
	}
	// The split is strictly slower than the unsplit read on a fresh
	// replica — the alignment penalty the study measures.
	whole, err := newFlash(t).Serve(0, req)
	if err != nil {
		t.Fatalf("whole read: %v", err)
	}
	if got.Done <= whole.Done {
		t.Fatalf("straddling read (%g) not slower than in-zone read (%g)", got.Done, whole.Done)
	}
}

// TestZonedOfWalk: the capability walk finds the zone model under the
// standard wrapper chain (cache over queue over injector over zoned),
// and correctly fails on a non-zoned device.
func TestZonedOfWalk(t *testing.T) {
	z := newZoned(t, zoned.WithZones(4))
	inj, err := faults.New(z)
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	q, err := sched.New(inj)
	if err != nil {
		t.Fatalf("sched.New: %v", err)
	}
	c, err := cache.New(q)
	if err != nil {
		t.Fatalf("cache.New: %v", err)
	}
	zd, ok := device.ZonedOf(c)
	if !ok {
		t.Fatal("ZonedOf failed through cache->queue->injector->zoned")
	}
	if zd.(*zoned.Device) != z {
		t.Fatal("ZonedOf found a different device")
	}
	if _, ok := device.ZonedOf(newFlash(t)); ok {
		t.Fatal("ZonedOf claimed a conventional flash device is zoned")
	}
}

// TestZonedFaults (satellite): faults.Injector over a zoned device —
// a medium error mid-zone and a whole-device loss propagate typed
// through the wrapper with the write pointer and clock unchanged, and
// service resumes cleanly after Repair.
func TestZonedFaults(t *testing.T) {
	z := newZoned(t, zoned.WithZones(4))
	b := z.ZoneBoundaries()
	inj, err := faults.New(z, faults.WithBadRange(b[1]+64, 8))
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	// Fill half the first zone (away from the latent range).
	res, err := inj.Serve(0, device.Request{LBN: 0, Sectors: 128, Write: true})
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	at := res.Done
	wp := z.WritePointer(0)
	now := inj.Now()
	// The latent range fires on a mid-zone read: typed medium error,
	// nothing moved.
	_, err = inj.Serve(at, device.Request{LBN: b[1] + 60, Sectors: 16})
	if !errors.Is(err, device.ErrMedium) {
		t.Fatalf("mid-zone read: err = %v, want ErrMedium", err)
	}
	var de *device.Error
	if !errors.As(err, &de) {
		t.Fatalf("medium error not typed: %v", err)
	}
	if z.WritePointer(0) != wp || inj.Now() != now {
		t.Fatalf("medium error corrupted state: wp %d->%d, now %g->%g", wp, z.WritePointer(0), now, inj.Now())
	}
	// Whole-device loss: a zone-legal write fails ErrLost and the
	// pointer must NOT advance (the media never wrote).
	inj.FailNow()
	_, err = inj.Serve(at, device.Request{LBN: wp, Sectors: 8, Write: true})
	if !errors.Is(err, device.ErrLost) {
		t.Fatalf("write after loss: err = %v, want ErrLost", err)
	}
	if z.WritePointer(0) != wp {
		t.Fatalf("lost write advanced the pointer to %d", z.WritePointer(0))
	}
	// After repair the same write succeeds at the same pointer.
	inj.Repair()
	if _, err := inj.Serve(at, device.Request{LBN: wp, Sectors: 8, Write: true}); err != nil {
		t.Fatalf("write after repair: %v", err)
	}
	if z.WritePointer(0) != wp+8 {
		t.Fatalf("repaired write left the pointer at %d", z.WritePointer(0))
	}
}

// TestCacheWholeZoneReadahead: the host cache keys its lines on the
// wrapped device's boundary table, which for a zoned device is the
// zone table — so a sub-zone read miss fills the whole zone and later
// reads in the zone are host hits.
func TestCacheWholeZoneReadahead(t *testing.T) {
	z := newZoned(t, zoned.WithZones(64)) // 1024-sector zones on 64k
	b := z.ZoneBoundaries()
	zoneLen := b[1] - b[0]
	c, err := cache.New(z, cache.WithCapacitySectors(8*zoneLen))
	if err != nil {
		t.Fatalf("cache.New: %v", err)
	}
	res, err := c.Serve(0, device.Request{LBN: b[2] + 100, Sectors: 8})
	if err != nil {
		t.Fatalf("miss read: %v", err)
	}
	if res.CacheHit {
		t.Fatal("first read hit an empty cache")
	}
	st := c.Stats()
	if st.FillSectors != zoneLen {
		t.Fatalf("miss filled %d sectors, want the whole %d-sector zone", st.FillSectors, zoneLen)
	}
	if st.ReadaheadSectors != zoneLen-8 {
		t.Fatalf("readahead %d sectors, want %d", st.ReadaheadSectors, zoneLen-8)
	}
	// Elsewhere in the same zone: a pure host hit.
	res, err = c.Serve(res.Done, device.Request{LBN: b[3] - 16, Sectors: 16})
	if err != nil {
		t.Fatalf("hit read: %v", err)
	}
	if !res.CacheHit {
		t.Fatal("read within the filled zone missed")
	}
}

// TestZonedScheduler: the "zoned" policy sweeps by zone and keeps each
// zone's writes in LBN (= write-pointer) order, so a deep queue over a
// zoned device drains a legal submission stream without a single zone
// violation — and never splits a request across a zone (requests are
// dispatched whole, picked by their start zone).
func TestZonedScheduler(t *testing.T) {
	z := newZoned(t, zoned.WithZones(8))
	b := z.ZoneBoundaries()
	s, err := sched.ByName("zoned", z)
	if err != nil {
		t.Fatalf(`ByName("zoned"): %v`, err)
	}
	if s.Name() != "zoned" {
		t.Fatalf("scheduler name %q", s.Name())
	}
	q, err := sched.New(z, sched.WithDepth(8), sched.WithScheduler(s))
	if err != nil {
		t.Fatalf("sched.New: %v", err)
	}
	// Interleave in-order writes to three zones with scattered reads,
	// submitted in bursts so the scheduler genuinely reorders.
	rng := rand.New(rand.NewSource(3))
	at := 0.0
	subs := 0
	var wps [3]int64
	for zi := range wps {
		wps[zi] = b[zi]
	}
	for burst := 0; burst < 30; burst++ {
		for k := 0; k < 6; k++ {
			var req device.Request
			if rng.Intn(2) == 0 {
				zi := rng.Intn(3)
				req = device.Request{LBN: wps[zi], Sectors: 8, Write: true}
				wps[zi] += 8
			} else {
				req = device.Request{LBN: rng.Int63n(z.Capacity() - 8), Sectors: 8}
			}
			if _, err := q.Submit(at, req); err != nil {
				t.Fatalf("submit: %v", err)
			}
			subs++
			at += 0.05
		}
		at += 2
	}
	comps, err := q.Drain()
	if err != nil {
		t.Fatalf("drain after %d submissions: %v", subs, err)
	}
	if len(comps) != subs {
		t.Fatalf("drained %d of %d", len(comps), subs)
	}
	if err := q.Err(); err != nil {
		t.Fatalf("queue error: %v", err)
	}
}

// TestStackOverZonedSubmitDrainVsServe: the passthrough stack over a
// zoned device serves a legal stream identically through Serve and
// through Submit/Drain, and both match the bare zoned device —
// extending the PR-4 composition pin to the zoned backend.
func TestStackOverZonedSubmitDrainVsServe(t *testing.T) {
	mk := func() *zoned.Device {
		f, err := zoned.NewFlash(64 * 1024)
		if err != nil {
			t.Fatalf("NewFlash: %v", err)
		}
		z, err := zoned.New(f, zoned.WithZones(8))
		if err != nil {
			t.Fatalf("zoned.New: %v", err)
		}
		return z
	}
	bare := mk()
	zServe := mk()
	zBatch := mk()
	stServe, err := stack.Config{}.Build(zServe)
	if err != nil {
		t.Fatalf("stack: %v", err)
	}
	stBatch, err := stack.Config{}.Build(zBatch)
	if err != nil {
		t.Fatalf("stack: %v", err)
	}
	rng := rand.New(rand.NewSource(11))
	b := bare.ZoneBoundaries()
	var wp int64 = b[0]
	at := 0.0
	var reqs []device.Request
	var ats []float64
	for i := 0; i < 200; i++ {
		if rng.Intn(2) == 0 && wp+8 <= b[1] {
			reqs = append(reqs, device.Request{LBN: wp, Sectors: 8, Write: true})
			wp += 8
		} else {
			reqs = append(reqs, device.Request{LBN: rng.Int63n(bare.Capacity() - 8), Sectors: 8})
		}
		ats = append(ats, at)
		at += rng.Float64() * 2
	}
	var fromBare, fromServe []device.Result
	for i, req := range reqs {
		r, err := bare.Serve(ats[i], req)
		if err != nil {
			t.Fatalf("bare %d: %v", i, err)
		}
		fromBare = append(fromBare, r)
		r, err = stServe.Serve(ats[i], req)
		if err != nil {
			t.Fatalf("stack serve %d: %v", i, err)
		}
		fromServe = append(fromServe, r)
		if _, err := stBatch.Submit(ats[i], req); err != nil {
			t.Fatalf("stack submit %d: %v", i, err)
		}
	}
	fromBatch, err := stBatch.Drain()
	if err != nil {
		t.Fatalf("stack drain: %v", err)
	}
	if len(fromBatch) != len(reqs) {
		t.Fatalf("drained %d of %d", len(fromBatch), len(reqs))
	}
	for i := range reqs {
		if !reflect.DeepEqual(fromBare[i], fromServe[i]) {
			t.Fatalf("request %d: bare vs stack-Serve diverge:\n%+v\n%+v", i, fromBare[i], fromServe[i])
		}
		if !reflect.DeepEqual(fromBare[i], fromBatch[i]) {
			t.Fatalf("request %d: bare vs stack-Submit/Drain diverge:\n%+v\n%+v", i, fromBare[i], fromBatch[i])
		}
	}
}

// TestZonedConformance runs the shared device contract (including the
// new zone-semantics subtest and boundary-aliasing regression) over
// the zoned wrapper bare and stack-wrapped, plus the seeded fuzz.
func TestZonedConformance(t *testing.T) {
	devtest.Run(t, "zoned-flash", func(t *testing.T) device.Device {
		return newZoned(t, zoned.WithZones(16))
	})
	devtest.Run(t, "zoned-limited", func(t *testing.T) device.Device {
		return newZoned(t, zoned.WithZones(16), zoned.WithMaxOpenZones(2))
	})
	devtest.Fuzz(t, "zoned-flash", func(t *testing.T) device.Device {
		return newZoned(t, zoned.WithZones(16))
	}, 400, 5)
	devtest.Fuzz(t, "zoned-limited", func(t *testing.T) device.Device {
		return newZoned(t, zoned.WithZones(16), zoned.WithMaxOpenZones(2))
	}, 400, 6)
}
