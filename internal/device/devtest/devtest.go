package devtest

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"traxtents/internal/device"
)

// zonePlan predicts how a zoned device must treat a valid write: which
// zone it lands in, the zone's current write pointer, and whether the
// zone protocol accepts it (exactly on the pointer, inside the zone,
// and within the open-zone limit when opening an empty zone). The
// prediction mirrors the documented device.Zoned contract, so Check
// can hold any zoned implementation to it.
func zonePlan(zd device.Zoned, req device.Request) (zone int, wp int64, legal bool) {
	b := zd.ZoneBoundaries()
	if len(b) < 2 {
		return -1, 0, true
	}
	zone = sort.Search(len(b), func(i int) bool { return b[i] > req.LBN }) - 1
	wp = zd.WritePointer(zone)
	if req.LBN != wp || req.LBN+int64(req.Sectors) > b[zone+1] {
		return zone, wp, false
	}
	if wp == b[zone] {
		if open, max := zd.OpenZones(); max > 0 && open >= max {
			return zone, wp, false
		}
	}
	return zone, wp, true
}

// Run exercises the device.Device contract against fresh instances from
// mk. The factory must return an unused device each call.
func Run(t *testing.T, name string, mk func(t *testing.T) device.Device) {
	t.Run(name+"/identity", func(t *testing.T) {
		d := mk(t)
		if d.Capacity() <= 0 {
			t.Fatalf("Capacity = %d, want > 0", d.Capacity())
		}
		if d.SectorSize() <= 0 {
			t.Fatalf("SectorSize = %d, want > 0", d.SectorSize())
		}
		if d.Now() != 0 {
			t.Fatalf("fresh device Now = %g, want 0", d.Now())
		}
	})

	t.Run(name+"/rejects-bad-requests", func(t *testing.T) {
		d := mk(t)
		bad := []device.Request{
			{LBN: 0, Sectors: 0},
			{LBN: 0, Sectors: -4},
			{LBN: -1, Sectors: 1},
			{LBN: d.Capacity(), Sectors: 1},
			{LBN: d.Capacity() - 4, Sectors: 8},
			// LBN + Sectors wraps negative: must not slip past an
			// overflow-unsafe capacity comparison.
			{LBN: math.MaxInt64 - 4, Sectors: 8},
			{LBN: math.MaxInt64, Sectors: 1},
		}
		for _, req := range bad {
			if _, err := d.Serve(0, req); err == nil {
				t.Errorf("request %+v accepted, want error", req)
			}
		}
		if d.Now() != 0 {
			t.Errorf("rejected requests advanced the clock to %g", d.Now())
		}
	})

	t.Run(name+"/serves-edges", func(t *testing.T) {
		d := mk(t)
		for _, req := range []device.Request{
			{LBN: 0, Sectors: 1},
			{LBN: d.Capacity() - 1, Sectors: 1},
		} {
			res, err := d.Serve(d.Now(), req)
			if err != nil {
				t.Fatalf("Serve(%+v): %v", req, err)
			}
			if res.Done < res.Issue || res.Start < res.Issue || res.Done < res.Start {
				t.Fatalf("Serve(%+v): incoherent times %+v", req, res)
			}
		}
	})

	t.Run(name+"/timing-and-clock", func(t *testing.T) {
		d := mk(t)
		at := 0.0
		served := 0
		for i := 0; i < 16; i++ {
			req := device.Request{LBN: int64(i) * 61 % (d.Capacity() - 8), Sectors: 8, Write: i%3 == 0}
			// Check asserts the echo, issue-time, coherence, and clock
			// invariants; on a zoned device the scattered writes after the
			// first are zone violations, which Check verifies reject
			// cleanly (clock and write pointer untouched) — at stands.
			res, ok := Check(t, d, at, req)
			if !ok {
				continue
			}
			served++
			at = res.Done // onereq
		}
		if served == 0 {
			t.Fatal("no requests served")
		}
		if at <= 0 {
			t.Fatal("no virtual time elapsed over 16 requests")
		}
	})

	t.Run(name+"/capabilities-coherent", func(t *testing.T) {
		d := mk(t)
		if bp, ok := d.(device.BoundaryProvider); ok {
			b := bp.TrackBoundaries()
			if len(b) == 0 {
				t.Skip("device declares no boundaries")
			}
			if len(b) < 2 {
				t.Fatalf("boundary list of %d entries", len(b))
			}
			if b[0] != 0 || b[len(b)-1] != d.Capacity() {
				t.Fatalf("boundaries span [%d,%d], want [0,%d]", b[0], b[len(b)-1], d.Capacity())
			}
			for i := 1; i < len(b); i++ {
				if b[i] <= b[i-1] {
					t.Fatalf("boundaries not ascending at %d: %d, %d", i, b[i-1], b[i])
				}
			}
			// Shared aliasing regression (every conformance backend runs
			// it): mutating the returned slice must not corrupt the
			// device's own boundary table.
			want := append([]int64(nil), b...)
			for i := range b {
				b[i] = -777
			}
			if got := bp.TrackBoundaries(); !slices.Equal(got, want) {
				t.Fatalf("TrackBoundaries aliases internal state: caller mutation leaked (%v, want %v)", got, want)
			}
		}
		if zd, ok := device.ZonedOf(d); ok {
			zb := zd.ZoneBoundaries()
			want := append([]int64(nil), zb...)
			for i := range zb {
				zb[i] = -777
			}
			if got := zd.ZoneBoundaries(); !slices.Equal(got, want) {
				t.Fatalf("ZoneBoundaries aliases internal state: caller mutation leaked (%v, want %v)", got, want)
			}
		}
		if r, ok := d.(device.Rotational); ok {
			if r.RotationPeriod() < 0 {
				t.Fatalf("negative rotation period %g", r.RotationPeriod())
			}
		}
	})

	t.Run(name+"/zone-semantics", func(t *testing.T) {
		d := mk(t)
		zd, ok := device.ZonedOf(d)
		if !ok {
			t.Skip("device is not zoned")
		}
		b := zd.ZoneBoundaries()
		if len(b) < 2 || b[0] != 0 || b[len(b)-1] != d.Capacity() {
			t.Fatalf("zone boundaries span [%d,%d] over %d entries, want [0,%d]",
				b[0], b[len(b)-1], len(b), d.Capacity())
		}
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				t.Fatalf("zone boundaries not ascending at %d: %d, %d", i, b[i-1], b[i])
			}
		}
		if bp, ok := d.(device.BoundaryProvider); ok {
			if tb := bp.TrackBoundaries(); tb != nil && !slices.Equal(tb, b) {
				t.Fatalf("TrackBoundaries %v disagree with ZoneBoundaries %v", tb, b)
			}
		}
		zoneLen := int(b[1] - b[0])
		half := zoneLen / 2
		if half < 1 {
			half = 1
		}
		// In-order write from the zone start: accepted; Check verifies
		// the pointer advances by exactly the sector count.
		res, wok := Check(t, d, 0, device.Request{LBN: 0, Sectors: half, Write: true})
		if !wok {
			t.Fatalf("in-order write of %d sectors at the zone start rejected", half)
		}
		at := res.Done
		// Past the pointer, behind the pointer: both violations — Check
		// verifies the typed reject with clock and pointer untouched.
		if _, wok = Check(t, d, at, device.Request{LBN: int64(half) + 1, Sectors: 1, Write: true}); wok {
			t.Fatal("write past the write pointer accepted")
		}
		if _, wok = Check(t, d, at, device.Request{LBN: 0, Sectors: 1, Write: true}); wok {
			t.Fatal("rewrite at the zone start accepted without a reset")
		}
		// Reads are unrestricted: beyond the pointer, and across a zone
		// boundary (split transparently by the device).
		if _, rok := Check(t, d, at, device.Request{LBN: 0, Sectors: zoneLen}); !rok {
			t.Fatal("read beyond the write pointer rejected")
		}
		if len(b) > 2 {
			straddle := device.Request{LBN: b[1] - 1, Sectors: 2}
			if _, rok := Check(t, d, d.Now(), straddle); !rok {
				t.Fatal("zone-straddling read rejected")
			}
		}
		// Reset: the pointer returns to the zone start, the reset is
		// timed, and the zone accepts writes from the start again.
		now := d.Now()
		done, err := zd.ResetZoneAt(now, 0)
		if err != nil {
			t.Fatalf("ResetZoneAt: %v", err)
		}
		if done < now {
			t.Fatalf("reset completed at %g, before its issue at %g", done, now)
		}
		if got := zd.WritePointer(0); got != b[0] {
			t.Fatalf("reset left zone 0's write pointer at %d, want %d", got, b[0])
		}
		if _, wok = Check(t, d, done, device.Request{LBN: 0, Sectors: 1, Write: true}); !wok {
			t.Fatal("write at the zone start rejected after a reset")
		}
	})
}

// Check serves one (possibly invalid) request and asserts the
// cross-backend invariants every Device must hold:
//
//   - acceptance agrees exactly with device.CheckRequest — except on a
//     zoned device (device.ZonedOf), where a valid write off the zone
//     protocol must instead fail typed with device.ErrZoneViolation,
//     leaving both the clock and the zone's write pointer untouched;
//   - a rejected request leaves the clock untouched;
//   - an accepted request echoes itself, is issued when asked, and its
//     times are coherent (Issue ≤ Start ≤ MediaEnd ≤ Done);
//   - an accepted write on a zoned device advances its zone's write
//     pointer by exactly the sector count (monotonic per zone);
//   - Now() never goes backwards and is never behind a completion.
//
// It returns the result and whether the request was accepted. It is the
// shared body of the seeded Fuzz suite and the native go-fuzz targets.
func Check(t testing.TB, d device.Device, at float64, req device.Request) (device.Result, bool) {
	t.Helper()
	prevNow := d.Now()
	valid := device.CheckRequest(d, req) == nil
	zone, wpBefore := -1, int64(0)
	zoneOK := true
	zd, zoned := device.ZonedOf(d)
	if zoned && valid && req.Write {
		zone, wpBefore, zoneOK = zonePlan(zd, req)
	}
	res, err := d.Serve(at, req)
	if valid && !zoneOK {
		if err == nil {
			t.Fatalf("Serve(%g, %+v) accepted a zone-violating write (zone %d, wp %d)", at, req, zone, wpBefore)
		}
		if !errors.Is(err, device.ErrZoneViolation) {
			t.Fatalf("Serve(%g, %+v): zone-violating write failed with %v, want ErrZoneViolation", at, req, err)
		}
		var de *device.Error
		if !errors.As(err, &de) {
			t.Fatalf("Serve(%g, %+v): zone violation is not a typed *device.Error: %v", at, req, err)
		}
		if d.Now() != prevNow {
			t.Fatalf("zone-violating write %+v moved the clock %g -> %g", req, prevNow, d.Now())
		}
		if got := zd.WritePointer(zone); got != wpBefore {
			t.Fatalf("zone-violating write %+v moved zone %d's write pointer %d -> %d", req, zone, wpBefore, got)
		}
		return res, false
	}
	if valid && err != nil {
		t.Fatalf("Serve(%g, %+v) = %v, but CheckRequest accepts it", at, req, err)
	}
	if !valid && err == nil {
		t.Fatalf("Serve(%g, %+v) accepted, but CheckRequest rejects it", at, req)
	}
	if err != nil {
		if d.Now() != prevNow {
			t.Fatalf("rejected request %+v moved the clock %g -> %g", req, prevNow, d.Now())
		}
		return res, false
	}
	if res.Req != req {
		t.Fatalf("Serve(%g, %+v) echoes %+v", at, req, res.Req)
	}
	if res.Issue != at {
		t.Fatalf("Serve(%g, %+v): Issue = %g", at, req, res.Issue)
	}
	if res.Start < res.Issue || res.MediaEnd < res.Start || res.Done < res.MediaEnd {
		t.Fatalf("Serve(%g, %+v): incoherent times %+v", at, req, res)
	}
	if d.Now() < prevNow {
		t.Fatalf("Serve(%g, %+v): Now went backwards (%g -> %g)", at, req, prevNow, d.Now())
	}
	if d.Now() < res.Done {
		t.Fatalf("Serve(%g, %+v): Now %g behind completion %g", at, req, d.Now(), res.Done)
	}
	if zone >= 0 {
		if got, want := zd.WritePointer(zone), wpBefore+int64(req.Sectors); got != want {
			t.Fatalf("accepted write %+v: zone %d write pointer %d -> %d, want %d", req, zone, wpBefore, got, want)
		}
	}
	return res, true
}

// CheckFaulty is Check's variant for devices with injected faults
// (the faults package, or any wrapper that can fail a valid request).
// A valid request may now fail — but only with a typed device fault:
// the error must satisfy device.IsFault, carry a *device.Error
// identifying a request, and leave the clock untouched (no partial
// state a failed command could have left behind). On a zoned device a
// write off the zone protocol may fail with either an injected fault
// (the injector's gates run first) or device.ErrZoneViolation, and any
// failed write must leave the zone's write pointer untouched. Invalid
// requests and successes must uphold exactly the Check invariants. It
// returns the result and the Serve error (nil on success).
func CheckFaulty(t testing.TB, d device.Device, at float64, req device.Request) (device.Result, error) {
	t.Helper()
	prevNow := d.Now()
	valid := device.CheckRequest(d, req) == nil
	zone, wpBefore := -1, int64(0)
	zoneOK := true
	zd, zoned := device.ZonedOf(d)
	if zoned && valid && req.Write {
		zone, wpBefore, zoneOK = zonePlan(zd, req)
	}
	res, err := d.Serve(at, req)
	if !valid {
		if err == nil {
			t.Fatalf("Serve(%g, %+v) accepted, but CheckRequest rejects it", at, req)
		}
		if d.Now() != prevNow {
			t.Fatalf("rejected request %+v moved the clock %g -> %g", req, prevNow, d.Now())
		}
		return res, err
	}
	if !zoneOK && err == nil {
		t.Fatalf("Serve(%g, %+v) accepted a zone-violating write (zone %d, wp %d)", at, req, zone, wpBefore)
	}
	if err != nil {
		if !device.IsFault(err) && !(!zoneOK && errors.Is(err, device.ErrZoneViolation)) {
			t.Fatalf("Serve(%g, %+v) failed with a non-fault error: %v", at, req, err)
		}
		var de *device.Error
		if !errors.As(err, &de) {
			t.Fatalf("Serve(%g, %+v) fault is not a typed *device.Error: %v", at, req, err)
		}
		if de.Req.Sectors <= 0 {
			t.Fatalf("Serve(%g, %+v) fault identifies no request: %v", at, req, err)
		}
		if d.Now() != prevNow {
			t.Fatalf("failed request %+v moved the clock %g -> %g: %v", req, prevNow, d.Now(), err)
		}
		if zone >= 0 {
			if got := zd.WritePointer(zone); got != wpBefore {
				t.Fatalf("failed write %+v moved zone %d's write pointer %d -> %d", req, zone, wpBefore, got)
			}
		}
		return res, err
	}
	if res.Req != req {
		t.Fatalf("Serve(%g, %+v) echoes %+v", at, req, res.Req)
	}
	if res.Issue != at {
		t.Fatalf("Serve(%g, %+v): Issue = %g", at, req, res.Issue)
	}
	if res.Start < res.Issue || res.MediaEnd < res.Start || res.Done < res.MediaEnd {
		t.Fatalf("Serve(%g, %+v): incoherent times %+v", at, req, res)
	}
	if d.Now() < prevNow {
		t.Fatalf("Serve(%g, %+v): Now went backwards (%g -> %g)", at, req, prevNow, d.Now())
	}
	if d.Now() < res.Done {
		t.Fatalf("Serve(%g, %+v): Now %g behind completion %g", at, req, d.Now(), res.Done)
	}
	if zone >= 0 {
		if got, want := zd.WritePointer(zone), wpBefore+int64(req.Sectors); got != want {
			t.Fatalf("accepted write %+v: zone %d write pointer %d -> %d, want %d", req, zone, wpBefore, got, want)
		}
	}
	return res, nil
}

// FuzzFaulty is the seeded property suite under injected faults: it
// drives the same randomized request stream at two devices built by
// identical calls to mk — which must configure identical fault
// injection — asserting the CheckFaulty invariants on every call and
// that both replicas produce the identical outcome sequence (same
// accept/fault decision, same fault class, same completion times):
// deterministic replay of the same seed.
func FuzzFaulty(t *testing.T, name string, mk func(t *testing.T) device.Device, n int, seed int64) {
	t.Run(name+"/fuzz-faults", func(t *testing.T) {
		d1, d2 := mk(t), mk(t)
		capacity := d1.Capacity()
		rng := rand.New(rand.NewSource(seed))
		at := 0.0
		faulted, accepted := 0, 0
		for i := 0; i < n; i++ {
			req := FuzzRequest(capacity, rng.Int63(), int(rng.Int31()), uint8(rng.Intn(8)), rng.Intn(4) == 0, rng.Intn(16) == 0)
			r1, err1 := CheckFaulty(t, d1, at, req)
			r2, err2 := CheckFaulty(t, d2, at, req)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("request %d (%+v): replica outcomes diverge: %v vs %v", i, req, err1, err2)
			}
			if err1 != nil {
				if err1.Error() != err2.Error() {
					t.Fatalf("request %d (%+v): replica faults diverge: %q vs %q", i, req, err1, err2)
				}
				if device.IsFault(err1) {
					faulted++
				}
				continue // clock untouched: at stands
			}
			if r1.Done != r2.Done || r1.Start != r2.Start || r1.MediaEnd != r2.MediaEnd {
				t.Fatalf("request %d (%+v): replica timings diverge: %+v vs %+v", i, req, r1, r2)
			}
			accepted++
			switch rng.Intn(3) {
			case 0:
				at = r1.Done
			case 1:
				at += rng.Float64() * (r1.Done - at)
			case 2:
				at = r1.Done + rng.Float64()*5
			}
		}
		if accepted == 0 {
			t.Fatalf("fuzz stream of %d requests accepted none", n)
		}
		if faulted == 0 {
			t.Fatalf("fuzz stream of %d requests saw no injected faults — configure the injector", n)
		}
	})
}

// FuzzRequest derives a request from raw fuzz inputs, steering roughly
// half the space at the validity boundaries of a device with the given
// capacity: exact fits, one-past overruns, negative fields, and
// LBN+Sectors int64 overflows. The mapping is pure, so both the seeded
// suite and the native fuzz targets share one request distribution.
func FuzzRequest(capacity, lbn int64, sectors int, shape uint8, write, fua bool) device.Request {
	req := device.Request{LBN: lbn, Sectors: sectors, Write: write, FUA: fua}
	mod := func(v int64, n int64) int64 { // non-negative remainder
		v %= n
		if v < 0 {
			v += n
		}
		return v
	}
	switch shape % 8 {
	case 0: // raw: whatever the fuzzer invented
	case 1: // valid: in-bounds request
		req.Sectors = int(mod(int64(sectors), 2048)) + 1
		if int64(req.Sectors) > capacity {
			req.Sectors = 1
		}
		req.LBN = mod(lbn, capacity-int64(req.Sectors)+1)
	case 2: // exact tail fit (valid)
		req.Sectors = int(mod(int64(sectors), 64)) + 1
		req.LBN = capacity - int64(req.Sectors)
	case 3: // one past the end
		req.Sectors = int(mod(int64(sectors), 64)) + 1
		req.LBN = capacity - int64(req.Sectors) + 1
	case 4: // zero or negative sectors
		req.Sectors = -int(mod(int64(sectors), 4))
	case 5: // negative LBN
		req.LBN = -1 - mod(lbn, 1<<20)
	case 6: // LBN at or past capacity
		req.LBN = capacity + mod(lbn, 1<<20)
	case 7: // int64 overflow: LBN + Sectors wraps negative
		req.LBN = math.MaxInt64 - mod(lbn, 16)
		req.Sectors = int(mod(int64(sectors), 1<<20)) + 1
	}
	return req
}

// Fuzz is the seeded property suite: it hurls n randomized requests —
// valid ones interleaved with every boundary-invalid shape FuzzRequest
// knows — at a fresh device and checks the Check invariants on each.
// The stream is deterministic for a fixed seed.
func Fuzz(t *testing.T, name string, mk func(t *testing.T) device.Device, n int, seed int64) {
	fuzz(t, name, mk, n, seed, 0)
}

// FuzzCached is the seeded property suite for write-allocating cached
// devices: the same stream and Check invariants as Fuzz, plus
// read-your-writes — after every accepted ordinary write of at most
// allocCap sectors (the cache's budget; larger writes may legitimately
// bypass allocation), the written range is immediately re-read and
// must be served from a cache (Result.CacheHit).
func FuzzCached(t *testing.T, name string, mk func(t *testing.T) device.Device, n int, seed int64, allocCap int) {
	if allocCap <= 0 {
		t.Fatalf("FuzzCached needs a positive allocation bound, got %d", allocCap)
	}
	fuzz(t, name, mk, n, seed, allocCap)
}

func fuzz(t *testing.T, name string, mk func(t *testing.T) device.Device, n int, seed int64, allocCap int) {
	t.Run(name+"/fuzz", func(t *testing.T) {
		d := mk(t)
		capacity := d.Capacity()
		rng := rand.New(rand.NewSource(seed))
		at := 0.0
		accepted, readBacks := 0, 0
		for i := 0; i < n; i++ {
			req := FuzzRequest(capacity, rng.Int63(), int(rng.Int31()), uint8(rng.Intn(8)), rng.Intn(4) == 0, rng.Intn(16) == 0)
			res, ok := Check(t, d, at, req)
			if ok {
				accepted++
				if allocCap > 0 && req.Write && !req.FUA && req.Sectors <= allocCap {
					// Read-your-writes: the just-written range must be
					// resident in the cache, whichever write mode.
					rb, rbOK := Check(t, d, res.Done, device.Request{LBN: req.LBN, Sectors: req.Sectors})
					if !rbOK {
						t.Fatalf("read-back of accepted write %+v rejected", req)
					}
					if !rb.CacheHit {
						t.Fatalf("read-your-writes miss: write %+v, read-back %+v", req, rb)
					}
					readBacks++
					// The read-back advanced the device's issue clock:
					// rebase the walk so times stay non-decreasing.
					at, res = res.Done, rb
				}
				// Walk issue time forward deterministically: sometimes
				// ride the completion, sometimes lag behind it (queued),
				// sometimes idle past it.
				switch rng.Intn(3) {
				case 0:
					at = res.Done
				case 1:
					at += rng.Float64() * (res.Done - at) // still queued
				case 2:
					at = res.Done + rng.Float64()*5 // idle gap
				}
			}
		}
		if accepted == 0 {
			t.Fatalf("fuzz stream of %d requests accepted none", n)
		}
		if allocCap > 0 && readBacks == 0 {
			t.Fatalf("fuzz stream of %d requests exercised no read-your-writes", n)
		}
		if now := d.Now(); now <= 0 {
			t.Fatalf("accepted %d requests but Now = %g", accepted, now)
		}
	})
}

// WriteResult writes one line naming every field of a Result that
// callers read — the request, the five timestamps, the six-phase
// media breakdown, the bus time, and the hit and prefetch flags — for
// digest-pinning tests. Floats print in their shortest exact form, so
// any one-ulp move changes the line. The list is explicit rather than
// %+v so that a pin survives layout changes that add or drop fields no
// caller reads.
func WriteResult(w io.Writer, r device.Result) {
	tm := &r.Timing
	fmt.Fprintf(w, "%+v %v %v %v %v %v %v %v %v %v %v %v %v %v\n",
		r.Req, r.Issue, r.Start, r.MediaEnd, r.Done,
		tm.Seek, tm.Settle, tm.Latency, tm.Transfer, tm.Switch, tm.Excursion,
		r.BusTime, r.CacheHit, r.Prefetched)
}
