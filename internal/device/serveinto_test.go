package device_test

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"traxtents/internal/device"
	"traxtents/internal/device/faults"
	"traxtents/internal/device/ftl"
	"traxtents/internal/device/striped"
	"traxtents/internal/device/trace"
	"traxtents/internal/device/zoned"
	"traxtents/internal/disk/mech"
	"traxtents/internal/volume"
)

// newFaulty wraps a simulated disk in an injector with latent medium
// errors, transient timeouts, and (when failAt is finite) whole-disk
// loss from that time on.
func newFaulty(t testing.TB, seed int64, failAt float64) *faults.Injector {
	t.Helper()
	opts := []faults.Option{faults.WithSeed(seed), faults.WithLatentErrors(24, 512), faults.WithTimeoutProb(0.03)}
	if !math.IsInf(failAt, 1) {
		opts = append(opts, faults.WithFailAt(failAt))
	}
	in, err := faults.New(newSim(t, seed), opts...)
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	return in
}

// newFaultyParity builds a parity array whose children inject latent
// errors and timeouts, so the array retries, reconstructs, and
// repairs in place.
func newFaultyParity(t testing.TB) *striped.Array {
	t.Helper()
	children := []device.Device{newFaulty(t, 1, math.Inf(1)), newFaulty(t, 2, math.Inf(1)), newFaulty(t, 3, math.Inf(1))}
	a, err := striped.New(children, striped.WithParity())
	if err != nil {
		t.Fatalf("striped.New: %v", err)
	}
	return a
}

// newFlash builds a bare flash device of 64 Ki sectors.
func newFlash(t testing.TB) *zoned.Flash {
	t.Helper()
	f, err := zoned.NewFlash(64 * 1024)
	if err != nil {
		t.Fatalf("NewFlash: %v", err)
	}
	return f
}

// newSmallFTL builds an FTL over a 16384-sector flash of 256-sector
// erase blocks: small enough that a seeded stream's writes overrun the
// free pool and run garbage collection, fully-dead victims included.
func newSmallFTL(t testing.TB) *ftl.FTL {
	t.Helper()
	f, err := zoned.NewFlash(16*1024, zoned.WithEraseSectors(256))
	if err != nil {
		t.Fatalf("NewFlash: %v", err)
	}
	l, err := ftl.New(f)
	if err != nil {
		t.Fatalf("ftl.New: %v", err)
	}
	return l
}

// newVolumeView builds a fair-tier volume manager over two simulated
// disks and returns the device view of one tenant spanning both.
func newVolumeView(t testing.TB) *volume.View {
	t.Helper()
	m, err := volume.New([]device.Device{newSim(t, 3), newSim(t, 4)},
		volume.WithTier("fair"), volume.WithTierDepth(4))
	if err != nil {
		t.Fatalf("volume.New: %v", err)
	}
	if _, err := m.AddVolume("t0", newSim(t, 3).Capacity()); err != nil {
		t.Fatalf("AddVolume: %v", err)
	}
	v, err := m.View("t0")
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	return v
}

// poison is a Result no device produces: every field that ServeInto
// fails to overwrite shows up in the comparison.
var poison = device.Result{
	Req:   device.Request{LBN: -7, Sectors: -7, Write: true, FUA: true},
	Issue: math.NaN(), Start: math.NaN(), MediaEnd: math.NaN(), Done: math.NaN(),
	Timing: mech.Breakdown{
		Seek: math.NaN(), Settle: math.NaN(), Latency: math.NaN(),
		Transfer: math.NaN(), Switch: math.NaN(), Excursion: math.NaN(),
	},
	BusTime: math.NaN(), CacheHit: true, Prefetched: -7,
}

// TestServeIntoMatchesServe drives twin devices with one seeded stream
// — one twin through Serve, the other through device.ServeInto into a
// poisoned result — and requires identical results and identical
// errors on every request. The stream mixes reads, writes, and FUA
// with rejected requests: LBNs past the end, issue times before the
// previous one, and the injected faults of the faulty backends. On a
// zoned device every other write is aimed at its zone's write pointer,
// so writes are accepted as well as refused, and the stream must cross
// zone boundaries; the FTL's must run garbage collection, and the
// player's must miss its trace.
func TestServeIntoMatchesServe(t *testing.T) {
	cases := []struct {
		name    string
		mk      func(t *testing.T) device.Device
		faults  bool // the stream must hit injected faults
		absorbs bool // the array must retry and repair child faults
	}{
		{"sim", func(t *testing.T) device.Device { return newSim(t, 5) }, false, false},
		{"faults", func(t *testing.T) device.Device { return newFaulty(t, 5, 36000) }, true, false},
		{"striped", func(t *testing.T) device.Device { return newStriped(t) }, false, false},
		{"striped-queued", func(t *testing.T) device.Device { return newStriped(t, striped.WithQueuedChildren()) }, false, false},
		{"parity", func(t *testing.T) device.Device { return newParity(t, false) }, false, false},
		{"parity-degraded", func(t *testing.T) device.Device { return newParity(t, true) }, false, false},
		{"parity-faults", func(t *testing.T) device.Device { return newFaultyParity(t) }, false, true},
		{"flash", func(t *testing.T) device.Device { return newFlash(t) }, false, false},
		{"zoned", func(t *testing.T) device.Device { return newZonedFlash(t, 256, 0) }, false, false},
		{"ftl", func(t *testing.T) device.Device { return newSmallFTL(t) }, false, false},
		{"player", func(t *testing.T) device.Device { return newPlayer(t) }, false, false},
		{"volume-view", func(t *testing.T) device.Device { return newVolumeView(t) }, false, false},
		{"recorder", func(t *testing.T) device.Device { return trace.NewRecorder(newFaulty(t, 5, 36000)) }, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.mk(t), tc.mk(t)
			if _, ok := b.(device.InPlace); !ok {
				t.Fatalf("%T does not implement device.InPlace", b)
			}
			rng := rand.New(rand.NewSource(17))
			capacity := a.Capacity()
			zs, zonedDev := device.ZonedOf(a)
			var bounds []int64
			if zonedDev {
				bounds = zs.ZoneBoundaries()
			}
			zoneOf := func(lbn int64) int { return sort.Search(len(bounds), func(k int) bool { return bounds[k] > lbn }) - 1 }
			var invalid, regressed, injected, served, violations, crossed int
			at, last := 0.0, 0.0 // next issue time, previous one
			for i := 0; i < 1500; i++ {
				sectors := 1 + rng.Intn(256)
				req := device.Request{
					LBN:     rng.Int63n(capacity - int64(sectors)),
					Sectors: sectors,
					Write:   rng.Intn(4) == 0,
					FUA:     rng.Intn(16) == 0,
				}
				if zonedDev && req.Write && i%2 == 0 {
					zi := zoneOf(req.LBN)
					if wp := zs.WritePointer(zi); wp < bounds[zi+1] {
						req.LBN, req.Sectors = wp, int(min(int64(sectors), bounds[zi+1]-wp))
					}
				}
				issue := at
				switch {
				case i%17 == 5:
					req.LBN = capacity - int64(sectors) + 1 // past the end
				case i%23 == 7 && last > 1:
					issue = last - 1 // before the previous issue
				}
				last = issue
				want, errA := a.Serve(issue, req)
				got := poison
				errB := device.ServeInto(b, issue, req, &got)
				if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
					t.Fatalf("request %d %+v at %g: Serve error %v, ServeInto error %v", i, req, issue, errA, errB)
				}
				switch {
				case errA == nil:
					if got != want {
						t.Fatalf("request %d %+v at %g:\nServeInto %+v\nServe     %+v", i, req, issue, got, want)
					}
					served++
					if zonedDev && !req.Write && req.LBN+int64(req.Sectors) > bounds[zoneOf(req.LBN)+1] {
						crossed++
					}
					at = max(at, issue) + rng.Float64()*(want.Done-issue)
				case errors.Is(errA, device.ErrInvalidRequest):
					invalid++
				case errors.Is(errA, device.ErrMedium) || errors.Is(errA, device.ErrTimeout) || errors.Is(errA, device.ErrLost):
					injected++
					at += rng.Float64() * 5
				case errors.Is(errA, device.ErrZoneViolation):
					violations++
				default:
					regressed++
				}
			}
			if a.Now() != b.Now() {
				t.Fatalf("clocks diverged: Serve twin %g, ServeInto twin %g", a.Now(), b.Now())
			}
			if invalid == 0 || served < 500 || (tc.faults && injected < 100) {
				t.Fatalf("stream too tame: %d served, %d invalid, %d regressed, %d injected", served, invalid, regressed, injected)
			}
			if zonedDev && (violations < 100 || crossed < 100) {
				t.Fatalf("stream too tame for the zones: %d zone violations, %d multi-zone reads", violations, crossed)
			}
			switch a := a.(type) {
			case *striped.Array:
				sa, sb := a.DegradedStats(), b.(*striped.Array).DegradedStats()
				if sa != sb {
					t.Fatalf("degraded stats diverged: Serve twin %+v, ServeInto twin %+v", sa, sb)
				}
				if tc.absorbs && (sa.Retries == 0 || sa.Repairs == 0) {
					t.Fatalf("stream too tame for the array: %+v", sa)
				}
			case *ftl.FTL:
				sa, sb := a.Stats(), b.(*ftl.FTL).Stats()
				if sa != sb {
					t.Fatalf("FTL stats diverged: Serve twin %+v, ServeInto twin %+v", sa, sb)
				}
				if sa.GCRuns == 0 {
					t.Fatalf("stream too tame for the FTL: %+v", sa)
				}
			case *trace.Player:
				ma, mb := a.Misses(), b.(*trace.Player).Misses()
				if ma != mb || ma == 0 {
					t.Fatalf("player misses: Serve twin %d, ServeInto twin %d, want equal and > 0", ma, mb)
				}
			case *trace.Recorder:
				ra, rb := a.Trace().Records, b.(*trace.Recorder).Trace().Records
				if len(ra) != served || !reflect.DeepEqual(ra, rb) {
					t.Fatalf("recorded traces: Serve twin %d records, ServeInto twin %d, want %d and equal", len(ra), len(rb), served)
				}
			}
		})
	}
}

// TestServeIntoZeroAlloc: serving in place through the replay stack's
// disk composition — a parity array over passthrough fault injectors
// over simulated disks — allocates nothing per request in steady
// state, reads and read-modify-write updates alike.
func TestServeIntoZeroAlloc(t *testing.T) {
	children := make([]device.Device, 3)
	for i := range children {
		in, err := faults.New(newSim(t, int64(i+1)))
		if err != nil {
			t.Fatalf("faults.New: %v", err)
		}
		children[i] = in
	}
	a, err := striped.New(children, striped.WithParity())
	if err != nil {
		t.Fatalf("striped.New: %v", err)
	}
	bounds := a.TrackBoundaries()
	var res device.Result
	at := 0.0
	i := 0
	serve := func() {
		u := (i * 37) % (len(bounds) - 1)
		req := device.Request{LBN: bounds[u], Sectors: int(bounds[u+1] - bounds[u]), Write: i%4 == 0}
		if err := device.ServeInto(a, at, req, &res); err != nil {
			t.Fatalf("ServeInto: %v", err)
		}
		at = res.Done
		i++
	}
	for range 64 { // warm the pooled buffers
		serve()
	}
	if allocs := testing.AllocsPerRun(400, serve); allocs != 0 {
		t.Fatalf("steady-state ServeInto allocates %.2f per request, want 0", allocs)
	}
}

// TestFTLServeIntoZeroAlloc: serving in place through an FTL over
// flash allocates nothing per request in steady state, across the
// garbage-collection runs its overwrites trigger.
func TestFTLServeIntoZeroAlloc(t *testing.T) {
	f := newSmallFTL(t)
	var res device.Result
	at := 0.0
	i := 0
	serve := func() {
		req := device.Request{LBN: int64(i*37*64) % f.Capacity(), Sectors: 64, Write: i%4 != 0}
		if err := device.ServeInto(f, at, req, &res); err != nil {
			t.Fatalf("ServeInto: %v", err)
		}
		at = res.Done
		i++
	}
	for range 64 {
		serve()
	}
	gc := f.Stats().GCRuns
	if allocs := testing.AllocsPerRun(400, serve); allocs != 0 {
		t.Fatalf("steady-state FTL ServeInto allocates %.2f per request, want 0", allocs)
	}
	if f.Stats().GCRuns == gc {
		t.Fatalf("no garbage collection while measuring: %+v", f.Stats())
	}
}
