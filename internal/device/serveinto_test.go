package device_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"traxtents/internal/device"
	"traxtents/internal/device/faults"
	"traxtents/internal/device/striped"
	"traxtents/internal/disk/mech"
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
// previous one, and the injected faults of the faulty backends.
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.mk(t), tc.mk(t)
			if _, ok := b.(device.InPlace); !ok {
				t.Fatalf("%T does not implement device.InPlace", b)
			}
			rng := rand.New(rand.NewSource(17))
			capacity := a.Capacity()
			var invalid, regressed, injected, served int
			at, last := 0.0, 0.0 // next issue time, previous one
			for i := 0; i < 1500; i++ {
				sectors := 1 + rng.Intn(256)
				req := device.Request{
					LBN:     rng.Int63n(capacity - int64(sectors)),
					Sectors: sectors,
					Write:   rng.Intn(4) == 0,
					FUA:     rng.Intn(16) == 0,
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
					at = max(at, issue) + rng.Float64()*(want.Done-issue)
				case errors.Is(errA, device.ErrInvalidRequest):
					invalid++
				case errors.Is(errA, device.ErrMedium) || errors.Is(errA, device.ErrTimeout) || errors.Is(errA, device.ErrLost):
					injected++
					at += rng.Float64() * 5
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
			if arr, ok := a.(*striped.Array); ok {
				sa, sb := arr.DegradedStats(), b.(*striped.Array).DegradedStats()
				if sa != sb {
					t.Fatalf("degraded stats diverged: Serve twin %+v, ServeInto twin %+v", sa, sb)
				}
				if tc.absorbs && (sa.Retries == 0 || sa.Repairs == 0) {
					t.Fatalf("stream too tame for the array: %+v", sa)
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
