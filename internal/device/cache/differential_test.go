package cache_test

import (
	"math/rand"
	"reflect"
	"testing"

	"traxtents/internal/device"
	"traxtents/internal/device/cache"
	"traxtents/internal/device/sched"
	"traxtents/internal/device/striped"
	"traxtents/internal/workload/driver"
)

// stream serves n seeded random requests and returns every result.
func stream(t *testing.T, d device.Device, n int, seed int64) []device.Result {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	capacity := d.Capacity()
	at := 0.0
	out := make([]device.Result, 0, n)
	for i := 0; i < n; i++ {
		sectors := 1 + rng.Intn(256)
		req := device.Request{
			LBN:     rng.Int63n(capacity - int64(sectors) + 1),
			Sectors: sectors,
			Write:   rng.Intn(4) == 0,
			FUA:     rng.Intn(16) == 0,
		}
		res, err := d.Serve(at, req)
		if err != nil {
			t.Fatalf("Serve %d (%+v): %v", i, req, err)
		}
		out = append(out, res)
		switch rng.Intn(3) {
		case 0:
			at = res.Done
		case 1:
			at += rng.Float64() * (res.Done - at)
		case 2:
			at = res.Done + rng.Float64()*5
		}
	}
	return out
}

// TestBypassBitIdenticalToBareDevice is the PR pin, mirroring the PR-3
// FCFS-passthrough pin: a cache with a zero budget (readahead
// irrelevant: nothing can be cached) is a transparent bypass, so every
// result of a seeded request stream is bit-identical to the bare
// device's.
func TestBypassBitIdenticalToBareDevice(t *testing.T) {
	const n, seed = 400, 17
	bare := stream(t, newSim(t, 3), n, seed)
	wrapped := stream(t, newCached(t, newSim(t, 3), cache.WithCapacitySectors(0), cache.WithReadahead(false)), n, seed)
	for i := range bare {
		if !reflect.DeepEqual(bare[i], wrapped[i]) {
			t.Fatalf("result %d diverged:\nbare:    %+v\nbypass:  %+v", i, bare[i], wrapped[i])
		}
	}
}

// TestBypassBitIdenticalUnderDriver runs the seeded open/closed driver
// workloads of the PR-3 studies over a scheduling queue, with and
// without a bypass cache between the queue and the disk, and requires
// bit-identical metrics.
func TestBypassBitIdenticalUnderDriver(t *testing.T) {
	loads := []driver.Load{
		{Arrival: driver.Open, RatePerSec: 80},
		{Arrival: driver.Closed, Clients: 6, ThinkMs: 2},
	}
	for _, aligned := range []bool{false, true} {
		for _, ld := range loads {
			run := func(bypass bool) driver.Metrics {
				var dev device.Device = newSim(t, 9)
				if bypass {
					dev = newCached(t, dev, cache.WithCapacitySectors(0), cache.WithReadahead(false))
				}
				q, err := sched.New(dev, sched.WithDepth(8), sched.WithScheduler(sched.CLOOK()))
				if err != nil {
					t.Fatalf("sched.New: %v", err)
				}
				m, err := driver.Run(q, driver.Workload{Requests: 250, IOSectors: 96, Aligned: aligned, WriteEvery: 5, Seed: 23}, ld)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				return m
			}
			if bare, bypassed := run(false), run(true); !reflect.DeepEqual(bare, bypassed) {
				t.Fatalf("%v/aligned=%v diverged:\nbare:   %+v\nbypass: %+v", ld.Arrival, aligned, bare, bypassed)
			}
		}
	}
}

// TestSubmitDrainMatchesServe: on a passthrough-queued (FCFS) inner
// device, the cache's lazy Submit/Drain path is bit-identical to its
// synchronous Serve path — the same pin the striped array holds for
// its concurrent path.
func TestSubmitDrainMatchesServe(t *testing.T) {
	mkReqs := func(d device.Device) ([]float64, []device.Request) {
		rng := rand.New(rand.NewSource(5))
		b := d.(device.BoundaryProvider).TrackBoundaries()
		var ats []float64
		var reqs []device.Request
		at := 0.0
		for i := 0; i < 200; i++ {
			ti := rng.Intn(16)
			s, n := b[ti], int(b[ti+1]-b[ti])
			off := rng.Intn(n-8) &^ 7
			reqs = append(reqs, device.Request{LBN: s + int64(off), Sectors: 8, Write: rng.Intn(5) == 0})
			ats = append(ats, at)
			at += rng.Float64() * 3
		}
		return ats, reqs
	}

	sync := func() []device.Result {
		c := newCached(t, newBareSim(t, 2), cache.WithCapacityMB(1), cache.WithWriteBack(true))
		ats, reqs := mkReqs(c)
		out := make([]device.Result, len(reqs))
		for i := range reqs {
			res, err := c.Serve(ats[i], reqs[i])
			if err != nil {
				t.Fatalf("Serve %d: %v", i, err)
			}
			out[i] = res
		}
		return out
	}
	lazy := func() []device.Result {
		q, err := sched.New(newBareSim(t, 2)) // depth 1, FCFS: passthrough
		if err != nil {
			t.Fatalf("sched.New: %v", err)
		}
		c := newCached(t, q, cache.WithCapacityMB(1), cache.WithWriteBack(true))
		ats, reqs := mkReqs(c)
		for i := range reqs {
			if _, err := c.Submit(ats[i], reqs[i]); err != nil {
				t.Fatalf("Submit %d: %v", i, err)
			}
		}
		out, err := c.Drain()
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
		return out
	}
	a, b := sync(), lazy()
	if len(a) != len(b) {
		t.Fatalf("%d sync vs %d lazy results", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("result %d diverged:\nsync: %+v\nlazy: %+v", i, a[i], b[i])
		}
	}
}

// TestSubmitDrainOverStriped: the cache composes over a striped
// array's own Submit/Drain path; on plain (unqueued) children that
// path is pinned bit-identical to the synchronous one, so the cached
// results must match too.
func TestSubmitDrainOverStriped(t *testing.T) {
	mkArray := func() *striped.Array {
		children := []device.Device{newBareSim(t, 1), newBareSim(t, 2), newBareSim(t, 3)}
		a, err := striped.New(children)
		if err != nil {
			t.Fatalf("striped.New: %v", err)
		}
		return a
	}
	mkReqs := func(d device.Device) []device.Request {
		rng := rand.New(rand.NewSource(11))
		b := d.(device.BoundaryProvider).TrackBoundaries()
		var reqs []device.Request
		for i := 0; i < 120; i++ {
			u := rng.Intn(24)
			reqs = append(reqs, device.Request{LBN: b[u], Sectors: int(b[u+1] - b[u])})
		}
		return reqs
	}
	sync := func() []device.Result {
		c := newCached(t, mkArray(), cache.WithCapacityMB(1))
		out := make([]device.Result, 0, 120)
		at := 0.0
		for _, req := range mkReqs(c) {
			res, err := c.Serve(at, req)
			if err != nil {
				t.Fatalf("Serve: %v", err)
			}
			out = append(out, res)
			at += 1.5
		}
		return out
	}
	lazy := func() []device.Result {
		c := newCached(t, mkArray(), cache.WithCapacityMB(1))
		at := 0.0
		for _, req := range mkReqs(c) {
			if _, err := c.Submit(at, req); err != nil {
				t.Fatalf("Submit: %v", err)
			}
			at += 1.5
		}
		out, err := c.Drain()
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
		return out
	}
	a, b := sync(), lazy()
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("result %d diverged:\nsync: %+v\nlazy: %+v", i, a[i], b[i])
		}
	}
}
