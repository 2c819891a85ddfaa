package cache_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"traxtents/internal/device"
	"traxtents/internal/device/cache"
	"traxtents/internal/device/devtest"
	"traxtents/internal/device/sched"
	"traxtents/internal/device/striped"
)

// servePin is one pinned composition: a cache (write-through or
// write-back) over an inner device, driven through Serve by the seeded
// stream of pinDigest.
type servePin struct {
	name      string
	writeBack bool
	inner     func(t *testing.T) device.Device
	digest    string
}

// pinChildren builds three firmware-cacheless disks for an array.
func pinChildren(t *testing.T) []device.Device {
	return []device.Device{newBareSim(t, 1), newBareSim(t, 2), newBareSim(t, 3)}
}

func pinArray(t *testing.T, opts ...striped.Option) device.Device {
	a, err := striped.New(pinChildren(t), opts...)
	if err != nil {
		t.Fatalf("striped.New: %v", err)
	}
	return a
}

func pinQueue(t *testing.T, depth int, s sched.Scheduler) device.Device {
	q, err := sched.New(newSim(t, 4), sched.WithDepth(depth), sched.WithScheduler(s))
	if err != nil {
		t.Fatalf("sched.New: %v", err)
	}
	return q
}

// pinDigest serves n seeded requests through c and hashes every Result
// (devtest.WriteResult's field list) followed by the final Stats.
// Floats print in their shortest exact form, so any one-ulp move
// changes the digest. Nine in ten requests land in a hot region twice
// the cache budget, so the stream hits, misses, fills, evicts, and
// (write-back) flushes dirty victims; one in sixteen is FUA.
func pinDigest(t *testing.T, c *cache.Cache, n int, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	capacity := c.Capacity()
	h := fnv.New64a()
	at := 0.0
	for i := 0; i < n; i++ {
		sectors := 1 + rng.Intn(192)
		span := capacity
		if rng.Intn(10) != 0 {
			span = 4000
		}
		req := device.Request{
			LBN:     rng.Int63n(span - int64(sectors)),
			Sectors: sectors,
			Write:   rng.Intn(3) == 0,
			FUA:     rng.Intn(16) == 0,
		}
		res, err := c.Serve(at, req)
		if err != nil {
			t.Fatalf("Serve %d (%+v): %v", i, req, err)
		}
		devtest.WriteResult(h, res)
		switch rng.Intn(3) {
		case 0:
			at = res.Done
		case 1:
			at += rng.Float64() * (res.Done - at)
		case 2:
			at = res.Done + rng.Float64()*4
		}
	}
	fmt.Fprintf(h, "%+v\n", c.Stats())
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestServePin pins every Result and the final Stats of a seeded
// 3000-request stream through Serve, per composition. Serve is a batch
// of one, so over a reordering inner it behaves as a batch does:
//   - write-back over a reordering queue (CLOOK depth 8, SSTF depth 4):
//     an eviction's writeback and the fill that follows it are ordered
//     by the queue's scheduler;
//   - over an array with queued children: the spans of a batch's
//     requests land in each child's scheduling order, and the array
//     sums a multi-span request's BusTime in split order.
//
// The other compositions have nothing to reorder: a write-through
// request sends a queue at most one inner request, and the bare disk
// and the plain and parity arrays serve inner requests in issue order.
func TestServePin(t *testing.T) {
	clook := func(t *testing.T) device.Device { return pinQueue(t, 8, sched.CLOOK()) }
	sstf := func(t *testing.T) device.Device { return pinQueue(t, 4, sched.SSTF()) }
	pins := []servePin{
		{name: "wt/sim", inner: func(t *testing.T) device.Device { return newSim(t, 4) }, digest: "174a5ac8d5d89b02"},
		{name: "wt/striped", inner: func(t *testing.T) device.Device { return pinArray(t) }, digest: "f1611c7ba99ae08f"},
		{name: "wt/parity", inner: func(t *testing.T) device.Device { return pinArray(t, striped.WithParity()) }, digest: "0a7af112ca0d0ee5"},
		{name: "wt/clook-d8", inner: clook, digest: "cd971aabe634b447"},
		{name: "wt/sstf-d4", inner: sstf, digest: "cd971aabe634b447"},
		{name: "wb/sim", writeBack: true, inner: func(t *testing.T) device.Device { return newSim(t, 4) }, digest: "2c063cef0cc38f8f"},
		{name: "wb/striped", writeBack: true, inner: func(t *testing.T) device.Device { return pinArray(t) }, digest: "f3ee381860959b87"},
		{name: "wb/clook-d8", writeBack: true, inner: clook, digest: "f4e18f90120c6ae3"},
		{name: "wb/sstf-d4", writeBack: true, inner: sstf, digest: "f3ff0447cb7277ac"},
		{name: "wt/striped-queued", inner: func(t *testing.T) device.Device {
			return pinArray(t, striped.WithQueuedChildren(sched.WithDepth(4), sched.WithScheduler(sched.CLOOK())))
		}, digest: "feb6574578ea38e7"},
	}
	for _, p := range pins {
		t.Run(p.name, func(t *testing.T) {
			c := newCached(t, p.inner(t), cache.WithCapacityMB(1), cache.WithWriteBack(p.writeBack))
			if got := pinDigest(t, c, 3000, 29); got != p.digest {
				t.Errorf("digest %s, pinned %s", got, p.digest)
			}
		})
	}
}
