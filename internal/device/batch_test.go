package device_test

import (
	"math/rand"
	"testing"

	"traxtents/internal/device"
	"traxtents/internal/device/cache"
	"traxtents/internal/device/sched"
	"traxtents/internal/device/striped"
)

// TestBatchContract: every device.Batch reports each accepted
// submission exactly once, under the sequence number Submit returned
// and with the request it was given; sequence numbers increase across
// batches, and a rejected submission is never reported.
func TestBatchContract(t *testing.T) {
	queued := func(t *testing.T) device.Device { return newQueued(t, 4, sched.CLOOK()) }
	queuedArray := func(t *testing.T) device.Device {
		a, err := striped.New([]device.Device{newSim(t, 1), newSim(t, 2), newSim(t, 3)},
			striped.WithQueuedChildren(sched.WithDepth(4), sched.WithScheduler(sched.SSTF())))
		if err != nil {
			t.Fatalf("striped.New: %v", err)
		}
		return a
	}
	cached := func(inner func(t *testing.T) device.Device) func(t *testing.T) device.Device {
		return func(t *testing.T) device.Device {
			c, err := cache.New(inner(t), cache.WithCapacityMB(1), cache.WithWriteBack(true))
			if err != nil {
				t.Fatalf("cache.New: %v", err)
			}
			return c
		}
	}
	cases := []struct {
		name string
		mk   func(t *testing.T) device.Device
	}{
		{"queue", queued},
		{"striped", func(t *testing.T) device.Device { return newStriped(t) }},
		{"striped-queued", queuedArray},
		{"parity", func(t *testing.T) device.Device { return newParity(t, false) }},
		{"cache-sim", cached(func(t *testing.T) device.Device { return newSim(t, 7) })},
		{"cache-queue", cached(queued)},
		{"cache-striped-queued", cached(queuedArray)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, ok := tc.mk(t).(device.Batch)
			if !ok {
				t.Fatal("not a device.Batch")
			}
			rng := rand.New(rand.NewSource(5))
			last := -1
			at := 0.0
			for batch := 0; batch < 3; batch++ {
				want := map[int]device.Request{}
				for i := 0; i < 24; i++ {
					req := device.Request{LBN: rng.Int63n(b.Capacity() - 64), Sectors: 1 + rng.Intn(64), Write: rng.Intn(4) == 0}
					if i == 11 {
						req.LBN = b.Capacity() // rejected
					}
					seq, err := b.Submit(at, req)
					if i == 11 {
						if err == nil {
							t.Fatalf("batch %d: out-of-range request accepted", batch)
						}
						continue
					}
					if err != nil {
						t.Fatalf("batch %d: Submit %d: %v", batch, i, err)
					}
					if seq <= last {
						t.Fatalf("batch %d: sequence number %d after %d", batch, seq, last)
					}
					last, want[seq] = seq, req
					at += rng.Float64() * 2
				}
				err := b.DrainEach(func(seq int, r *device.Result) {
					req, ok := want[seq]
					if !ok {
						t.Errorf("batch %d: drained unknown or repeated seq %d", batch, seq)
						return
					}
					if r.Req != req {
						t.Errorf("batch %d: seq %d drained %+v, submitted %+v", batch, seq, r.Req, req)
					}
					delete(want, seq)
				})
				if err != nil {
					t.Fatalf("batch %d: DrainEach: %v", batch, err)
				}
				if len(want) != 0 {
					t.Fatalf("batch %d: %d submissions never drained", batch, len(want))
				}
				at = b.Now()
			}
		})
	}
}
