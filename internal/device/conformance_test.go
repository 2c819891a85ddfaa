package device_test

import (
	"testing"

	"traxtents/internal/device"
	"traxtents/internal/device/cache"
	"traxtents/internal/device/devtest"
	"traxtents/internal/device/faults"
	"traxtents/internal/device/ftl"
	"traxtents/internal/device/sched"
	"traxtents/internal/device/striped"
	"traxtents/internal/device/trace"
	"traxtents/internal/device/zoned"
	"traxtents/internal/disk/model"
	"traxtents/internal/disk/sim"
)

// newSim builds a fresh simulated disk of the smallest Table 1 model
// (its layout is memoized, so repeated construction is cheap).
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

func newStriped(t testing.TB, opts ...striped.Option) device.Device {
	t.Helper()
	children := []device.Device{newSim(t, 1), newSim(t, 2), newSim(t, 3)}
	a, err := striped.New(children, opts...)
	if err != nil {
		t.Fatalf("striped.New: %v", err)
	}
	return a
}

// newParity builds a traxtent-matched parity array, optionally with
// one child already lost (degraded mode).
func newParity(t testing.TB, lose bool) *striped.Array {
	t.Helper()
	children := []device.Device{newSim(t, 1), newSim(t, 2), newSim(t, 3)}
	a, err := striped.New(children, striped.WithParity())
	if err != nil {
		t.Fatalf("striped.New: %v", err)
	}
	if lose {
		if err := a.Lose(1); err != nil {
			t.Fatalf("Lose: %v", err)
		}
	}
	return a
}

// newPlayer records a spread of reads and writes on a simulated disk
// and returns a replay device for them (non-strict, so the conformance
// suite's own request mix is served at the trace's mean service time).
func newPlayer(t testing.TB) device.Device {
	t.Helper()
	rec := trace.NewRecorder(newSim(t, 4))
	at := 0.0
	for i := 0; i < 64; i++ {
		res, err := rec.Serve(at, device.Request{
			LBN:     int64(i) * 997 % (rec.Capacity() - 64),
			Sectors: 8 + i%32,
			Write:   i%4 == 0,
		})
		if err != nil {
			t.Fatalf("record: %v", err)
		}
		at = res.Done
	}
	p, err := trace.NewPlayer(rec.Trace())
	if err != nil {
		t.Fatalf("NewPlayer: %v", err)
	}
	return p
}

// newQueued wraps a fresh simulated disk in a scheduling queue.
func newQueued(t testing.TB, depth int, s sched.Scheduler) device.Device {
	t.Helper()
	q, err := sched.New(newSim(t, 5), sched.WithDepth(depth), sched.WithScheduler(s))
	if err != nil {
		t.Fatalf("sched.New: %v", err)
	}
	return q
}

// newZonedFlash builds the zoned wrapper over a fresh flash device,
// with an optional open-zone limit (0 = unlimited).
func newZonedFlash(t testing.TB, zones, maxOpen int) *zoned.Device {
	t.Helper()
	f, err := zoned.NewFlash(64 * 1024)
	if err != nil {
		t.Fatalf("NewFlash: %v", err)
	}
	opts := []zoned.Option{zoned.WithZones(zones)}
	if maxOpen > 0 {
		opts = append(opts, zoned.WithMaxOpenZones(maxOpen))
	}
	z, err := zoned.New(f, opts...)
	if err != nil {
		t.Fatalf("zoned.New: %v", err)
	}
	return z
}

// newFTL builds a fresh FTL over a flash device (the FTL discovers the
// erase-block size from the flash itself).
func newFTL(t testing.TB) *ftl.FTL {
	t.Helper()
	f, err := zoned.NewFlash(64 * 1024)
	if err != nil {
		t.Fatalf("NewFlash: %v", err)
	}
	l, err := ftl.New(f)
	if err != nil {
		t.Fatalf("ftl.New: %v", err)
	}
	return l
}

// newHostCached wraps a backend in the host cache layer (4 MB,
// readahead on, the given write mode).
func newHostCached(t testing.TB, inner device.Device, writeBack bool) device.Device {
	t.Helper()
	c, err := cache.New(inner, cache.WithCapacityMB(4), cache.WithWriteBack(writeBack))
	if err != nil {
		t.Fatalf("cache.New: %v", err)
	}
	return c
}

// TestConformance runs the shared device suite against all four
// backends — the calibrated simulator, the traxtent-striped array, the
// trace-replay device, and the scheduling queue — plus the recorder
// wrapper and host-cache-wrapped variants of all four.
func TestConformance(t *testing.T) {
	devtest.Run(t, "sim", func(t *testing.T) device.Device { return newSim(t, 7) })
	devtest.Run(t, "striped", func(t *testing.T) device.Device { return newStriped(t) })
	devtest.Run(t, "parity", func(t *testing.T) device.Device { return newParity(t, false) })
	devtest.Run(t, "parity-degraded", func(t *testing.T) device.Device { return newParity(t, true) })
	devtest.Run(t, "faults", func(t *testing.T) device.Device {
		in, err := faults.New(newSim(t, 7)) // transparent: the strict suite must hold
		if err != nil {
			t.Fatalf("faults.New: %v", err)
		}
		return in
	})
	devtest.Run(t, "trace", func(t *testing.T) device.Device { return newPlayer(t) })
	devtest.Run(t, "recorder", func(t *testing.T) device.Device { return trace.NewRecorder(newSim(t, 8)) })
	devtest.Run(t, "sched-fcfs", func(t *testing.T) device.Device { return newQueued(t, 1, sched.FCFS()) })
	devtest.Run(t, "sched-sstf", func(t *testing.T) device.Device { return newQueued(t, 8, sched.SSTF()) })
	devtest.Run(t, "sched-clook", func(t *testing.T) device.Device { return newQueued(t, 8, sched.CLOOK()) })
	devtest.Run(t, "cache-sim", func(t *testing.T) device.Device { return newHostCached(t, newSim(t, 7), false) })
	devtest.Run(t, "cache-striped", func(t *testing.T) device.Device { return newHostCached(t, newStriped(t), false) })
	devtest.Run(t, "cache-trace", func(t *testing.T) device.Device { return newHostCached(t, newPlayer(t), true) })
	devtest.Run(t, "cache-sched", func(t *testing.T) device.Device {
		return newHostCached(t, newQueued(t, 8, sched.SSTF()), true)
	})
	// Zoned and flash-era backends: the flash device bare, the zoned
	// wrapper (with and without an open-zone limit), the FTL, and the
	// zoned wrapper under a write-through host cache (write-back would
	// absorb writes and replay them out of pointer order, so it does
	// not compose over a zoned device).
	devtest.Run(t, "flash", func(t *testing.T) device.Device {
		f, err := zoned.NewFlash(64 * 1024)
		if err != nil {
			t.Fatalf("NewFlash: %v", err)
		}
		return f
	})
	devtest.Run(t, "zoned", func(t *testing.T) device.Device { return newZonedFlash(t, 16, 0) })
	devtest.Run(t, "zoned-limited", func(t *testing.T) device.Device { return newZonedFlash(t, 16, 3) })
	devtest.Run(t, "ftl", func(t *testing.T) device.Device { return newFTL(t) })
	devtest.Run(t, "cache-zoned", func(t *testing.T) device.Device {
		return newHostCached(t, newZonedFlash(t, 16, 0), false)
	})
	// No sched-over-zoned entry: a queue's dispatch errors are sticky
	// (a failed command aborts the queue), so the suite's deliberately
	// zone-illegal writes would poison every later request — correct
	// queue behavior, but incompatible with the suite's recovery
	// checks. The legal-stream depth-8 composition is pinned in the
	// zoned package's scheduler test.
}

// TestConformanceFuzz runs the seeded property/fuzz suite over the four
// backends: randomized valid and boundary-invalid requests, with the
// Check invariants (CheckRequest agreement, untouched clock on
// rejection, coherent times, monotonic Now) asserted on every call.
// Cache-wrapped variants of all four run the extended suite, which
// additionally asserts read-your-writes through the cache.
func TestConformanceFuzz(t *testing.T) {
	const n, seed = 600, 11
	devtest.Fuzz(t, "sim", func(t *testing.T) device.Device { return newSim(t, 7) }, n, seed)
	devtest.Fuzz(t, "striped", func(t *testing.T) device.Device { return newStriped(t) }, n, seed)
	// A degraded parity array must pass the strict suite: every valid
	// request — reads reconstructing from survivors, writes folding
	// into parity — still succeeds with coherent timing.
	devtest.Fuzz(t, "parity-degraded", func(t *testing.T) device.Device { return newParity(t, true) }, n, seed)
	devtest.Fuzz(t, "trace", func(t *testing.T) device.Device { return newPlayer(t) }, n, seed)
	devtest.Fuzz(t, "sched", func(t *testing.T) device.Device {
		d := newSim(t, 5)
		s, err := sched.TraxtentCLOOKFor(d)
		if err != nil {
			t.Fatalf("TraxtentCLOOKFor: %v", err)
		}
		q, err := sched.New(d, sched.WithDepth(8), sched.WithScheduler(s))
		if err != nil {
			t.Fatalf("sched.New: %v", err)
		}
		return q
	}, n, seed)
	devtest.Fuzz(t, "flash", func(t *testing.T) device.Device {
		f, err := zoned.NewFlash(64 * 1024)
		if err != nil {
			t.Fatalf("NewFlash: %v", err)
		}
		return f
	}, n, seed)
	devtest.Fuzz(t, "zoned", func(t *testing.T) device.Device { return newZonedFlash(t, 16, 0) }, n, seed)
	devtest.Fuzz(t, "zoned-limited", func(t *testing.T) device.Device { return newZonedFlash(t, 16, 3) }, n, seed)
	devtest.Fuzz(t, "ftl", func(t *testing.T) device.Device { return newFTL(t) }, n, seed)
	devtest.Fuzz(t, "cache-zoned", func(t *testing.T) device.Device {
		return newHostCached(t, newZonedFlash(t, 16, 0), false)
	}, n, seed)

	// The cache allocates writes of at most its budget, so the
	// read-your-writes bound is the configured budget itself.
	probe, err := cache.New(newSim(t, 7), cache.WithCapacityMB(4))
	if err != nil {
		t.Fatalf("cache.New: %v", err)
	}
	allocCap := int(probe.CapacitySectors())
	devtest.FuzzCached(t, "cache-sim", func(t *testing.T) device.Device {
		return newHostCached(t, newSim(t, 7), false)
	}, n, seed, allocCap)
	devtest.FuzzCached(t, "cache-striped", func(t *testing.T) device.Device {
		return newHostCached(t, newStriped(t), true)
	}, n, seed, allocCap)
	devtest.FuzzCached(t, "cache-trace", func(t *testing.T) device.Device {
		return newHostCached(t, newPlayer(t), false)
	}, n, seed, allocCap)
	devtest.FuzzCached(t, "cache-sched", func(t *testing.T) device.Device {
		return newHostCached(t, newQueued(t, 8, sched.CLOOK()), true)
	}, n, seed, allocCap)

	// Fault-injecting variants run the faulty suite: injected failures
	// must be typed, identify the request, leave the clock untouched,
	// and replay identically across two lockstep replicas.
	devtest.FuzzFaulty(t, "faults-sim", func(t *testing.T) device.Device {
		in, err := faults.New(newSim(t, 7),
			faults.WithSeed(21),
			faults.WithLatentErrors(24, 16),
			faults.WithTimeoutProb(0.08))
		if err != nil {
			t.Fatalf("faults.New: %v", err)
		}
		return in
	}, n, seed)
	devtest.FuzzFaulty(t, "faults-lost", func(t *testing.T) device.Device {
		in, err := faults.New(newSim(t, 7),
			faults.WithSeed(22),
			faults.WithTimeoutProb(0.05),
			faults.WithFailAt(400))
		if err != nil {
			t.Fatalf("faults.New: %v", err)
		}
		return in
	}, n, seed)
	// Faults over the zoned wrapper and an FTL over a faulty flash:
	// injected failures must stay typed and leave write pointers and
	// mapping tables intact (the dedicated tests audit the tables; the
	// lockstep replicas here pin determinism).
	devtest.FuzzFaulty(t, "faults-zoned", func(t *testing.T) device.Device {
		in, err := faults.New(newZonedFlash(t, 16, 0),
			faults.WithSeed(23),
			faults.WithLatentErrors(24, 16),
			faults.WithTimeoutProb(0.08))
		if err != nil {
			t.Fatalf("faults.New: %v", err)
		}
		return in
	}, n, seed)
	devtest.FuzzFaulty(t, "ftl-faults", func(t *testing.T) device.Device {
		f, err := zoned.NewFlash(64 * 1024)
		if err != nil {
			t.Fatalf("NewFlash: %v", err)
		}
		in, err := faults.New(f,
			faults.WithSeed(24),
			faults.WithLatentErrors(24, 16),
			faults.WithTimeoutProb(0.05))
		if err != nil {
			t.Fatalf("faults.New: %v", err)
		}
		l, err := ftl.New(in, ftl.WithEraseBlockSectors(1024))
		if err != nil {
			t.Fatalf("ftl.New: %v", err)
		}
		return l
	}, n, seed)
}

// TestRecorderForwardsCapabilities: a recorder stands in for the
// wrapped device under capability discovery, so extraction and tables
// work through it.
func TestRecorderForwardsCapabilities(t *testing.T) {
	d := newSim(t, 9)
	rec := trace.NewRecorder(d)
	if rot, ok := device.Device(rec).(device.Rotational); !ok || rot.RotationPeriod() != d.RotationPeriod() {
		t.Fatalf("recorder does not forward the rotation period")
	}
	bp, ok := device.Device(rec).(device.BoundaryProvider)
	if !ok || len(bp.TrackBoundaries()) != len(d.TrackBoundaries()) {
		t.Fatalf("recorder does not forward boundaries")
	}
	m, ok := device.Device(rec).(device.Mapped)
	if !ok || m.Layout() != d.Lay {
		t.Fatalf("recorder does not forward the layout")
	}
	if n, ok := device.Device(rec).(device.Named); !ok || n.Name() != d.Name() {
		t.Fatalf("recorder does not forward the name")
	}
	// A recorder over a capability-free device reports "none" values.
	bare := trace.NewRecorder(newPlayerWithout(t))
	if bare.RotationPeriod() != 0 {
		t.Fatalf("bare recorder invents a rotation period")
	}
	if bare.TrackBoundaries() != nil {
		t.Fatalf("bare recorder invents boundaries")
	}
	if bare.Layout() != nil {
		t.Fatalf("bare recorder invents a layout")
	}
}

// newPlayerWithout builds a replay device whose trace has no rotation
// period, boundaries, or name.
func newPlayerWithout(t testing.TB) device.Device {
	t.Helper()
	p, err := trace.NewPlayer(trace.Trace{Capacity: 1024, SectorSize: 512})
	if err != nil {
		t.Fatalf("NewPlayer: %v", err)
	}
	return p
}
