package driver

import (
	"math"
	"math/rand"
	"testing"

	"traxtents/internal/device/sched"
	"traxtents/internal/disk/model"
	"traxtents/internal/disk/sim"
)

func fleetDisk(t testing.TB, seed int64) *sim.Disk {
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

func fleetQueues(t testing.TB, n int) []*sched.Queue {
	t.Helper()
	qs := make([]*sched.Queue, n)
	for i := range qs {
		q, err := sched.New(fleetDisk(t, int64(i+1)), sched.WithDepth(2), sched.WithScheduler(sched.CLOOK()))
		if err != nil {
			t.Fatalf("sched.New: %v", err)
		}
		qs[i] = q
	}
	return qs
}

var fleetWL = Workload{Requests: 64, Aligned: true, Seed: 41}

const fleetRate = 4000.0

// TestFleetMatchesIndependentQueues pins the fleet's metrics to a
// reference that drives each spindle's identical stream through its
// own queue and drain: the event core interleaves commits across
// independent queues but must not change any per-queue outcome.
func TestFleetMatchesIndependentQueues(t *testing.T) {
	const spindles = 4
	f, err := NewFleet(fleetQueues(t, spindles), fleetWL, fleetRate)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Reference: same derivations as NewFleet, one queue at a time.
	var count int
	var sum, max, maxDone float64
	for s := 0; s < spindles; s++ {
		q := fleetQueues(t, spindles)[s]
		swl := fleetWL
		swl.Seed += int64(s)
		g, err := newGen(q, swl)
		if err != nil {
			t.Fatal(err)
		}
		iat := rand.New(rand.NewSource(swl.Seed ^ 0x666c656574))
		at := 0.0
		for j := 0; j < swl.Requests; j++ {
			if _, err := q.Submit(at, g.next()); err != nil {
				t.Fatal(err)
			}
			at += iat.ExpFloat64() / (fleetRate / 1000)
		}
		cs, err := q.Drain()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cs {
			count++
			sum += c.Res.Response()
			if c.Res.Response() > max {
				max = c.Res.Response()
			}
			if c.Res.Done > maxDone {
				maxDone = c.Res.Done
			}
		}
	}

	if got.Spindles != spindles || got.Requests != count {
		t.Fatalf("fleet %d/%d vs reference %d", got.Spindles, got.Requests, count)
	}
	// The mean is a float fold whose order legitimately differs: the
	// fleet sums completions in global time order, the reference
	// queue-by-queue. Same terms, so only the last ulps may move.
	if want := sum / float64(count); math.Abs(got.MeanRespMs-want) > 1e-9*want {
		t.Errorf("mean resp %g, want %g", got.MeanRespMs, want)
	}
	if got.MaxRespMs != max {
		t.Errorf("max resp %g, want %g", got.MaxRespMs, max)
	}
	if got.MakespanMs != maxDone {
		t.Errorf("makespan %g, want %g", got.MakespanMs, maxDone)
	}
	if got.Events == 0 {
		t.Error("no events fired")
	}
}

// TestFleetRerunnable verifies back-to-back runs: the second replays
// the same pattern shifted to the first run's end and resolves every
// request again.
func TestFleetRerunnable(t *testing.T) {
	f, err := NewFleet(fleetQueues(t, 3), fleetWL, fleetRate)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m2.Requests != m1.Requests || m2.Spindles != m1.Spindles {
		t.Fatalf("second run %+v vs first %+v", m2, m1)
	}
	if m2.MakespanMs <= 0 {
		t.Fatalf("second run makespan %g", m2.MakespanMs)
	}
}

// TestFleetZeroAllocSteadyState gates the arena/heap/closure plumbing:
// after a warm run, a whole Run — thousands of events — allocates
// nothing.
func TestFleetZeroAllocSteadyState(t *testing.T) {
	f, err := NewFleet(fleetQueues(t, 4), fleetWL, fleetRate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil { // warm: heap + arena high-water marks
		t.Fatal(err)
	}
	var runErr error
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := f.Run(); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if allocs != 0 {
		t.Errorf("steady-state Run allocates %.1f, want 0", allocs)
	}
}

// TestFleetSequentialWorkload covers the Sequential arrival content:
// whole tracks in layout order per spindle.
func TestFleetSequentialWorkload(t *testing.T) {
	wl := fleetWL
	wl.Sequential = true
	f, err := NewFleet(fleetQueues(t, 2), wl, fleetRate)
	if err != nil {
		t.Fatal(err)
	}
	if f.reqs[0].LBN != 0 || f.reqs[1].LBN != f.reqs[0].LBN+int64(f.reqs[0].Sectors) {
		t.Fatalf("sequential workload does not walk tracks in order: %+v %+v", f.reqs[0], f.reqs[1])
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	bad := Workload{Requests: 4, Aligned: true, SubTrack: true, IOSectors: 8, Sequential: true}
	if _, err := NewFleet(fleetQueues(t, 1), bad, fleetRate); err == nil {
		t.Fatal("Sequential with SubTrack accepted")
	}
}
