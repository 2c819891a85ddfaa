package volume_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"traxtents/internal/device"
	"traxtents/internal/device/devtest"
	"traxtents/internal/device/stack"
	"traxtents/internal/disk/model"
	"traxtents/internal/disk/sim"
	"traxtents/internal/volume"
)

// newSim builds a fresh simulated disk of the smallest Table 1 model.
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

// newManager builds a manager over n fresh sim shards with a volume of
// the whole first shard's capacity for tenant "t0" unless told
// otherwise by the caller (which then adds its own volumes).
func newManager(t testing.TB, nshards int, opts ...volume.Option) *volume.Manager {
	t.Helper()
	shards := make([]device.Device, nshards)
	for i := range shards {
		shards[i] = newSim(t, int64(i+1))
	}
	m, err := volume.New(shards, opts...)
	if err != nil {
		t.Fatalf("volume.New: %v", err)
	}
	return m
}

func addVol(t testing.TB, m *volume.Manager, name string, sectors int64, opts ...volume.VolumeOption) *volume.Volume {
	t.Helper()
	v, err := m.AddVolume(name, sectors, opts...)
	if err != nil {
		t.Fatalf("AddVolume(%s, %d): %v", name, sectors, err)
	}
	return v
}

// pinStream is the seeded request stream both sides of the passthrough
// differential serve: mixed reads and writes, occasional FUA, and an
// issue-time walk that rides, lags, and overtakes completions.
func pinStream(t *testing.T, d device.Device, n int, seed int64) []device.Result {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	capacity := d.Capacity()
	at := 0.0
	out := make([]device.Result, 0, n)
	for i := 0; i < n; i++ {
		sectors := 1 + rng.Intn(64)
		req := device.Request{
			LBN:     rng.Int63n(capacity - int64(sectors)),
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
			at = res.Done + rng.Float64()*3
		}
	}
	return out
}

// TestPassthroughPin: a single-tenant Manager with no limits and the
// default tier (depth-1 FCFS) over a passthrough stack must serve a
// seeded stream bit-identical to the bare stack — the same transparency
// discipline the queue, cache, and array layers are pinned to.
func TestPassthroughPin(t *testing.T) {
	bareStack, err := stack.Config{}.Build(newSim(t, 7))
	if err != nil {
		t.Fatalf("stack: %v", err)
	}
	shardStack, err := stack.Config{}.Build(newSim(t, 7))
	if err != nil {
		t.Fatalf("stack: %v", err)
	}
	m, err := volume.New([]device.Device{shardStack})
	if err != nil {
		t.Fatalf("volume.New: %v", err)
	}
	addVol(t, m, "t0", shardStack.Capacity())
	view, err := m.View("t0")
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	if view.Capacity() != bareStack.Capacity() {
		t.Fatalf("volume capacity %d != device capacity %d", view.Capacity(), bareStack.Capacity())
	}

	const n = 400
	want := pinStream(t, bareStack, n, 3)
	got := pinStream(t, view, n, 3)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("result %d diverged:\nmanager: %+v\nbare:    %+v", i, got[i], want[i])
		}
	}
}

// TestSubmitMatchesServe: under the passthrough tier the batch path
// (Submit + Drain) accounts a fixed arrival schedule identically to the
// synchronous barrier path.
func TestSubmitMatchesServe(t *testing.T) {
	run := func(batch bool) []volume.VolumeStats {
		m := newManager(t, 1)
		capacity := newSim(t, 1).Capacity()
		addVol(t, m, "a", capacity/2)
		addVol(t, m, "b", capacity/4)
		rng := rand.New(rand.NewSource(17))
		at := 0.0
		for i := 0; i < 200; i++ {
			name := "a"
			if rng.Intn(2) == 0 {
				name = "b"
			}
			v, err := m.Volume(name)
			if err != nil {
				t.Fatalf("Volume: %v", err)
			}
			sectors := 1 + rng.Intn(32)
			req := device.Request{
				LBN:     rng.Int63n(v.Capacity() - int64(sectors)),
				Sectors: sectors,
				Write:   rng.Intn(4) == 0,
			}
			if batch {
				if err := m.Submit(name, at, req); err != nil {
					t.Fatalf("Submit %d: %v", i, err)
				}
			} else if _, err := m.ServeTenant(name, at, req); err != nil {
				t.Fatalf("ServeTenant %d: %v", i, err)
			}
			at += rng.Float64() * 8
		}
		if err := m.Drain(); err != nil {
			t.Fatalf("Drain: %v", err)
		}
		return append(m.Stats(), m.Aggregate())
	}
	sync, batch := run(false), run(true)
	if !reflect.DeepEqual(sync, batch) {
		t.Fatalf("batch accounting diverged:\nserve:  %+v\nsubmit: %+v", sync, batch)
	}
}

// TestViewConformance runs the shared device suite over volume views:
// the passthrough, a fair-share tier over two shards (requests split
// across extents and shards), and an EDF tier over an unaligned
// fixed-extent layout.
func TestViewConformance(t *testing.T) {
	mkView := func(t *testing.T, nshards int, sectors int64, opts ...volume.Option) device.Device {
		m := newManager(t, nshards, opts...)
		addVol(t, m, "t0", sectors)
		view, err := m.View("t0")
		if err != nil {
			t.Fatalf("View: %v", err)
		}
		return view
	}
	capacity := newSim(t, 1).Capacity()
	devtest.Run(t, "volume-pass", func(t *testing.T) device.Device {
		return mkView(t, 1, capacity)
	})
	devtest.Run(t, "volume-fair", func(t *testing.T) device.Device {
		return mkView(t, 2, 40000, volume.WithTier("fair"), volume.WithTierDepth(4))
	})
	devtest.Run(t, "volume-edf-unaligned", func(t *testing.T) device.Device {
		return mkView(t, 2, 40000, volume.WithTier("edf"), volume.WithTierDepth(4), volume.WithExtentSectors(100))
	})
}

// TestViewConformanceFuzz runs the seeded property suite (valid and
// boundary-invalid requests, Check invariants on every call) over a
// sharded fair-tier view and the unaligned EDF view.
func TestViewConformanceFuzz(t *testing.T) {
	const n, seed = 600, 11
	devtest.Fuzz(t, "volume-fair", func(t *testing.T) device.Device {
		m := newManager(t, 2, volume.WithTier("fair"), volume.WithTierDepth(4))
		addVol(t, m, "t0", 40000)
		view, err := m.View("t0")
		if err != nil {
			t.Fatalf("View: %v", err)
		}
		return view
	}, n, seed)
	devtest.Fuzz(t, "volume-edf-unaligned", func(t *testing.T) device.Device {
		m := newManager(t, 2, volume.WithTier("edf"), volume.WithExtentSectors(300))
		addVol(t, m, "t0", 40000)
		view, err := m.View("t0")
		if err != nil {
			t.Fatalf("View: %v", err)
		}
		return view
	}, n, seed)
}

// TestAdmissionZeroRate: the zero-value TenantLimit is a zero-rate
// token bucket — every request is rejected, deterministically, and the
// clock never moves.
func TestAdmissionZeroRate(t *testing.T) {
	m := newManager(t, 1)
	addVol(t, m, "t0", 10000, volume.WithLimit(volume.TenantLimit{}))
	for i := 0; i < 10; i++ {
		err := m.Submit("t0", float64(i), device.Request{LBN: int64(i) * 8, Sectors: 8})
		if !errors.Is(err, volume.ErrRejected) {
			t.Fatalf("request %d: err = %v, want ErrRejected", i, err)
		}
	}
	if err := m.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	s, err := m.VolumeStats("t0")
	if err != nil {
		t.Fatalf("VolumeStats: %v", err)
	}
	if s.Rejected != 10 || s.Requests != 0 || s.Deferred != 0 {
		t.Fatalf("stats = %+v, want 10 rejected, 0 served", s)
	}
	if m.Now() != 0 {
		t.Fatalf("rejected requests advanced the clock to %g", m.Now())
	}
}

// TestAdmissionPoliceAndShape pins the two token-bucket modes: without
// Defer an empty bucket rejects; with Defer the same requests are
// admitted but released at the deterministic refill instants, and the
// shaping delay shows up in the response times.
func TestAdmissionPoliceAndShape(t *testing.T) {
	req := device.Request{LBN: 0, Sectors: 8}

	police := newManager(t, 1)
	addVol(t, police, "t0", 10000, volume.WithLimit(volume.TenantLimit{IOPS: 100}))
	if err := police.Submit("t0", 0, req); err != nil {
		t.Fatalf("first request: %v", err)
	}
	if err := police.Submit("t0", 0, req); !errors.Is(err, volume.ErrRejected) {
		t.Fatalf("second request at t=0: err = %v, want ErrRejected", err)
	}
	if err := police.Submit("t0", 10, req); err != nil {
		t.Fatalf("request after refill: %v", err)
	}
	if err := police.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if s, _ := police.VolumeStats("t0"); s.Requests != 2 || s.Rejected != 1 {
		t.Fatalf("policing stats = %+v, want 2 served, 1 rejected", s)
	}

	shape := newManager(t, 1)
	addVol(t, shape, "t0", 10000, volume.WithLimit(volume.TenantLimit{IOPS: 100, Defer: true}))
	for i := 0; i < 3; i++ {
		if err := shape.Submit("t0", 0, req); err != nil {
			t.Fatalf("shaped request %d: %v", i, err)
		}
	}
	if err := shape.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	s, _ := shape.VolumeStats("t0")
	if s.Requests != 3 || s.Rejected != 0 || s.Deferred != 2 {
		t.Fatalf("shaping stats = %+v, want 3 served, 2 deferred", s)
	}
	// The third request was released at t=20ms; its response (measured
	// from the t=0 issue) must include that shaping delay.
	if s.MaxMs < 20 {
		t.Fatalf("max response %g ms does not include the 20 ms shaping delay", s.MaxMs)
	}
}

// TestDrainDeferredIssueClock: Drain routes shaped requests at their
// future release instants, and the manager's issue clock must follow
// them there. A later Submit before the last release is then refused
// by the manager's own issue-order check, up front — not accepted,
// admitted, and failed inside the shard tier mid-route.
func TestDrainDeferredIssueClock(t *testing.T) {
	req := device.Request{LBN: 0, Sectors: 8}
	m := newManager(t, 1)
	addVol(t, m, "a", 10000, volume.WithLimit(volume.TenantLimit{IOPS: 100, BurstRequests: 1, Defer: true}))
	addVol(t, m, "b", 10000)
	for i := 0; i < 5; i++ {
		if err := m.Submit("a", float64(i), req); err != nil {
			t.Fatalf("shaped request at t=%d: %v", i, err)
		}
	}
	// One token, 10 ms refill: the requests at t=1..4 release at
	// t=10, 20, 30 and 40.
	if err := m.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	err := m.Submit("b", 5, req)
	if err == nil || err.Error() != "volume: issue time 5 before previous 40" {
		t.Fatalf("Submit at t=5 after Drain: err = %v, want the manager's issue-order rejection", err)
	}
	if err := m.Submit("b", 40, req); err != nil {
		t.Fatalf("Submit at the last release instant: %v", err)
	}
	if err := m.Drain(); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
	if s, _ := m.VolumeStats("b"); s.Requests != 1 || s.InFlight != 0 {
		t.Fatalf("tenant b stats = %+v, want 1 served, none in flight", s)
	}
	if s, _ := m.VolumeStats("a"); s.Requests != 5 || s.Deferred != 4 {
		t.Fatalf("tenant a stats = %+v, want 5 served, 4 deferred", s)
	}
}

// TestAdmissionExactLoad: a limit exactly equal to the offered load
// admits everything — the boundary case where each refill interval
// earns exactly one request.
func TestAdmissionExactLoad(t *testing.T) {
	m := newManager(t, 1)
	// 125 IOPS = one request per 8 ms, both exact in binary.
	addVol(t, m, "t0", 10000, volume.WithLimit(volume.TenantLimit{IOPS: 125}))
	for i := 0; i < 50; i++ {
		if err := m.Submit("t0", float64(i)*8, device.Request{LBN: int64(i%100) * 8, Sectors: 8}); err != nil {
			t.Fatalf("request %d at exact rate rejected: %v", i, err)
		}
	}
	if err := m.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if s, _ := m.VolumeStats("t0"); s.Requests != 50 || s.Rejected != 0 || s.Deferred != 0 {
		t.Fatalf("stats = %+v, want 50 served, none rejected or deferred", s)
	}
}

// TestAdmissionBandwidth covers the sector bucket: oversized requests
// are rejected outright even when deferring, and an exhausted bucket
// polices or shapes by cost.
func TestAdmissionBandwidth(t *testing.T) {
	m := newManager(t, 1)
	addVol(t, m, "t0", 10000, volume.WithLimit(volume.TenantLimit{SectorsPerSec: 1000, BurstSectors: 64, Defer: true}))
	if err := m.Submit("t0", 0, device.Request{LBN: 0, Sectors: 65}); !errors.Is(err, volume.ErrRejected) {
		t.Fatalf("oversized request: err = %v, want ErrRejected", err)
	}
	if err := m.Submit("t0", 0, device.Request{LBN: 0, Sectors: 64}); err != nil {
		t.Fatalf("burst-sized request: %v", err)
	}
	// Bucket empty; 64 more sectors take 64 ms to earn at 1 sector/ms.
	if err := m.Submit("t0", 0, device.Request{LBN: 64, Sectors: 64}); err != nil {
		t.Fatalf("shaped request: %v", err)
	}
	if err := m.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	s, _ := m.VolumeStats("t0")
	if s.Requests != 2 || s.Rejected != 1 || s.Deferred != 1 {
		t.Fatalf("stats = %+v, want 2 served, 1 rejected, 1 deferred", s)
	}
	if s.MaxMs < 64 {
		t.Fatalf("max response %g ms does not include the 64 ms bandwidth wait", s.MaxMs)
	}
}

// TestAdmissionMaxInFlight: the queue-depth cap rejects (never defers)
// while the previous request is still in flight in virtual time.
func TestAdmissionMaxInFlight(t *testing.T) {
	m := newManager(t, 1)
	addVol(t, m, "t0", 10000, volume.WithLimit(volume.TenantLimit{MaxInFlight: 1, Defer: true}))
	res, err := m.ServeTenant("t0", 0, device.Request{LBN: 0, Sectors: 8})
	if err != nil {
		t.Fatalf("first request: %v", err)
	}
	if _, err := m.ServeTenant("t0", 0, device.Request{LBN: 8, Sectors: 8}); !errors.Is(err, volume.ErrRejected) {
		t.Fatalf("overlapping request: err = %v, want ErrRejected (Defer must not shape a depth cap)", err)
	}
	if _, err := m.ServeTenant("t0", res.Done, device.Request{LBN: 8, Sectors: 8}); err != nil {
		t.Fatalf("request after completion: %v", err)
	}
	if s, _ := m.VolumeStats("t0"); s.Requests != 2 || s.Rejected != 1 {
		t.Fatalf("stats = %+v, want 2 served, 1 rejected", s)
	}
}

// churnRun drives one deterministic add/serve/remove/add sequence and
// returns everything observable: per-request results, final stats, and
// the replacement tenant's placement.
func churnRun(t *testing.T) ([]device.Result, []volume.VolumeStats, []volume.Extent) {
	t.Helper()
	m := newManager(t, 2, volume.WithTier("fair"), volume.WithTierDepth(4))
	addVol(t, m, "a", 20000)
	b := addVol(t, m, "b", 20000)
	addVol(t, m, "c", 20000)
	bExts := b.ExtentTable()

	var results []device.Result
	rng := rand.New(rand.NewSource(5))
	at := 0.0
	serve := func(name string, n int) {
		v, err := m.Volume(name)
		if err != nil {
			t.Fatalf("Volume(%s): %v", name, err)
		}
		for i := 0; i < n; i++ {
			req := device.Request{LBN: rng.Int63n(v.Capacity() - 8), Sectors: 8, Write: rng.Intn(3) == 0}
			res, err := m.ServeTenant(name, at, req)
			if err != nil {
				t.Fatalf("ServeTenant(%s): %v", name, err)
			}
			results = append(results, res)
			at = res.Done + rng.Float64()
		}
	}
	serve("a", 8)
	serve("b", 8)

	// Mid-run churn: remove b, then a same-size replacement must land
	// exactly on b's freed extents (lowest-free-first reallocation).
	if err := m.RemoveVolume("b"); err != nil {
		t.Fatalf("RemoveVolume(b): %v", err)
	}
	d := addVol(t, m, "d", 20000)
	dExts := d.ExtentTable()
	for i, e := range dExts {
		if i < len(bExts) && e != bExts[i] {
			t.Fatalf("extent %d: d placed at %+v, b had %+v", i, e, bExts[i])
		}
	}
	serve("d", 8)
	serve("c", 8)
	return results, append(m.Stats(), m.Aggregate()), dExts
}

// TestTenantChurn: add/remove mid-run keeps the clock and placement
// deterministic — two identical runs are bit-identical in results,
// stats, and placement.
func TestTenantChurn(t *testing.T) {
	r1, s1, e1 := churnRun(t)
	r2, s2, e2 := churnRun(t)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("churn results diverged across identical runs")
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("churn stats diverged across identical runs:\n%+v\n%+v", s1, s2)
	}
	if !reflect.DeepEqual(e1, e2) {
		t.Fatalf("churn placement diverged across identical runs")
	}
}

// TestRemoveVolumeInFlight: a tenant with admitted-but-unresolved
// requests cannot be removed until the batch is drained.
func TestRemoveVolumeInFlight(t *testing.T) {
	m := newManager(t, 1, volume.WithTier("fair"), volume.WithTierDepth(8))
	addVol(t, m, "t0", 10000)
	if err := m.Submit("t0", 0, device.Request{LBN: 0, Sectors: 8}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := m.RemoveVolume("t0"); err == nil {
		t.Fatal("RemoveVolume succeeded with a request in flight")
	}
	if err := m.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := m.RemoveVolume("t0"); err != nil {
		t.Fatalf("RemoveVolume after drain: %v", err)
	}
	if err := m.RemoveVolume("t0"); err == nil {
		t.Fatal("RemoveVolume of unknown tenant succeeded")
	}
}

// TestFairShareWeights: under a backlog on one spindle, the fair tier
// gives a weight-4 tenant a shorter mean response than a weight-1
// tenant submitting the same load at the same instants.
func TestFairShareWeights(t *testing.T) {
	m := newManager(t, 1, volume.WithTier("fair"), volume.WithTierDepth(16))
	addVol(t, m, "heavy", 8000, volume.WithWeight(4))
	addVol(t, m, "light", 8000)
	for i := 0; i < 24; i++ {
		lbn := int64(i%10) * 512
		if err := m.Submit("heavy", 0, device.Request{LBN: lbn, Sectors: 64}); err != nil {
			t.Fatalf("heavy %d: %v", i, err)
		}
		if err := m.Submit("light", 0, device.Request{LBN: lbn, Sectors: 64}); err != nil {
			t.Fatalf("light %d: %v", i, err)
		}
	}
	if err := m.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	heavy, _ := m.VolumeStats("heavy")
	light, _ := m.VolumeStats("light")
	if heavy.Requests != 24 || light.Requests != 24 {
		t.Fatalf("served %d/%d, want 24/24", heavy.Requests, light.Requests)
	}
	if heavy.MeanMs >= light.MeanMs {
		t.Fatalf("fair share ignored weights: heavy mean %g ms, light mean %g ms", heavy.MeanMs, light.MeanMs)
	}
}

// TestEDFDeadlines: under the same backlog, the EDF tier serves the
// tight-deadline tenant ahead of the loose one.
func TestEDFDeadlines(t *testing.T) {
	m := newManager(t, 1, volume.WithTier("edf"), volume.WithTierDepth(16))
	addVol(t, m, "urgent", 8000, volume.WithDeadline(5))
	addVol(t, m, "relaxed", 8000, volume.WithDeadline(500))
	for i := 0; i < 24; i++ {
		lbn := int64(i%10) * 512
		if err := m.Submit("relaxed", 0, device.Request{LBN: lbn, Sectors: 64}); err != nil {
			t.Fatalf("relaxed %d: %v", i, err)
		}
		if err := m.Submit("urgent", 0, device.Request{LBN: lbn, Sectors: 64}); err != nil {
			t.Fatalf("urgent %d: %v", i, err)
		}
	}
	if err := m.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	urgent, _ := m.VolumeStats("urgent")
	relaxed, _ := m.VolumeStats("relaxed")
	if urgent.MeanMs >= relaxed.MeanMs {
		t.Fatalf("EDF ignored deadlines: urgent mean %g ms, relaxed mean %g ms", urgent.MeanMs, relaxed.MeanMs)
	}
}

// TestAddVolumeErrors covers the construction edge cases: duplicates,
// bad sizes, exhausted capacity with rollback.
func TestAddVolumeErrors(t *testing.T) {
	m := newManager(t, 1)
	capacity := newSim(t, 1).Capacity()
	if _, err := m.AddVolume("", 100); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := m.AddVolume("t0", 0); err == nil {
		t.Fatal("zero size accepted")
	}
	addVol(t, m, "t0", capacity/2)
	if _, err := m.AddVolume("t0", 100); err == nil {
		t.Fatal("duplicate tenant accepted")
	}
	// More than the remaining capacity: must fail and roll back.
	if _, err := m.AddVolume("big", capacity); err == nil {
		t.Fatal("oversubscription accepted")
	}
	// The rollback returned every extent: the remaining half still fits.
	addVol(t, m, "rest", capacity/2-capacity/100)
	if _, err := m.View("nobody"); err == nil {
		t.Fatal("View of unknown tenant succeeded")
	}
	if _, err := m.VolumeStats("nobody"); err == nil {
		t.Fatal("VolumeStats of unknown tenant succeeded")
	}
	names := m.Tenants()
	if !reflect.DeepEqual(names, []string{"t0", "rest"}) {
		t.Fatalf("Tenants = %v", names)
	}
}
