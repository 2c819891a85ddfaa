package volume

// White-box tests for the Submit error-path contract: a mid-batch
// device failure (a fault injector under a shard tier) must leave the
// tenant's token buckets, in-flight counts, and P² quantile state
// exactly as a clean ErrRejected would — and the surviving shard's
// span routes must stay aligned with what its tier actually accepted.

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"traxtents/internal/device"
	"traxtents/internal/device/faults"
	"traxtents/internal/disk/model"
	"traxtents/internal/disk/sim"
)

func simDisk(t testing.TB, seed int64) *sim.Disk {
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

// admitState is everything the rollback contract says a failed request
// must not disturb.
type admitState struct {
	reqTokens   float64
	secTokens   float64
	bucketAt    float64
	lastRelease float64
	unresolved  int
	deferred    int
	rejected    int
	served      int
	sumResp     float64
	stats       VolumeStats // includes the P² quantile estimates
	aggServed   int
	aggSum      float64
	aggStats    VolumeStats
}

func captureAdmit(m *Manager, v *Volume) admitState {
	return admitState{
		reqTokens:   v.reqTokens,
		secTokens:   v.secTokens,
		bucketAt:    v.bucketAt,
		lastRelease: v.lastRelease,
		unresolved:  v.unresolved,
		deferred:    v.deferred,
		rejected:    v.rejected,
		served:      v.served,
		sumResp:     v.sumResp,
		stats:       v.snapshot(),
		aggServed:   m.served,
		aggSum:      m.sumResp,
		aggStats:    m.Aggregate(),
	}
}

// straddleShape finds a tenant name whose placement starts on shard 0
// and reaches shard 1 within the first few extents, plus the volume
// LBN where the first shard-1 extent begins. Placement is a
// deterministic hash of the name, so the same name reproduces the
// shape on any manager over the same shard geometry.
func straddleShape(t *testing.T, size int64) (name string, cross int64) {
	t.Helper()
	for i := 0; i < 64; i++ {
		m, err := New([]device.Device{simDisk(t, 1), simDisk(t, 2)})
		if err != nil {
			t.Fatalf("probe manager: %v", err)
		}
		name = "tenant" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		v, err := m.AddVolume(name, size)
		if err != nil {
			t.Fatalf("probe AddVolume: %v", err)
		}
		if v.exts[0].Shard != 0 {
			continue
		}
		for j := 1; j < len(v.exts); j++ {
			if v.exts[j].Shard == 1 {
				return name, v.bounds[j]
			}
		}
	}
	t.Fatal("no probed tenant name straddles shard 0 then shard 1")
	return "", 0
}

func TestSubmitMidBatchRollback(t *testing.T) {
	const size = 4096
	name, cross := straddleShape(t, size)

	// Shard 1 is lost from t=0: every request to it dies with ErrLost,
	// surfacing from the fcfs tier's synchronous dispatch as a typed
	// device.Error — the mid-batch failure under test.
	lost, err := faults.New(simDisk(t, 2), faults.WithFailAt(0))
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	m, err := New([]device.Device{simDisk(t, 1), lost})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	v, err := m.AddVolume(name, size, WithLimit(TenantLimit{
		IOPS:          1000,
		BurstRequests: 8,
		SectorsPerSec: 64000,
		BurstSectors:  512,
		MaxInFlight:   8,
	}))
	if err != nil {
		t.Fatalf("AddVolume: %v", err)
	}
	healthy := device.Request{LBN: 0, Sectors: 8} // inside extent 0, shard 0
	straddle := device.Request{LBN: cross - 8, Sectors: 16}

	// Warm-up: one healthy request settles, so the pre-failure state
	// being compared is non-trivial.
	if err := m.Submit(name, 1, healthy); err != nil {
		t.Fatalf("warm-up submit: %v", err)
	}
	if err := m.Drain(); err != nil {
		t.Fatalf("warm-up drain: %v", err)
	}
	if v.served != 1 {
		t.Fatalf("warm-up served %d, want 1", v.served)
	}

	before := captureAdmit(m, v)

	// The straddling request admits (tokens flow), places its shard-0
	// span, then dies on shard 1 mid-batch.
	err = m.Submit(name, 2, straddle)
	if err == nil {
		t.Fatal("straddling submit over a lost shard succeeded")
	}
	var de *device.Error
	if !errors.As(err, &de) {
		t.Fatalf("mid-batch failure is %T (%v), want a *device.Error", err, err)
	}
	if errors.Is(err, ErrRejected) {
		t.Fatalf("device failure reported as admission rejection: %v", err)
	}
	if got := captureAdmit(m, v); !reflect.DeepEqual(got, before) {
		t.Fatalf("mid-batch failure disturbed tenant state:\nbefore: %+v\nafter:  %+v", before, got)
	}
	// Shard 0's span is legitimately in flight, routed under the
	// sequence number its tier gave it.
	checkRoutes(t, m.shards[0])

	// A second straddling submit: its shard-1 span now hits the sticky
	// tier at entry, and the rollback must hold again. The advance
	// inside Submit first folds the previous failure's orphaned shard-0
	// span into its failed join, which must not account.
	err = m.Submit(name, 3, straddle)
	if err == nil {
		t.Fatal("second straddling submit succeeded")
	}
	if got := captureAdmit(m, v); !reflect.DeepEqual(got, before) {
		t.Fatalf("second failure disturbed tenant state:\nbefore: %+v\nafter:  %+v", before, got)
	}
	checkRoutes(t, m.shards[0])

	// Healthy traffic on the surviving shard still flows and accounts.
	if err := m.Submit(name, 4, healthy); err != nil {
		t.Fatalf("healthy submit after failures: %v", err)
	}
	if err := m.Submit(name, 5, healthy); err != nil {
		t.Fatalf("second healthy submit: %v", err)
	}
	if v.served < 2 {
		t.Fatalf("served %d after post-failure traffic, want >= 2", v.served)
	}
	if v.rejected != before.rejected {
		t.Fatalf("device failures counted as rejections: %d", v.rejected)
	}
	// The lost shard's tier is sticky by design; the barrier drain
	// surfaces its error rather than silently dropping the shard.
	if err := m.Drain(); err == nil {
		t.Fatal("drain over a sticky lost shard reported success")
	}
}

// checkRoutes asserts that a live shard routes exactly the sequence
// numbers its tier has handed out since the last drain.
func checkRoutes(t *testing.T, sh *shard) {
	t.Helper()
	if got, want := sh.routeBase+len(sh.routes), sh.tier.Stats().Submitted; got != want {
		t.Fatalf("shard %d routes end at seq %d, tier submitted %d", sh.idx, got, want)
	}
}

// TestMaxInFlightBoundary pins the admission window's boundary at
// t == completion time: a completion landing exactly at the admission
// instant has left the window (the doneHeap pop is inclusive), which
// is consistent with the event core's inclusive AdvanceTo — by the
// time anything runs at t, every completion at t has fired. An arrival
// an ULP earlier still sees the request in flight.
func TestMaxInFlightBoundary(t *testing.T) {
	mk := func() (*Manager, *Volume, float64) {
		m, err := New([]device.Device{simDisk(t, 1)})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		v, err := m.AddVolume("t0", 1024, WithLimit(TenantLimit{MaxInFlight: 1}))
		if err != nil {
			t.Fatalf("AddVolume: %v", err)
		}
		res, err := m.ServeTenant("t0", 0, device.Request{LBN: 0, Sectors: 8})
		if err != nil {
			t.Fatalf("ServeTenant: %v", err)
		}
		if v.unresolved != 0 || len(v.doneHeap) != 1 {
			t.Fatalf("after barrier serve: unresolved=%d doneHeap=%d", v.unresolved, len(v.doneHeap))
		}
		return m, v, res.Done
	}

	t.Run("exactly at completion", func(t *testing.T) {
		m, v, done := mk()
		if _, err := m.ServeTenant("t0", done, device.Request{LBN: 8, Sectors: 8}); err != nil {
			t.Fatalf("arrival exactly at completion rejected: %v", err)
		}
		if v.rejected != 0 {
			t.Fatalf("rejected=%d, want 0", v.rejected)
		}
	})

	t.Run("one ulp before completion", func(t *testing.T) {
		m, v, done := mk()
		at := math.Nextafter(done, 0)
		_, err := m.ServeTenant("t0", at, device.Request{LBN: 8, Sectors: 8})
		if !errors.Is(err, ErrRejected) {
			t.Fatalf("arrival before completion err=%v, want ErrRejected", err)
		}
		if v.rejected != 1 {
			t.Fatalf("rejected=%d, want 1", v.rejected)
		}
		// The window frees at the boundary itself.
		if _, err := m.ServeTenant("t0", done, device.Request{LBN: 8, Sectors: 8}); err != nil {
			t.Fatalf("retry at completion instant rejected: %v", err)
		}
	})
}
