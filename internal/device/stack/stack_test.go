package stack

import (
	"math/rand"
	"reflect"
	"testing"

	"traxtents/internal/device"
	"traxtents/internal/device/sched"
	"traxtents/internal/disk/model"
	"traxtents/internal/disk/sim"
)

func newDisk(t *testing.T, seed int64) *sim.Disk {
	t.Helper()
	m := model.MustGet("Quantum-Atlas10KII")
	cfg := m.DefaultConfig()
	cfg.Seed = seed
	d, err := m.NewDisk(cfg)
	if err != nil {
		t.Fatalf("NewDisk: %v", err)
	}
	return d
}

// workload returns a seeded request stream shared by the differential
// tests.
func workload(d device.Device, n int, seed int64) []device.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]device.Request, 0, n)
	for i := 0; i < n; i++ {
		req := device.Request{
			LBN:     rng.Int63n(d.Capacity() - 1024),
			Sectors: 1 + rng.Intn(512),
			Write:   rng.Intn(4) == 0,
		}
		reqs = append(reqs, req)
	}
	return reqs
}

// TestPassthroughBitIdentical: the zero-value Config (depth-1 FCFS
// queue, zero-budget cache) must serve a seeded workload bit-identical
// to the bare device — the pin that lets consumers route through a
// Stack unconditionally.
func TestPassthroughBitIdentical(t *testing.T) {
	bare := newDisk(t, 3)
	st, err := (Config{}).Build(newDisk(t, 3))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !(Config{}).Passthrough() {
		t.Fatal("zero Config must report Passthrough")
	}
	at := 0.0
	for i, req := range workload(bare, 300, 11) {
		want, err1 := bare.Serve(at, req)
		got, err2 := st.Serve(at, req)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("req %d: error mismatch %v vs %v", i, err1, err2)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("req %d: result drifted through passthrough stack:\ngot  %+v\nwant %+v", i, got, want)
		}
		at = want.Done
	}
	if bare.Now() != st.Now() {
		t.Fatalf("clock drifted: bare %g vs stack %g", bare.Now(), st.Now())
	}
}

// TestPassthroughSubmitDrain: the same pin on the batch path — submit a
// seeded batch through the stack and compare against sequential bare
// service (FCFS passthrough dispatches at submission).
func TestPassthroughSubmitDrain(t *testing.T) {
	bare := newDisk(t, 5)
	st, err := New(newDisk(t, 5), nil, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	reqs := workload(bare, 200, 13)
	var want []device.Result
	at := 0.0
	for _, req := range reqs {
		res, err := bare.Serve(at, req)
		if err != nil {
			t.Fatalf("bare serve: %v", err)
		}
		want = append(want, res)
		at += 0.01
	}
	at = 0.0
	for _, req := range reqs {
		if _, err := st.Submit(at, req); err != nil {
			t.Fatalf("submit: %v", err)
		}
		at += 0.01
	}
	got, err := st.Drain()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results for %d requests", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("req %d drifted on the batch path:\ngot  %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestCapabilityForwarding: tables, layouts, and rotation build through
// the whole stack.
func TestCapabilityForwarding(t *testing.T) {
	d := newDisk(t, 1)
	st, err := (Config{Depth: 8, Scheduler: "clook", CacheMB: 4}).Build(d)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if st.Capacity() != d.Capacity() || st.SectorSize() != d.SectorSize() {
		t.Fatal("identity not forwarded")
	}
	bp, ok := device.Device(st).(device.BoundaryProvider)
	if !ok || len(bp.TrackBoundaries()) < 2 {
		t.Fatal("boundaries not forwarded")
	}
	r, ok := device.Device(st).(device.Rotational)
	if !ok || r.RotationPeriod() <= 0 {
		t.Fatal("rotation not forwarded")
	}
	mp, ok := device.Device(st).(device.Mapped)
	if !ok || mp.Layout() == nil {
		t.Fatal("layout not forwarded")
	}
	if st.Queue().Depth() != 8 {
		t.Fatalf("queue depth %d, want 8", st.Queue().Depth())
	}
	if st.Base() != device.Device(d) {
		t.Fatal("base not exposed")
	}
	if st.CapacitySectors() == 0 {
		t.Fatal("cache budget not applied")
	}
}

// TestConfigValidation: bad compositions fail fast, with the layer
// named in the error.
func TestConfigValidation(t *testing.T) {
	d := newDisk(t, 1)
	if _, err := (Config{Scheduler: "bogus"}).Build(d); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	if _, err := (Config{Depth: -1}).Build(d); err == nil {
		t.Fatal("negative depth accepted")
	}
	if _, err := (Config{CacheMB: -1}).Build(d); err == nil {
		t.Fatal("negative budget accepted")
	}
	if _, err := New(nil, nil, nil); err == nil {
		t.Fatal("nil device accepted")
	}
	if _, err := (Config{}).Build(nil); err == nil {
		t.Fatal("nil device accepted by Build")
	}
	if _, err := New(d, []sched.Option{sched.WithDepth(0)}, nil); err == nil {
		t.Fatal("zero explicit depth accepted")
	}
	if (Config{Depth: 4}).Passthrough() {
		t.Fatal("depth-4 config reported as passthrough")
	}
	if s := (Config{}).String(); s == "" {
		t.Fatal("empty description")
	}
}
