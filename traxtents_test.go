package traxtents_test

import (
	"errors"
	"testing"

	"traxtents"
)

// TestPublicAPIEndToEnd exercises the facade the way a downstream user
// would: pick a model, build a disk, characterize it, align requests,
// persist the table.
func TestPublicAPIEndToEnd(t *testing.T) {
	names := traxtents.DiskModels()
	if len(names) != 7 {
		t.Fatalf("DiskModels: %v", names)
	}
	if _, err := traxtents.DiskModel("nope"); err == nil {
		t.Fatal("unknown model accepted")
	}

	m, err := traxtents.DiskModel("Quantum-Atlas10KII")
	if err != nil {
		t.Fatalf("DiskModel: %v", err)
	}
	d, err := traxtents.NewDisk(m)
	if err != nil {
		t.Fatalf("NewDisk: %v", err)
	}
	res, err := traxtents.Characterize(traxtents.NewSCSITarget(d))
	if err != nil {
		t.Fatalf("Characterize: %v", err)
	}
	table := res.Table

	truth, err := traxtents.GroundTruthTable(d)
	if err != nil {
		t.Fatalf("GroundTruthTable: %v", err)
	}
	if table.NumTracks() != truth.NumTracks() {
		t.Fatalf("characterized %d tracks, truth %d", table.NumTracks(), truth.NumTracks())
	}

	// Align a request.
	ext, err := table.Find(123456)
	if err != nil || !ext.Contains(123456) {
		t.Fatalf("Find: %v %v", ext, err)
	}
	parts, err := table.Split(ext.Start, ext.Len*3)
	if err != nil || len(parts) < 3 {
		t.Fatalf("Split: %v %v", parts, err)
	}

	// Persist and reload.
	data, err := table.MarshalBinary()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := traxtents.DecodeTable(data)
	if err != nil || back.NumTracks() != table.NumTracks() {
		t.Fatalf("DecodeTable: %v", err)
	}

	// Allocate whole-track extents.
	a := traxtents.NewAllocator(table)
	e1, ok := a.AllocNear(500000)
	if !ok {
		t.Fatal("AllocNear failed")
	}
	if err := a.Free(e1); err != nil {
		t.Fatalf("Free: %v", err)
	}

	// Issue an aligned request through the simulator.
	r, err := d.Submit(traxtents.Request{LBN: e1.Start, Sectors: int(e1.Len)})
	if err != nil || r.Done <= 0 {
		t.Fatalf("Submit: %v %v", r, err)
	}
}

// TestTableRoundTripThroughFacade drives the Table encode/decode cycle
// purely through facade entry points, boundary by boundary.
func TestTableRoundTripThroughFacade(t *testing.T) {
	d, err := traxtents.NewDisk(traxtents.MustDiskModel("Quantum-Atlas10K"),
		traxtents.WithConfig(traxtents.DiskConfig{}))
	if err != nil {
		t.Fatalf("NewDisk: %v", err)
	}
	table, err := traxtents.GroundTruthTable(d)
	if err != nil {
		t.Fatalf("GroundTruthTable: %v", err)
	}
	data, err := table.MarshalBinary()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := traxtents.DecodeTable(data)
	if err != nil {
		t.Fatalf("DecodeTable: %v", err)
	}
	want, got := table.Boundaries(), back.Boundaries()
	if len(want) != len(got) {
		t.Fatalf("round trip lost boundaries: %d != %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("boundary %d: %d != %d", i, got[i], want[i])
		}
	}
}

// TestDiskOptions checks that functional options reach the simulator.
func TestDiskOptions(t *testing.T) {
	m := traxtents.MustDiskModel("Quantum-Atlas10KII")
	d, err := traxtents.NewDisk(m,
		traxtents.WithCache(0, 0),
		traxtents.WithReadAhead(false),
		traxtents.WithBusMBps(0),
		traxtents.WithSeed(42),
	)
	if err != nil {
		t.Fatalf("NewDisk: %v", err)
	}
	if d.Cfg.CacheSegments != 0 || d.Cfg.ReadAhead || d.Cfg.BusMBps != 0 || d.Cfg.Seed != 42 {
		t.Fatalf("options not applied: %+v", d.Cfg)
	}
	// Same read twice: with the cache disabled the second is not a hit.
	r1, err := d.Serve(0, traxtents.Request{LBN: 1000, Sectors: 64})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	r2, err := d.Serve(r1.Done, traxtents.Request{LBN: 1000, Sectors: 64})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if r1.CacheHit || r2.CacheHit {
		t.Fatal("cache hit on a cache-disabled disk")
	}
}

// TestStripedDeviceFacade builds a traxtent-striped array of simulated
// disks through the facade, checks its table, and runs the FFS case
// study over it — the interface decoupling the tentpole is about.
func TestStripedDeviceFacade(t *testing.T) {
	m := traxtents.MustDiskModel("HP-C2247")
	var children []traxtents.Device
	for i := 0; i < 3; i++ {
		d, err := traxtents.NewDisk(m, traxtents.WithSeed(int64(i)))
		if err != nil {
			t.Fatalf("NewDisk: %v", err)
		}
		children = append(children, d)
	}
	arr, err := traxtents.NewStripedDevice(children)
	if err != nil {
		t.Fatalf("NewStripedDevice: %v", err)
	}
	if arr.Width() != 3 {
		t.Fatalf("Width = %d", arr.Width())
	}
	if got, each := arr.Capacity(), children[0].Capacity(); got <= each {
		t.Fatalf("array capacity %d not larger than one child's %d", got, each)
	}

	table, err := traxtents.GroundTruthTable(arr)
	if err != nil {
		t.Fatalf("GroundTruthTable(array): %v", err)
	}
	if table.NumTracks() <= 0 {
		t.Fatal("empty array table")
	}
	// Stripe units are the children's own traxtents, interleaved.
	childTable, err := traxtents.GroundTruthTable(children[0])
	if err != nil {
		t.Fatalf("GroundTruthTable(child): %v", err)
	}
	for i := 0; i < 3*arr.Width(); i++ {
		want := childTable.Index(i / arr.Width()).Len
		if got := table.Index(i).Len; got != want {
			t.Fatalf("array traxtent %d has %d sectors, want child track length %d",
				i, got, want)
		}
	}

	fs, err := traxtents.NewFFS(arr, traxtents.FFSParams{
		Variant: traxtents.FFSTraxtent, Table: table,
	})
	if err != nil {
		t.Fatalf("NewFFS over array: %v", err)
	}
	f, err := fs.Create("striped")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := int64(0); i < 64; i++ {
		if err := fs.Write(f, i); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	fs.Sync()
	for i := int64(0); i < 64; i++ {
		if err := fs.Read(f, i); err != nil {
			t.Fatalf("Read: %v", err)
		}
	}
	if fs.Now() <= 0 {
		t.Fatal("no time elapsed on the array")
	}
}

// TestTraceDeviceFacade records a workload from a simulated disk, then
// replays it through a trace device with no simulator behind it.
func TestTraceDeviceFacade(t *testing.T) {
	d, err := traxtents.NewDisk(traxtents.MustDiskModel("HP-C2247"))
	if err != nil {
		t.Fatalf("NewDisk: %v", err)
	}
	rec := traxtents.NewRecorder(d)
	reqs := []traxtents.Request{
		{LBN: 0, Sectors: 96}, {LBN: 4096, Sectors: 32},
		{LBN: 96, Sectors: 96, Write: true}, {LBN: 4096, Sectors: 32},
	}
	var want []float64
	at := 0.0
	for _, r := range reqs {
		res, err := rec.Serve(at, r)
		if err != nil {
			t.Fatalf("record Serve: %v", err)
		}
		want = append(want, res.Done-res.Start)
		at = res.Done
	}

	// Persist the trace as JSON and bring it back.
	data, err := rec.Trace().Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	tr, err := traxtents.DecodeTrace(data)
	if err != nil {
		t.Fatalf("DecodeTrace: %v", err)
	}
	p, err := traxtents.NewTraceDevice(tr, traxtents.StrictReplay())
	if err != nil {
		t.Fatalf("NewTraceDevice: %v", err)
	}
	if p.Capacity() != d.Capacity() || p.SectorSize() != d.SectorSize() {
		t.Fatalf("trace identity mismatch: %d/%d vs %d/%d",
			p.Capacity(), p.SectorSize(), d.Capacity(), d.SectorSize())
	}

	// Replay reproduces the recorded service times.
	at = 0.0
	for i, r := range reqs {
		res, err := p.Serve(at, r)
		if err != nil {
			t.Fatalf("replay Serve: %v", err)
		}
		if got := res.Done - res.Start; got != want[i] {
			t.Fatalf("request %d: replayed service %g, recorded %g", i, got, want[i])
		}
		at = res.Done
	}
	// Strict replay refuses requests the trace never saw.
	if _, err := p.Serve(at, traxtents.Request{LBN: 12345, Sectors: 8}); err == nil {
		t.Fatal("strict replay served an untraced request")
	}

	// The trace carries boundaries, so a table still works without the
	// simulator.
	table, err := traxtents.GroundTruthTable(p)
	if err != nil {
		t.Fatalf("GroundTruthTable(trace): %v", err)
	}
	if table.NumTracks() <= 0 {
		t.Fatal("empty trace table")
	}
}

// TestFacadeFFS builds a traxtent-aware FS through the facade.
func TestFacadeFFS(t *testing.T) {
	m, err := traxtents.DiskModel("Quantum-Atlas10K")
	if err != nil {
		t.Fatalf("DiskModel: %v", err)
	}
	d, err := traxtents.NewDisk(m)
	if err != nil {
		t.Fatalf("NewDisk: %v", err)
	}
	table, err := traxtents.GroundTruthTable(d)
	if err != nil {
		t.Fatalf("table: %v", err)
	}
	fs, err := traxtents.NewFFS(d, traxtents.FFSParams{
		Variant: traxtents.FFSTraxtent, Table: table,
	})
	if err != nil {
		t.Fatalf("NewFFS: %v", err)
	}
	f, err := fs.Create("hello")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := int64(0); i < 64; i++ {
		if err := fs.Write(f, i); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	fs.Sync()
	for i := int64(0); i < 64; i++ {
		if err := fs.Read(f, i); err != nil {
			t.Fatalf("Read: %v", err)
		}
	}
	if fs.Now() <= 0 {
		t.Fatal("no time elapsed")
	}
}

// TestQueuedDeviceFacade drives the queueing layer the way a downstream
// user would: wrap a disk in a scheduling queue, build a traxtent table
// straight through it (capability forwarding), serve aligned requests,
// and run a concurrent burst through Submit/Drain.
func TestQueuedDeviceFacade(t *testing.T) {
	d, err := traxtents.NewDisk(traxtents.MustDiskModel("Quantum-Atlas10KII"), traxtents.WithSeed(3))
	if err != nil {
		t.Fatalf("NewDisk: %v", err)
	}
	s, err := traxtents.SchedulerTraxtent(d)
	if err != nil {
		t.Fatalf("SchedulerTraxtent: %v", err)
	}
	q, err := traxtents.NewQueuedDevice(d, traxtents.WithQueueDepth(8), traxtents.WithScheduler(s))
	if err != nil {
		t.Fatalf("NewQueuedDevice: %v", err)
	}

	// The queue forwards boundaries: tables build through it.
	table, err := traxtents.GroundTruthTable(q)
	if err != nil {
		t.Fatalf("GroundTruthTable through queue: %v", err)
	}
	ext, err := table.Find(123456)
	if err != nil {
		t.Fatalf("Find: %v", err)
	}

	// Sequential use: the queue is a Device.
	res, err := q.Serve(0, traxtents.Request{LBN: ext.Start, Sectors: int(ext.Len)})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if res.Done <= 0 {
		t.Fatalf("no time elapsed: %+v", res)
	}

	// Concurrent use: a queued burst drains completely, in scheduler
	// order, with every response accounting its queue wait.
	at := q.Now()
	for i := 0; i < 32; i++ {
		req := traxtents.Request{LBN: int64(i%7) * 1_000_000, Sectors: 128}
		if _, err := q.Submit(at, req); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	cs, err := q.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if len(cs) != 32 {
		t.Fatalf("drained %d of 32", len(cs))
	}
	for _, c := range cs {
		if c.Res.Response() <= 0 {
			t.Fatalf("completion %d: response %g", c.Seq, c.Res.Response())
		}
	}

	// SchedulerByName resolves every built-in policy.
	for _, name := range []string{"fcfs", "sstf", "clook", "traxtent"} {
		if _, err := traxtents.SchedulerByName(name, d); err != nil {
			t.Fatalf("SchedulerByName(%q): %v", name, err)
		}
	}

	// Striped arrays compose per-child queues through the facade.
	var children []traxtents.Device
	for i := 0; i < 2; i++ {
		c, err := traxtents.NewDisk(traxtents.MustDiskModel("HP-C2247"), traxtents.WithSeed(int64(i)))
		if err != nil {
			t.Fatalf("NewDisk child: %v", err)
		}
		children = append(children, c)
	}
	arr, err := traxtents.NewStripedDevice(children,
		traxtents.WithQueuedChildren(traxtents.WithQueueDepth(4), traxtents.WithScheduler(traxtents.SchedulerSSTF())))
	if err != nil {
		t.Fatalf("NewStripedDevice: %v", err)
	}
	if _, err := arr.Serve(0, traxtents.Request{LBN: 0, Sectors: 64}); err != nil {
		t.Fatalf("striped serve: %v", err)
	}
}

// TestCachedDeviceFacade: the host cache builds through the facade,
// forwards capabilities, prefetches whole tracks, and composes into
// the canonical queue → cache → disk stack.
func TestCachedDeviceFacade(t *testing.T) {
	d, err := traxtents.NewDisk(traxtents.MustDiskModel("HP-C2247"), traxtents.WithSeed(4))
	if err != nil {
		t.Fatalf("NewDisk: %v", err)
	}
	c, err := traxtents.NewCachedDevice(d,
		traxtents.WithCacheMB(2),
		traxtents.WithReadahead(true),
		traxtents.WithWriteBack(true),
		traxtents.WithSegmentedLRU(true))
	if err != nil {
		t.Fatalf("NewCachedDevice: %v", err)
	}

	// The cache forwards boundaries: tables build through it.
	table, err := traxtents.GroundTruthTable(c)
	if err != nil {
		t.Fatalf("GroundTruthTable through cache: %v", err)
	}
	ext, err := table.Find(0)
	if err != nil {
		t.Fatalf("Find: %v", err)
	}

	// A sub-track read promotes to a whole-track fill; the rest of the
	// track then hits.
	res, err := c.Serve(0, traxtents.Request{LBN: ext.Start, Sectors: 8})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	hit, err := c.Serve(res.Done, traxtents.Request{LBN: ext.Start, Sectors: int(ext.Len)})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if !hit.CacheHit {
		t.Fatalf("whole-track re-read missed: %+v", hit)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.HitRate() != 0.5 {
		t.Fatalf("cache stats %+v", st)
	}

	// Write-back absorbs, FlushDirty writes back.
	w, err := c.Serve(hit.Done, traxtents.Request{LBN: ext.Start, Sectors: 8, Write: true})
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if !w.CacheHit {
		t.Fatalf("write-back write not absorbed: %+v", w)
	}
	if err := c.FlushDirty(w.Done); err != nil {
		t.Fatalf("FlushDirty: %v", err)
	}
	if got := c.Stats().FlushWrites; got != 1 {
		t.Fatalf("%d flush writes, want 1", got)
	}

	// The canonical stack: queue over cache over disk.
	inner, err := traxtents.NewDisk(traxtents.MustDiskModel("HP-C2247"), traxtents.WithSeed(5))
	if err != nil {
		t.Fatalf("NewDisk: %v", err)
	}
	cached, err := traxtents.NewCachedDevice(inner, traxtents.WithCacheSectors(0))
	if err != nil {
		t.Fatalf("NewCachedDevice: %v", err)
	}
	if !cached.Bypass() {
		t.Fatal("zero-size cache not in bypass mode")
	}
	q, err := traxtents.NewQueuedDevice(cached,
		traxtents.WithQueueDepth(4), traxtents.WithScheduler(traxtents.SchedulerSSTF()))
	if err != nil {
		t.Fatalf("NewQueuedDevice: %v", err)
	}
	at := 0.0
	for i := 0; i < 16; i++ {
		if _, err := q.Submit(at, traxtents.Request{LBN: int64(i%5) * 50_000, Sectors: 64}); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		at += 0.5
	}
	cs, err := q.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if len(cs) != 16 {
		t.Fatalf("drained %d of 16", len(cs))
	}
}

// TestFaultAndRebuildFacade exercises the failure subsystem through
// the public facade: typed injected faults, write healing, a parity
// array surviving a lost child, a scrub pass repairing latent errors,
// and a rebuild competing with foreground load through the composed
// cache + queue stack.
func TestFaultAndRebuildFacade(t *testing.T) {
	m := traxtents.MustDiskModel("HP-C2247")
	newDisk := func(seed int64) traxtents.Device {
		d, err := traxtents.NewDisk(m, traxtents.WithSeed(seed))
		if err != nil {
			t.Fatalf("NewDisk: %v", err)
		}
		return d
	}

	// Injected medium errors are typed, leave the clock untouched, and
	// heal under writes.
	in, err := traxtents.NewFaultyDevice(newDisk(1),
		traxtents.WithFaultSeed(3), traxtents.WithBadRange(100, 16))
	if err != nil {
		t.Fatalf("NewFaultyDevice: %v", err)
	}
	if _, err := in.Serve(0, traxtents.Request{LBN: 100, Sectors: 8}); err == nil {
		t.Fatal("read of a bad range succeeded")
	} else if !errors.Is(err, traxtents.ErrMedium) || !traxtents.IsFault(err) || traxtents.IsTransient(err) {
		t.Fatalf("bad-range read returned %v, want a non-transient ErrMedium fault", err)
	}
	if in.Now() != 0 {
		t.Fatalf("failed request advanced the clock to %g", in.Now())
	}
	w, err := in.Serve(0, traxtents.Request{LBN: 96, Sectors: 32, Write: true})
	if err != nil {
		t.Fatalf("healing write: %v", err)
	}
	if _, err := in.Serve(w.Done, traxtents.Request{LBN: 100, Sectors: 8}); err != nil {
		t.Fatalf("read after healing write: %v", err)
	}

	// A parity array serves degraded reads under single-disk loss.
	var children []traxtents.Device
	for i := int64(10); i < 13; i++ {
		children = append(children, newDisk(i))
	}
	arr, err := traxtents.NewStripedDevice(children, traxtents.WithParity())
	if err != nil {
		t.Fatalf("NewStripedDevice(WithParity): %v", err)
	}
	if !arr.Parity() {
		t.Fatal("Parity() false on a parity array")
	}
	if err := arr.Lose(1); err != nil {
		t.Fatalf("Lose: %v", err)
	}
	if _, err := arr.Serve(arr.Now(), traxtents.Request{LBN: 0, Sectors: 64}); err != nil {
		t.Fatalf("degraded read: %v", err)
	}

	// ScrubArray finds and repairs latent errors on a healthy child.
	fchild, err := traxtents.NewFaultyDevice(newDisk(21),
		traxtents.WithFaultSeed(5), traxtents.WithLatentErrors(4, 8))
	if err != nil {
		t.Fatalf("NewFaultyDevice: %v", err)
	}
	arr2, err := traxtents.NewStripedDevice(
		[]traxtents.Device{fchild, newDisk(22), newDisk(23)}, traxtents.WithParity())
	if err != nil {
		t.Fatalf("NewStripedDevice: %v", err)
	}
	rep, err := traxtents.ScrubArray(arr2, arr2.Now())
	if err != nil {
		t.Fatalf("ScrubArray: %v", err)
	}
	if rep.Repairs == 0 || rep.Reconstructs < rep.Repairs {
		t.Fatalf("scrub repaired nothing: %+v", rep)
	}

	// Rebuild under foreground load through the cache + queue stack.
	c, err := traxtents.NewCachedDevice(arr, traxtents.WithCacheMB(2))
	if err != nil {
		t.Fatalf("NewCachedDevice: %v", err)
	}
	q, err := traxtents.NewQueuedDevice(c,
		traxtents.WithQueueDepth(4), traxtents.WithScheduler(traxtents.SchedulerCLOOK()))
	if err != nil {
		t.Fatalf("NewQueuedDevice: %v", err)
	}
	mt, err := traxtents.RebuildUnderLoad(q, arr, newDisk(30),
		traxtents.ForegroundLoad{
			Workload:   traxtents.DriverWorkload{Requests: 40, IOSectors: 16, Seed: 2},
			RatePerSec: 50,
		},
		traxtents.RebuildConfig{TrackAligned: true, MaxUnits: 6})
	if err != nil {
		t.Fatalf("RebuildUnderLoad: %v", err)
	}
	if mt.Units != 6 || mt.Requests != 6 {
		t.Fatalf("track-aligned rebuild issued %d requests over %d units, want 6/6", mt.Requests, mt.Units)
	}
	if mt.RebuildMs <= 0 || mt.RebuildMBPerSec <= 0 || mt.ForegroundRequests != 40 {
		t.Fatalf("implausible rebuild metrics: %+v", mt)
	}
}

// TestZonedFacade exercises the flash-era surface end to end through
// the public API: flash → zoned wrapper → zone protocol, the FTL over
// flash, zone segments feeding the LFS, and the zone-aware scheduler
// by name.
func TestZonedFacade(t *testing.T) {
	f, err := traxtents.NewFlashDevice(64*1024, traxtents.WithEraseSectors(512))
	if err != nil {
		t.Fatalf("NewFlashDevice: %v", err)
	}
	z, err := traxtents.NewZonedDevice(f, traxtents.WithZones(16), traxtents.WithMaxOpenZones(4))
	if err != nil {
		t.Fatalf("NewZonedDevice: %v", err)
	}

	// The zone protocol: a write at the pointer advances it, one past
	// the pointer is a typed, non-fault violation with the clock frozen.
	res, err := z.Serve(0, traxtents.Request{LBN: 0, Sectors: 64, Write: true})
	if err != nil {
		t.Fatalf("write at the pointer: %v", err)
	}
	if _, err := z.Serve(res.Done, traxtents.Request{LBN: 128, Sectors: 8, Write: true}); err == nil {
		t.Fatal("write past the pointer succeeded")
	} else if !errors.Is(err, traxtents.ErrZoneViolation) || traxtents.IsFault(err) {
		t.Fatalf("out-of-protocol write returned %v, want a non-fault ErrZoneViolation", err)
	}
	var de *traxtents.DeviceError
	if err := func() error {
		_, err := z.Serve(res.Done, traxtents.Request{LBN: 128, Sectors: 8, Write: true})
		return err
	}(); !errors.As(err, &de) || de.Req.LBN != 128 {
		t.Fatalf("violation not a DeviceError carrying the request: %v", err)
	}
	if z.Now() != res.Done {
		t.Fatalf("violation advanced the clock to %g", z.Now())
	}

	// ZonedOf finds the capability through the composed stack.
	st, err := traxtents.NewDeviceStack(z, nil, nil)
	if err != nil {
		t.Fatalf("NewDeviceStack: %v", err)
	}
	zc, ok := traxtents.ZonedOf(st)
	if !ok {
		t.Fatal("ZonedOf failed through the stack")
	}
	if wp := zc.WritePointer(0); wp != 64 {
		t.Fatalf("write pointer %d, want 64", wp)
	}
	if open, max := zc.OpenZones(); open != 1 || max != 4 {
		t.Fatalf("OpenZones = %d/%d, want 1/4", open, max)
	}

	// Zone segments feed the LFS; the zone-aware scheduler resolves by
	// name and through SchedulerZoned.
	segs, err := traxtents.ZoneSegments(z)
	if err != nil {
		t.Fatalf("ZoneSegments: %v", err)
	}
	if len(segs) != 16 {
		t.Fatalf("%d zone segments, want 16", len(segs))
	}
	if _, err := traxtents.SchedulerZoned(z); err != nil {
		t.Fatalf("SchedulerZoned: %v", err)
	}
	if _, err := traxtents.SchedulerByName("zoned", z); err != nil {
		t.Fatalf(`SchedulerByName("zoned"): %v`, err)
	}

	// The FTL over flash: identity until GC, erase blocks as its
	// boundary table.
	l, err := traxtents.NewFTLDevice(f, traxtents.WithPageSectors(8), traxtents.WithReserveBlocks(4))
	if err != nil {
		t.Fatalf("NewFTLDevice: %v", err)
	}
	if _, err := l.Serve(l.Now(), traxtents.Request{LBN: 0, Sectors: 512, Write: true}); err != nil {
		t.Fatalf("FTL write: %v", err)
	}
	if amp := l.Stats().WriteAmp(); amp != 1 {
		t.Fatalf("fresh FTL write amp %g, want 1", amp)
	}
	tab, err := traxtents.GroundTruthTable(l)
	if err != nil {
		t.Fatalf("GroundTruthTable(FTL): %v", err)
	}
	if tab.Index(0).Len != 512 {
		t.Fatalf("FTL boundary extent %d sectors, want the 512-sector erase block", tab.Index(0).Len)
	}
}
