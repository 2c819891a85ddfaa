package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"time"

	"traxtents"
	"traxtents/internal/device"
	"traxtents/internal/device/faults"
	"traxtents/internal/device/ftl"
	"traxtents/internal/device/stack"
	"traxtents/internal/device/trace"
	"traxtents/internal/device/zoned"
	"traxtents/internal/disk/sim"
	"traxtents/internal/volume"
	"traxtents/internal/workload/driver"
)

// window is what one measured window produced. Everything in it but
// the host-side figures the caller adds is deterministic for a seed.
type window struct {
	requests int
	failed   int
	// Sim response quantiles as the program reports them, over samples
	// completions.
	p50, p99, p9999 float64
	samples         int
	// lastArrival and lastDone bound the window in sim time, from its
	// first arrival: a done time far past the last arrival is a growing
	// backlog.
	lastArrival, lastDone float64
	// counts are exact per-layer counter deltas over the window.
	counts map[string]float64
}

// setupParts times the set-up steps that have per-layer metrics.
type setupParts struct {
	decodeMs, newPlayerMs, replayNewMs float64
}

// system is one workload built and warmed, ready to measure.
type system interface {
	// measure runs the window. tr is non-nil on traced runs.
	measure(tr *tracer) (window, error)
}

// workload makes its seeded inputs once (prepare) and builds a fresh
// system from them for every repetition (setup). tr is non-nil when
// the system is built with timing wrappers.
type workload interface {
	prepare(seed int64) error
	setup(tr *tracer, parts *setupParts) (system, error)
	// requests is the window length, fixed by the inputs.
	requests() int
}

var workloads = map[string]func() workload{
	"replay-player": func() workload { return &replayPlayer{} },
	"replay-array":  func() workload { return &replayArray{} },
	"tenants-flash": func() workload { return &tenantsFlash{} },
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// replayWindow turns a replay run into the window's sim figures.
func replayWindow(m traxtents.ReplayMetrics, tr traxtents.Trace) window {
	return window{
		requests:    m.Requests,
		p50:         m.P50ResponseMs,
		p99:         m.P99ResponseMs,
		p9999:       m.P9999ResponseMs,
		samples:     m.Requests,
		lastArrival: tr.Records[len(tr.Records)-1].Issue - tr.Records[0].Issue,
		lastDone:    m.MakespanMs,
		counts:      map[string]float64{"replay.window_barriers": float64(m.WindowBarriers)},
	}
}

// ---- replay-player ----

// replayPlayer decodes a TRXB capture and replays it strictly over
// trace.Player through the passthrough stack.
type replayPlayer struct {
	data []byte
	n    int
}

const (
	playerRequests = 500_000
	playerGapMs    = 15
)

func (w *replayPlayer) requests() int { return w.n }

func (w *replayPlayer) prepare(seed int64) error {
	w.n = playerRequests
	data, err := traxtents.EncodeTraceBinary(playerCapture(seed, w.n, playerGapMs))
	w.data = data
	fmt.Printf("inputs: %d-record capture, %d TRXB bytes, mean arrival gap %d ms, recorded services 2-10 ms\n",
		w.n, len(data), playerGapMs)
	return err
}

type playerSystem struct {
	tr     traxtents.Trace
	player *trace.Player
	replay *driver.Replay
}

func (w *replayPlayer) setup(tr *tracer, parts *setupParts) (system, error) {
	t := time.Now()
	capture, err := traxtents.DecodeTraceBinary(w.data)
	if err != nil {
		return nil, err
	}
	parts.decodeMs = msSince(t)
	t = time.Now()
	p, err := traxtents.NewTraceDevice(capture, traxtents.StrictReplay())
	if err != nil {
		return nil, err
	}
	parts.newPlayerMs = msSince(t)
	var base device.Device = p
	if tr != nil {
		base = &timed{inner: p, t: tr, layer: layerTrace}
	}
	st, err := traxtents.NewDeviceStack(base, nil, nil)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	r, err := traxtents.NewTraceReplay(st, capture, traxtents.ReplayConfig{})
	if err != nil {
		return nil, err
	}
	parts.replayNewMs = msSince(t)
	return &playerSystem{tr: capture, player: p, replay: r}, nil
}

func (s *playerSystem) measure(tr *tracer) (window, error) {
	misses := s.player.Misses()
	tr.begin(layerStack)
	m, err := s.replay.Run()
	tr.end()
	if err != nil {
		return window{}, err
	}
	w := replayWindow(m, s.tr)
	w.counts["trace.player_misses"] = float64(s.player.Misses() - misses)
	w.failed = s.player.Misses() - misses
	return w, nil
}

// ---- replay-array ----

// replayArray replays a capture against simulated disks through the
// deepest disk composition: 8 MB host cache with whole-track readahead
// → C-LOOK at depth 8 → traxtent-striped 4-disk RAID-5 → passthrough
// fault injector per child → sim.
type replayArray struct {
	warm, main []byte
	n          int
}

const (
	arrayModel    = "Quantum-Atlas10KII"
	arrayDisks    = 4
	arrayCacheMB  = 8
	arrayRequests = 1_000_000
	arrayWarm     = 20_000
)

func (w *replayArray) requests() int { return w.n }

// arrayCapacity builds the array once to learn its capacity; the
// capture is synthesized against it.
func arrayCapacity() (int64, error) {
	arr, _, _, err := buildArray(nil)
	if err != nil {
		return 0, err
	}
	return arr.Capacity(), nil
}

func (w *replayArray) prepare(seed int64) error {
	capacity, err := arrayCapacity()
	if err != nil {
		return err
	}
	sh := arrayShape{
		capacity:   capacity,
		hotSectors: 6 << 20 / 512, // 6 MB: 0.75x the host cache
		hotFrac:    0.9,
		writeFrac:  0.25,
		ratePerSec: 100,
	}
	rng := rand.New(rand.NewSource(seed))
	w.n = arrayRequests
	if w.warm, err = traxtents.EncodeTraceBinary(arrayCapture(rng, sh, arrayWarm)); err != nil {
		return err
	}
	w.main, err = traxtents.EncodeTraceBinary(arrayCapture(rng, sh, w.n))
	fmt.Printf("inputs: %d warm-up + %d measured records over %d sectors, %.0f%% in a %d-sector hot set, %.0f%% writes, %g req/s\n",
		arrayWarm, w.n, sh.capacity, 100*sh.hotFrac, sh.hotSectors, 100*sh.writeFrac, sh.ratePerSec)
	return err
}

// buildArray composes striped(RAID-5) over a fault injector per disk.
// With a tracer each layer boundary gets a timing wrapper.
func buildArray(tr *tracer) (device.Device, []*sim.Disk, []*faults.Injector, error) {
	m, err := traxtents.DiskModel(arrayModel)
	if err != nil {
		return nil, nil, nil, err
	}
	children := make([]device.Device, arrayDisks)
	disks := make([]*sim.Disk, arrayDisks)
	injs := make([]*faults.Injector, arrayDisks)
	for i := range children {
		d, err := traxtents.NewDisk(m, traxtents.WithSeed(int64(i+1)))
		if err != nil {
			return nil, nil, nil, err
		}
		disks[i] = d
		var under device.Device = d
		if tr != nil {
			under = &timed{inner: d, t: tr, layer: layerSim}
		}
		inj, err := traxtents.NewFaultyDevice(under)
		if err != nil {
			return nil, nil, nil, err
		}
		injs[i] = inj
		children[i] = inj
		if tr != nil {
			children[i] = &timed{inner: inj, t: tr, layer: layerFaults}
		}
	}
	arr, err := traxtents.NewStripedDevice(children, traxtents.WithParity())
	if err != nil {
		return nil, nil, nil, err
	}
	if tr != nil {
		return &timed{inner: arr, t: tr, layer: layerStriped}, disks, injs, nil
	}
	return arr, disks, injs, nil
}

type arraySystem struct {
	tr     traxtents.Trace
	st     *stack.Stack
	disks  []*sim.Disk
	injs   []*faults.Injector
	replay *driver.Replay
}

func (w *replayArray) setup(tr *tracer, parts *setupParts) (system, error) {
	t := time.Now()
	warm, err := traxtents.DecodeTraceBinary(w.warm)
	if err != nil {
		return nil, err
	}
	capture, err := traxtents.DecodeTraceBinary(w.main)
	if err != nil {
		return nil, err
	}
	parts.decodeMs = msSince(t)
	arr, disks, injs, err := buildArray(tr)
	if err != nil {
		return nil, err
	}
	st, err := traxtents.NewDeviceStack(arr,
		[]traxtents.QueueOption{traxtents.WithQueueDepth(8), traxtents.WithScheduler(traxtents.SchedulerCLOOK())},
		[]traxtents.CacheOption{traxtents.WithCacheMB(arrayCacheMB), traxtents.WithReadahead(true)})
	if err != nil {
		return nil, err
	}
	// Warm-up: replay until the host cache is full, so the window
	// measures the steady state and not the cold fills.
	wr, err := traxtents.NewTraceReplay(st, warm, traxtents.ReplayConfig{})
	if err != nil {
		return nil, err
	}
	for i := 0; st.Stats().Evictions == 0; i++ {
		if i == 20 {
			return nil, fmt.Errorf("host cache holds %d of %d sectors after %d warm-up replays",
				st.CachedSectors(), st.CapacitySectors(), i)
		}
		if _, err := wr.Run(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	t = time.Now()
	r, err := traxtents.NewTraceReplay(st, capture, traxtents.ReplayConfig{})
	if err != nil {
		return nil, err
	}
	parts.replayNewMs = msSince(t)
	return &arraySystem{tr: capture, st: st, disks: disks, injs: injs, replay: r}, nil
}

func (s *arraySystem) simStats() (st sim.Stats) {
	for _, d := range s.disks {
		x := d.Stats()
		st.Requests += x.Requests
		st.CacheHits += x.CacheHits
		st.HeadBusy += x.HeadBusy
		st.Transfer += x.Transfer
	}
	return st
}

func (s *arraySystem) served() (n int) {
	for _, in := range s.injs {
		n += in.Stats().Served
	}
	return n
}

func (s *arraySystem) measure(tr *tracer) (window, error) {
	c0, q0, d0, f0 := s.st.Stats(), s.st.Queue().Stats(), s.simStats(), s.served()
	tr.begin(layerStack)
	m, err := s.replay.Run()
	tr.end()
	if err != nil {
		return window{}, err
	}
	c1, q1, d1, f1 := s.st.Stats(), s.st.Queue().Stats(), s.simStats(), s.served()
	w := replayWindow(m, s.tr)
	n := float64(m.Requests)
	w.counts["cache.hit_rate"] = float64(c1.Hits-c0.Hits) / float64(max(1, (c1.Hits-c0.Hits)+(c1.Misses-c0.Misses)))
	w.counts["cache.fill_sectors_per_req"] = float64(c1.FillSectors-c0.FillSectors) / n
	w.counts["cache.readahead_sectors_per_req"] = float64(c1.ReadaheadSectors-c0.ReadaheadSectors) / n
	w.counts["cache.evictions_per_kreq"] = float64(c1.Evictions-c0.Evictions) / n * 1000
	w.counts["sched.mean_pending"] = float64(q1.PendingAtDispatchSum-q0.PendingAtDispatchSum) /
		float64(max(1, q1.Dispatched-q0.Dispatched))
	w.counts["sched.max_pending"] = float64(q1.MaxPending)
	w.counts["sim.efficiency"] = (d1.Transfer - d0.Transfer) / (d1.HeadBusy - d0.HeadBusy)
	w.counts["sim.fw_hit_rate"] = float64(d1.CacheHits-d0.CacheHits) / float64(d1.Requests-d0.Requests)
	w.counts["sim.calls_per_req"] = float64(d1.Requests-d0.Requests) / n
	w.counts["striped.child_calls_per_req"] = float64(f1-f0) / n
	return w, nil
}

// ---- tenants-flash ----

// tenantsFlash serves 64 tenants on the fair volume tier at depth 8
// over two FTL-over-flash shards, after a prefill that brings write
// amplification to its steady state.
type tenantsFlash struct {
	shape      tenantShape
	warm, main []tenantReq
	names      []string
}

const (
	flashShards    = 2
	flashSectors   = 128 * 1024 // 64 MiB per shard: 128 erase blocks
	flashTenants   = 64
	flashRequests  = 1_000_000
	flashWarmChunk = 16_384
	flashWarmMax   = 48 // chunks
	flashWindow    = 4096
)

func (w *tenantsFlash) requests() int { return len(w.main) }

func (w *tenantsFlash) prepare(seed int64) error {
	w.shape = tenantShape{
		tenants:       flashTenants,
		volumeSectors: 2 * 1024, // two erase blocks each: 57% of the logical space
		writeFrac:     0.6,
		ratePerSec:    900,
	}
	rng := rand.New(rand.NewSource(seed))
	w.warm = tenantStream(rng, w.shape, flashWarmChunk*flashWarmMax)
	w.main = tenantStream(rng, w.shape, flashRequests)
	fmt.Printf("inputs: %d tenants x %d sectors on %d shards of %d flash sectors, %.0f%% overwrites, %g req/s; up to %d warm-up + %d measured requests\n",
		w.shape.tenants, w.shape.volumeSectors, flashShards, flashSectors, 100*w.shape.writeFrac, w.shape.ratePerSec, len(w.warm), len(w.main))
	w.names = make([]string, w.shape.tenants)
	for i := range w.names {
		w.names[i] = fmt.Sprintf("tenant-%02d", i)
	}
	return nil
}

type flashSystem struct {
	w    *tenantsFlash
	mgr  *volume.Manager
	ftls []*ftl.FTL
	t0   float64 // the window's first arrival, sim ms
}

// manager builds a fair-tier manager over the shards with every tenant
// volume added; placement is deterministic, so two managers over the
// same shards place every tenant identically.
func (w *tenantsFlash) manager(shards []device.Device) (*volume.Manager, error) {
	m, err := traxtents.NewVolumeManager(shards, traxtents.WithVolumeTier("fair"), traxtents.WithVolumeTierDepth(8))
	if err != nil {
		return nil, err
	}
	for _, name := range w.names {
		if _, err := m.AddVolume(name, w.shape.volumeSectors); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// drive submits reqs with arrivals offset by t0, draining every
// flashWindow requests; it returns how many were attempted.
func (w *tenantsFlash) drive(m *volume.Manager, reqs []tenantReq, t0 float64, tr *tracer) (int, error) {
	for i, r := range reqs {
		tr.begin(layerVolume)
		err := m.Submit(w.names[r.tenant], t0+r.at, device.Request{LBN: r.lbn, Sectors: int(r.sectors), Write: r.write})
		if err == nil && (i+1)%flashWindow == 0 {
			err = m.Drain()
		}
		tr.end()
		if err != nil {
			return i + 1, fmt.Errorf("request %d: %w", i, err)
		}
	}
	tr.begin(layerVolume)
	err := m.Drain()
	tr.end()
	return len(reqs), err
}

func ftlTotals(fs []*ftl.FTL) (s ftl.Stats) {
	for _, f := range fs {
		x := f.Stats()
		s.DemandPages += x.DemandPages
		s.CopiedPages += x.CopiedPages
		s.Erases += x.Erases
		s.GCRuns += x.GCRuns
	}
	return s
}

func ftlWriteAmp(a, b ftl.Stats) float64 {
	return float64(b.DemandPages-a.DemandPages+b.CopiedPages-a.CopiedPages) / float64(b.DemandPages-a.DemandPages)
}

func shardsNow(fs []*ftl.FTL) float64 {
	t := 0.0
	for _, f := range fs {
		t = max(t, f.Now())
	}
	return t
}

func (w *tenantsFlash) setup(tr *tracer, _ *setupParts) (system, error) {
	shards := make([]device.Device, flashShards)
	ftls := make([]*ftl.FTL, flashShards)
	for i := range shards {
		fl, err := traxtents.NewFlashDevice(flashSectors)
		if err != nil {
			return nil, err
		}
		var under device.Device = fl
		if tr != nil {
			under = &timedFlash{timed: timed{inner: fl, t: tr, layer: layerZoned}, f: fl}
		}
		f, err := traxtents.NewFTLDevice(under)
		if err != nil {
			return nil, err
		}
		ftls[i] = f
		shards[i] = f
		if tr != nil {
			shards[i] = &timed{inner: f, t: tr, layer: layerFTL}
		}
	}
	// Prefill: every logical sector written once, whole erase blocks at
	// a time, so every later write is an overwrite.
	for _, f := range ftls {
		for lbn := int64(0); lbn < f.Capacity(); lbn += 1024 {
			if _, err := f.Serve(f.Now(), device.Request{LBN: lbn, Sectors: 1024, Write: true}); err != nil {
				return nil, fmt.Errorf("prefill: %w", err)
			}
		}
	}
	// Warm-up: the workload's own mix on a throwaway manager until write
	// amplification per chunk has levelled off.
	warm, err := w.manager(shards)
	if err != nil {
		return nil, err
	}
	prevWA := 0.0
	levelled := false
	for k := 0; k < flashWarmMax && !levelled; k++ {
		s0 := ftlTotals(ftls)
		chunk := w.warm[k*flashWarmChunk : (k+1)*flashWarmChunk]
		if _, err := w.drive(warm, chunk, shardsNow(ftls)-chunk[0].at, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		wa := ftlWriteAmp(s0, ftlTotals(ftls))
		levelled = k >= 3 && math.Abs(wa-prevWA) <= 0.02*prevWA
		prevWA = wa
	}
	if !levelled {
		return nil, fmt.Errorf("write amplification still moving after %d warm-up chunks (last %.3f)", flashWarmMax, prevWA)
	}
	m, err := w.manager(shards)
	if err != nil {
		return nil, err
	}
	for _, name := range w.names {
		a, _ := warm.Volume(name)
		b, _ := m.Volume(name)
		if !reflect.DeepEqual(a.ExtentTable(), b.ExtentTable()) {
			return nil, fmt.Errorf("tenant %s placed differently by the measured manager", name)
		}
	}
	return &flashSystem{w: w, mgr: m, ftls: ftls, t0: shardsNow(ftls)}, nil
}

func (s *flashSystem) measure(tr *tracer) (window, error) {
	f0 := ftlTotals(s.ftls)
	attempted, err := s.w.drive(s.mgr, s.w.main, s.t0, tr)
	agg := s.mgr.Aggregate()
	if err != nil {
		return window{requests: attempted, failed: attempted - agg.Requests}, err
	}
	for i, f := range s.ftls {
		if err := f.Audit(); err != nil {
			return window{}, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	f1 := ftlTotals(s.ftls)
	n := float64(attempted)
	last := s.w.main[len(s.w.main)-1].at
	return window{
		requests:    attempted,
		failed:      agg.Rejected + (attempted - agg.Requests),
		p50:         agg.P50Ms,
		p99:         agg.P99Ms,
		p9999:       agg.P9999Ms,
		samples:     agg.Requests,
		lastArrival: last,
		lastDone:    s.mgr.Now() - s.t0,
		counts: map[string]float64{
			"volume.rejected":      float64(agg.Rejected),
			"volume.deferred":      float64(agg.Deferred),
			"ftl.write_amp":        ftlWriteAmp(f0, f1),
			"ftl.gc_runs_per_kreq": float64(f1.GCRuns-f0.GCRuns) / n * 1000,
			"ftl.erases_per_kreq":  float64(f1.Erases-f0.Erases) / n * 1000,
		},
	}, nil
}

// The flash backend must offer what the FTL's garbage collector
// calls, and so must its timing wrapper.
var (
	_ flash = (*zoned.Flash)(nil)
	_ flash = (*timedFlash)(nil)
)
