package video

import (
	"fmt"
	"math/rand"

	"traxtents/internal/device"
	"traxtents/internal/device/stack"
	"traxtents/internal/disk/model"
	"traxtents/internal/stats"
	"traxtents/internal/traxtent"
	"traxtents/internal/workload/driver"
)

// Config describes the server.
type Config struct {
	Model       string  // disk model (default Quantum-Atlas10KII)
	Disks       int     // array width (default 10)
	BitRateMbps float64 // per-stream rate (default 4)
	DeadlineQ   float64 // deadline-miss quantile (default 0.9999)
	Rounds      int     // Monte-Carlo rounds per configuration (default 1000)
	Seed        int64
	// NewDevice overrides the storage backend: it is called once per
	// Monte-Carlo measurement and must return a fresh device in a
	// deterministic state. When nil, a simulated disk of the configured
	// Model with its default firmware setup is used. HardRealTime is
	// analytic and always uses the Model's mechanical parameters.
	NewDevice func() (device.Device, error)

	// Stack composes the host-side stack (cache → scheduling queue →
	// device) every Monte-Carlo round is served through. The zero value
	// is the transparent passthrough — depth-1 FCFS queue, zero-budget
	// cache — pinned bit-identical to serving the bare device by
	// differential test. A reordering window lets the device's scheduler
	// play the per-round elevator; a cache budget models popular content
	// resident at the host.
	Stack stack.Config

	// HotSetTracks restricts stream placement to the first K tracks of
	// the content region — the popular content a host cache can hold; 0
	// places streams across the whole first zone (the paper's §5.4
	// setup).
	HotSetTracks int

	// Background adds a competing small-I/O workload on the same
	// spindle (the mixed-workload mode): an FFS-style stream of small
	// requests arriving open-Poisson while the server streams.
	Background Background
}

// Background describes the mixed-workload mode's competing small-I/O
// load. While the video server issues its per-round whole-track reads,
// background requests arrive at seeded-Poisson instants within each
// round and compete for the same spindle; RoundMetrics reports their
// response times next to the round quantile.
type Background struct {
	// RatePerSec is the open arrival rate in requests/second; 0
	// disables the background load.
	RatePerSec float64
	// IOSectors sizes the background requests (default 16 = 8 KB, the
	// FFS block size).
	IOSectors int
	// WriteEvery makes every k-th background request a write; 0 means
	// reads only.
	WriteEvery int
}

func (c *Config) fill() {
	if c.Model == "" {
		c.Model = "Quantum-Atlas10KII"
	}
	if c.Disks == 0 {
		c.Disks = 10
	}
	if c.BitRateMbps == 0 {
		c.BitRateMbps = 4
	}
	if c.DeadlineQ == 0 {
		c.DeadlineQ = 0.9999
	}
	if c.Rounds == 0 {
		c.Rounds = 1000
	}
	if c.Background.RatePerSec > 0 && c.Background.IOSectors == 0 {
		c.Background.IOSectors = 16
	}
}

// bytesPerMs returns the stream consumption rate in bytes per ms.
func (c *Config) bytesPerMs() float64 { return c.BitRateMbps * 1e6 / 8 / 1000 }

// Server evaluates admission for one device of the array (streams are
// striped uniformly, so the array scales by Disks).
type Server struct {
	cfg Config
	m   model.Model

	table  *traxtent.Table // device boundary table; nil if unavailable
	tracks int             // first-zone track size in sectors

	// Content region, precomputed once from a probe device (NewDevice
	// returns identical devices): the LBN range of the first (fastest)
	// zone and the aligned track-start candidates within it. Video
	// content lives in the first zone, whose track size matches the I/O
	// size — the placement video servers use anyway (Tiger stores
	// primary copies in the outer, faster zones; paper §6). Devices with
	// a physical layout yield the exact first zone; devices that only
	// expose track boundaries approximate it with the outermost eighth
	// of the table; devices with neither cannot host the Monte Carlo
	// (starts stays nil).
	zFirst, zLast int64
	starts        []int64
}

// New creates a server evaluator.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	m, err := model.Get(cfg.Model)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, m: m}
	if s.cfg.NewDevice == nil {
		s.cfg.NewDevice = func() (device.Device, error) {
			return m.NewDisk(m.DefaultConfig())
		}
	}
	// Probe one device for its boundary table, representative (largest,
	// first-zone) track size, and content region.
	d, err := s.cfg.NewDevice()
	if err != nil {
		return nil, err
	}
	if bp, ok := d.(device.BoundaryProvider); ok {
		if b := bp.TrackBoundaries(); len(b) >= 2 {
			if t, err := traxtent.New(b); err == nil {
				s.table = t
			}
		}
	}
	if s.table != nil {
		for i := 0; i < s.table.NumTracks(); i++ {
			if l := int(s.table.Index(i).Len); l > s.tracks {
				s.tracks = l
			}
		}
	}
	s.findRegion(d)
	return s, nil
}

// Config returns the filled configuration.
func (s *Server) Config() Config { return s.cfg }

// findRegion fills the content-region fields from the probe device.
func (s *Server) findRegion(d device.Device) {
	if m, ok := d.(device.Mapped); ok {
		if lay := m.Layout(); lay != nil {
			s.zFirst, s.zLast, _ = lay.ZoneLBNRange(0)
			lastTrack := lay.G.TrackIndex(lay.G.Zones[0].LastCyl, lay.G.Surfaces-1)
			for ti := 0; ti <= lastTrack; ti++ {
				if first, count := lay.TrackRange(ti); count > 0 {
					s.starts = append(s.starts, first)
				}
			}
			return
		}
	}
	if s.table != nil {
		n := s.table.NumTracks() / 8
		if n < 1 {
			n = s.table.NumTracks()
		}
		for i := 0; i < n; i++ {
			s.starts = append(s.starts, s.table.Index(i).Start)
		}
		s.zFirst = s.table.Index(0).Start
		s.zLast = s.table.Index(n-1).End() - 1
	}
}

// region returns the effective content region for one measurement:
// the configured hot set when HotSetTracks bounds placement, the whole
// first zone otherwise, validated against the I/O size.
func (s *Server) region(ioSectors int, aligned bool) (zFirst, zLast int64, starts []int64, err error) {
	zFirst, zLast, starts = s.zFirst, s.zLast, s.starts
	if len(starts) == 0 {
		return 0, 0, nil, fmt.Errorf("video: device exposes neither a physical layout nor track boundaries")
	}
	if k := s.cfg.HotSetTracks; k > 0 && k < len(starts) {
		// Tracks 0..k-1 hold the popular content; their LBNs are
		// contiguous, so the hot span ends where track k begins.
		zLast = starts[k] - 1
		starts = starts[:k]
	}
	if aligned {
		if starts[0]+int64(ioSectors) > zLast+1 {
			return 0, 0, nil, fmt.Errorf("video: no aligned placement for %d-sector I/Os", ioSectors)
		}
	} else if zLast-zFirst+1-int64(ioSectors) <= 0 {
		return 0, 0, nil, fmt.Errorf("video: %d-sector I/Os exceed the content region", ioSectors)
	}
	return zFirst, zLast, starts, nil
}

// RoundMetrics aggregates one Monte-Carlo measurement: the round-time
// quantile the admission decision uses, the host-cache hit rate of the
// composed stack, and — in the mixed-workload mode — the response
// times of the competing background small I/Os.
type RoundMetrics struct {
	Streams   int
	IOSectors int
	Aligned   bool
	// RoundQMs is the DeadlineQ quantile of the round completion time.
	RoundQMs float64
	// RoundMeanMs is the mean round completion time.
	RoundMeanMs float64
	// CacheHitRate is the stack's host-cache demand hit rate over the
	// timed rounds — the hot-set warmup's fills are excluded, so this
	// is the steady state (0 when the cache is a zero-budget bypass).
	CacheHitRate float64
	// BgRequests counts background requests issued; BgMeanMs/BgP95Ms
	// summarize their response times (0 when Background is off).
	BgRequests int
	BgMeanMs   float64
	BgP95Ms    float64
}

// RoundTimeQ measures, by Monte Carlo on the configured stack, the
// DeadlineQ quantile of the time to complete v simultaneous requests of
// ioSectors each (aligned: whole-track reads of that many sectors;
// unaligned: same size at uncorrelated offsets). Requests in a round are
// issued together and sorted by LBN — the per-round elevator schedule of
// RIO/Tiger.
func (s *Server) RoundTimeQ(v int, ioSectors int, aligned bool) (float64, error) {
	m, err := s.MeasureRounds(v, ioSectors, aligned)
	if err != nil {
		return 0, err
	}
	return m.RoundQMs, nil
}

// MeasureRounds runs the full Monte-Carlo measurement for v streams of
// ioSectors each: every round's requests are issued together at the
// round start, in ascending LBN order, through the composed host stack
// (cache → queue → device), and background small I/Os — when
// Config.Background enables them — arrive at seeded-Poisson instants
// within the round and compete for the same spindle. When the stack
// carries a cache budget and a hot set is configured, the hot tracks
// are served once before the timed rounds (popular content resident at
// the host), so the quantile measures the steady state.
func (s *Server) MeasureRounds(v int, ioSectors int, aligned bool) (RoundMetrics, error) {
	out := RoundMetrics{Streams: v, IOSectors: ioSectors, Aligned: aligned}
	d, err := s.cfg.NewDevice()
	if err != nil {
		return out, err
	}
	st, err := s.cfg.Stack.Build(d)
	if err != nil {
		return out, err
	}
	zFirst, zLast, starts, err := s.region(ioSectors, aligned)
	if err != nil {
		return out, err
	}
	span := zLast - zFirst + 1 - int64(ioSectors)

	if s.cfg.Stack.CacheMB > 0 && s.cfg.HotSetTracks > 0 {
		if err := s.warmHotSet(st, starts, zLast); err != nil {
			return out, err
		}
	}
	// Snapshot after the warmup so CacheHitRate reports the timed
	// rounds' steady state, not the warmup's guaranteed misses.
	warm := st.Stats()

	bg := s.cfg.Background
	var bgStream *driver.Stream
	var bgRng *rand.Rand
	if bg.RatePerSec > 0 {
		bgStream, err = driver.NewStream(st, driver.Workload{
			Requests:   1, // ignored by Stream; rounds draw what they need
			IOSectors:  bg.IOSectors,
			WriteEvery: bg.WriteEvery,
			Seed:       s.cfg.Seed + 104729,
		})
		if err != nil {
			return out, err
		}
		bgRng = rand.New(rand.NewSource(s.cfg.Seed + 7919))
	}

	rng := rand.New(rand.NewSource(s.cfg.Seed + int64(v)*7 + int64(ioSectors)))
	roundMs := float64(ioSectors*512) / s.cfg.bytesPerMs()
	times := make([]float64, 0, s.cfg.Rounds)
	var bgResp []float64
	for r := 0; r < s.cfg.Rounds; r++ {
		lbns := make([]int64, 0, v)
		for i := 0; i < v; i++ {
			if aligned {
				// A whole number of tracks starting at a track boundary.
				lbn := starts[rng.Intn(len(starts))]
				if lbn+int64(ioSectors) > zLast+1 {
					i--
					continue
				}
				lbns = append(lbns, lbn)
			} else {
				lbns = append(lbns, zFirst+rng.Int63n(span))
			}
		}
		sortInt64(lbns)
		start := st.Now()
		for _, lbn := range lbns {
			if _, err := st.Submit(start, device.Request{LBN: lbn, Sectors: ioSectors}); err != nil {
				return out, err
			}
		}
		if bgStream != nil {
			ratePerMs := bg.RatePerSec / 1000
			for t := start + bgRng.ExpFloat64()/ratePerMs; t < start+roundMs; t += bgRng.ExpFloat64() / ratePerMs {
				if _, err := st.Submit(t, bgStream.Next()); err != nil {
					return out, err
				}
				out.BgRequests++
			}
		}
		rs, err := st.Drain()
		if err != nil {
			return out, err
		}
		var last float64
		for i, res := range rs {
			if i < len(lbns) {
				if res.Done > last {
					last = res.Done
				}
			} else {
				bgResp = append(bgResp, res.Response())
			}
		}
		times = append(times, last-start)
	}
	out.RoundQMs = stats.Percentile(times, s.cfg.DeadlineQ*100)
	out.RoundMeanMs = stats.Mean(times)
	if fin := st.Stats(); fin.Hits-warm.Hits+fin.Misses-warm.Misses > 0 {
		out.CacheHitRate = float64(fin.Hits-warm.Hits) /
			float64(fin.Hits-warm.Hits+fin.Misses-warm.Misses)
	}
	if len(bgResp) > 0 {
		out.BgMeanMs = stats.Mean(bgResp)
		out.BgP95Ms = stats.Percentile(bgResp, 95)
	}
	return out, nil
}

// warmHotSet serves one whole-track read of every hot-set track through
// the stack, filling the host cache before the timed rounds.
func (s *Server) warmHotSet(st *stack.Stack, starts []int64, zLast int64) error {
	for i, lbn := range starts {
		end := zLast + 1
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		if end <= lbn {
			continue
		}
		if _, err := st.Serve(st.Now(), device.Request{LBN: lbn, Sectors: int(end - lbn)}); err != nil {
			return err
		}
	}
	return nil
}

// MaxStreamsSoft returns the largest per-disk stream count whose
// DeadlineQ round time fits within the round duration implied by the
// I/O size (round = ioBytes / bitrate). This is the paper's soft-real-
// time admission: 70 aligned vs 45 unaligned streams per disk at one
// track per round.
func (s *Server) MaxStreamsSoft(ioSectors int, aligned bool, maxV int) (int, error) {
	roundMs := float64(ioSectors*512) / s.cfg.bytesPerMs()
	best := 0
	// Round times grow monotonically with v; binary search.
	lo, hi := 1, maxV
	for lo <= hi {
		mid := (lo + hi) / 2
		q, err := s.RoundTimeQ(mid, ioSectors, aligned)
		if err != nil {
			return 0, err
		}
		if q <= roundMs {
			best = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return best, nil
}

// StartupLatency returns the worst-case startup latency for v streams
// per disk: the smallest feasible round time times (Disks+1), per Santos
// et al. as cited in §5.4. The I/O size is grown (whole tracks when
// aligned) until the round is feasible; ok=false if no size up to maxIO
// sectors works.
func (s *Server) StartupLatency(v int, aligned bool, maxIOSectors int) (latencyMs float64, ioSectors int, ok bool, err error) {
	trackSectors := s.trackSectors()
	step := trackSectors
	if !aligned {
		step = trackSectors // same sizes for comparability
	}
	for io := step; io <= maxIOSectors; io += step {
		roundMs := float64(io*512) / s.cfg.bytesPerMs()
		q, err := s.RoundTimeQ(v, io, aligned)
		if err != nil {
			return 0, 0, false, err
		}
		if q <= roundMs {
			return roundMs * float64(s.cfg.Disks+1), io, true, nil
		}
	}
	return 0, 0, false, nil
}

// trackSectors returns the device's first-zone (largest) track size in
// sectors, from its boundary table.
func (s *Server) trackSectors() int { return s.tracks }

// TrackSectors exposes the first-zone track size (the paper's 264 KB on
// the Atlas 10K II).
func (s *Server) TrackSectors() int { return s.trackSectors() }

// HardRealTime computes worst-case admission (§5.4.2): the scheduler
// sorts each round, so the worst total seek for v stops is v hops of
// Cyls/v cylinders (Reddy & Wyllie); unaligned access adds a full
// rotation of worst-case latency plus one head switch per request, while
// track-aligned access has neither. Returns the maximum stream count per
// disk and the implied disk efficiency.
func (s *Server) HardRealTime(ioSectors int, aligned bool) (streams int, efficiency float64, err error) {
	mm, err := s.m.Mechanism()
	if err != nil {
		return 0, 0, err
	}
	l, err := s.m.Layout()
	if err != nil {
		return 0, 0, err
	}
	roundMs := float64(ioSectors*512) / s.cfg.bytesPerMs()
	_, trackSec := l.TrackRange(0)
	st := mm.SlotTime(l.G.Zones[0].SPT)
	media := float64(ioSectors) * st
	tracksSpanned := (ioSectors + trackSec - 1) / trackSec

	perReq := func(v int) float64 {
		seek := mm.Seek(s.m.Cyls / v)
		t := seek + media
		if aligned {
			// Zero rotational latency, no head switch for whole tracks;
			// multi-track I/Os still pay the inter-track switches.
			t += float64(tracksSpanned-1) * mm.HeadSwitch
		} else {
			t += mm.Period()                            // worst-case rotation
			t += float64(tracksSpanned) * mm.HeadSwitch // at least one switch
		}
		return t
	}
	v := 0
	for cand := 1; cand <= 4096; cand++ {
		if float64(cand)*perReq(cand) <= roundMs {
			v = cand
		} else if v > 0 {
			break
		}
	}
	if v == 0 {
		return 0, 0, nil
	}
	efficiency = float64(v) * media / roundMs
	return v, efficiency, nil
}

// sortInt64 is a small insertion sort; rounds have at most ~100 entries.
func sortInt64(a []int64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// Describe summarizes the configuration for reports.
func (s *Server) Describe() string {
	return fmt.Sprintf("%d x %s, %.0f Mb/s streams, %.2f%% deadlines",
		s.cfg.Disks, s.cfg.Model, s.cfg.BitRateMbps, s.cfg.DeadlineQ*100)
}
