package sim

import (
	"fmt"
	"math/rand"

	"traxtents/internal/device"
	"traxtents/internal/disk/geom"
	"traxtents/internal/disk/mech"
)

// Config holds the non-mechanical behaviour of the drive and its
// interconnect.
type Config struct {
	// BusMBps is the bus bandwidth in MB/s; 0 simulates an infinitely
	// fast bus (the paper's "zero bus transfer" DiskSim configuration).
	BusMBps float64
	// CmdOverhead is the fixed per-command controller/firmware time in
	// ms. It is paid on the issue path for idle disks and absorbed into
	// queueing when commands are outstanding.
	CmdOverhead float64
	// OutOfOrderBus allows data delivery in media order rather than
	// ascending-LBN order (the SCSI MODIFY DATA POINTER behaviour of
	// Figure 7 that no real drive implements).
	OutOfOrderBus bool
	// CacheSegments and CacheSegSectors configure the firmware read
	// cache; zero segments disables caching.
	CacheSegments   int
	CacheSegSectors int
	// ReadAhead enables firmware prefetch: after an idle read the head
	// keeps streaming into the cache segment.
	ReadAhead bool
	// SeekNoiseSD adds |N(0,sd)| ms of positioning noise to every
	// mechanical access. Note that sub-revolution positioning noise is
	// largely re-absorbed by the rotation: media completion is pinned to
	// absolute slot passings, exactly as on a real spindle.
	SeekNoiseSD float64
	// HostNoiseSD adds |N(0,sd)| ms of host-observed measurement jitter
	// to completion times (interrupt latency, driver overhead). This is
	// the noise the timing-based extraction algorithm must tolerate.
	HostNoiseSD float64
	// Seed makes the noise deterministic.
	Seed int64
}

// Request is one host command; it is the canonical device-layer request
// type, aliased here because the simulator predates internal/device.
type Request = device.Request

// Result is the full timing record of one serviced request.
type Result = device.Result

// Stats aggregates disk activity.
type Stats struct {
	Requests   int
	CacheHits  int
	SectorsIn  int64 // written
	SectorsOut int64 // read
	HeadBusy   float64
	BusBusy    float64
	Transfer   float64 // useful media transfer time
}

// Disk is a simulated disk drive.
type Disk struct {
	Lay *geom.Layout
	M   *mech.Mech
	Cfg Config

	headPos  mech.Pos
	headFree float64
	busFree  float64
	lastDone float64

	rng    *rand.Rand
	cache  *readCache
	cursor streamCursor

	// scratch is the pooled per-request media-phase record: AccessInto
	// reuses its chunk buffer, so steady-state Serve performs no heap
	// allocation. Results carry only its phase breakdown; the chunks,
	// end position and end time are consumed internally by the bus and
	// head models before the next request overwrites them.
	scratch mech.Timing

	stats Stats
}

// New creates a Disk from a built layout, a calibrated mechanism, and a
// configuration.
func New(l *geom.Layout, m *mech.Mech, cfg Config) *Disk {
	d := &Disk{Lay: l, M: m, Cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	if cfg.CacheSegments > 0 && cfg.CacheSegSectors > 0 {
		d.cache = newReadCache(cfg.CacheSegments)
	}
	return d
}

// Stats returns a copy of the accumulated statistics.
func (d *Disk) Stats() Stats { return d.stats }

// ResetStats clears the statistics without disturbing disk state.
func (d *Disk) ResetStats() { d.stats = Stats{} }

// Now returns the completion time of the last request serviced.
func (d *Disk) Now() float64 { return d.lastDone }

// HeadPos returns the current head position (useful in tests).
func (d *Disk) HeadPos() mech.Pos { return d.headPos }

// Disk implements device.Device and all of its optional capabilities.
var (
	_ device.Device           = (*Disk)(nil)
	_ device.InPlace          = (*Disk)(nil)
	_ device.Rotational       = (*Disk)(nil)
	_ device.BoundaryProvider = (*Disk)(nil)
	_ device.Mapped           = (*Disk)(nil)
	_ device.Named            = (*Disk)(nil)
)

// Serve services one request issued at the given time (device.Device).
// Requests must be submitted in non-decreasing issue order; the disk
// queues them FCFS. The returned Result contains the complete timing
// breakdown.
func (d *Disk) Serve(at float64, req Request) (Result, error) {
	var res Result
	if err := d.ServeInto(at, req, &res); err != nil {
		return Result{}, err
	}
	return res, nil
}

// Capacity returns the number of addressable LBNs.
func (d *Disk) Capacity() int64 { return d.Lay.NumLBNs() }

// SectorSize returns the sector size in bytes.
func (d *Disk) SectorSize() int { return d.Lay.G.SectorSize }

// RotationPeriod returns the spindle revolution time in ms.
func (d *Disk) RotationPeriod() float64 { return d.M.Period() }

// TrackBoundaries returns the layout's ground-truth track boundaries.
func (d *Disk) TrackBoundaries() []int64 { return d.Lay.Boundaries() }

// Layout exposes the full logical-to-physical mapping (device.Mapped).
func (d *Disk) Layout() *geom.Layout { return d.Lay }

// Name returns the drive's product name.
func (d *Disk) Name() string { return d.Lay.G.Name }

// sectorBusTime returns the bus time for one sector, or 0 for an
// infinitely fast bus.
func (d *Disk) sectorBusTime() float64 {
	if d.Cfg.BusMBps <= 0 {
		return 0
	}
	return float64(d.Lay.G.SectorSize) / (d.Cfg.BusMBps * 1000) // bytes / (bytes per ms)
}

// ServeInto is Serve writing the result into *res (device.InPlace).
func (d *Disk) ServeInto(issue float64, req Request, res *Result) error {
	// The shared overflow-safe gate: accepting exactly what CheckRequest
	// accepts is a conformance invariant (devtest.Fuzz checks agreement).
	if err := device.CheckRequest(d, req); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	*res = Result{}
	res.Req, res.Issue = req, issue
	d.stats.Requests++
	if req.Write {
		d.stats.SectorsIn += int64(req.Sectors)
	} else {
		d.stats.SectorsOut += int64(req.Sectors)
	}

	if req.Write {
		d.serviceWrite(issue, req, res)
	} else {
		d.serviceRead(issue, req, res)
	}
	if d.Cfg.HostNoiseSD > 0 {
		// Host-observed jitter only; internal resource state (headFree,
		// busFree) keeps the true completion.
		n := d.rng.NormFloat64() * d.Cfg.HostNoiseSD
		if n < 0 {
			n = -n
		}
		res.Done += n
	}
	if res.Done > d.lastDone {
		d.lastDone = res.Done
	}
	return nil
}

// Submit issues the request as soon as the previous completion is known
// (the paper's onereq pattern when used back to back).
func (d *Disk) Submit(req Request) (Result, error) { return d.Serve(d.lastDone, req) }

func (d *Disk) serviceRead(issue float64, req Request, res *Result) {
	// Full cache hit: bus-only service.
	if !req.FUA && d.cache != nil && d.cache.contains(req.LBN, req.Sectors, issue) {
		busStart := maxf(issue+d.Cfg.CmdOverhead, d.busFree)
		xfer := float64(req.Sectors) * d.sectorBusTime()
		res.CacheHit = true
		res.Start = busStart
		res.MediaEnd = busStart
		res.Done = busStart + xfer
		res.BusTime = xfer
		d.busFree = res.Done
		d.stats.CacheHits++
		d.stats.BusBusy += xfer
		return
	}

	start := maxf(issue+d.Cfg.CmdOverhead, d.headFree)
	res.Start = start

	// Firmware prefetch continuation: the head has been streaming ahead
	// since the last sequential read completed.
	if !req.FUA {
		prefetched, streamed := d.tryStream(start, req, res)
		if streamed {
			res.Prefetched = prefetched
			d.finishRead(req, res)
			return
		}
	}

	start += d.noise()
	if err := d.M.AccessInto(&d.scratch, d.Lay, start, d.headPos, req.LBN, req.Sectors, false); err != nil {
		// Range-checked above; any failure here is a programming error.
		panic(fmt.Sprintf("sim: access failed after validation: %v", err))
	}
	tm := &d.scratch
	res.Timing = tm.Breakdown
	res.MediaEnd = tm.EndTime
	d.headPos = tm.EndPos
	d.headFree = tm.EndTime
	d.stats.HeadBusy += tm.HeadTime()
	d.stats.Transfer += tm.Transfer
	d.finishRead(req, res)
}

// finishRead models the bus phase of a read and updates cache state.
// The availability chunks are read from the pooled d.scratch record.
func (d *Disk) finishRead(req Request, res *Result) {
	sb := d.sectorBusTime()
	switch {
	case sb == 0:
		res.Done = res.MediaEnd
	case res.CacheHit:
		// handled by caller
	case d.Cfg.OutOfOrderBus:
		// Data flows in media order: the bus can trail the media transfer
		// and finishes one sector-time after whichever ends later.
		busStart := maxf(d.busFree, res.Start+res.Timing.Seek+res.Timing.Settle)
		xfer := float64(req.Sectors) * sb
		res.Done = maxf(res.MediaEnd+sb, busStart+xfer)
		res.BusTime = res.Done - busStart
		d.busFree = res.Done
		d.stats.BusBusy += xfer
	default:
		// In-LBN-order delivery constrained by chunk availability.
		done, busy := drainChunks(d.scratch.Chunks, d.busFree, sb)
		if done < res.MediaEnd { // e.g. prefetch-served requests
			done = res.MediaEnd
		}
		res.Done = done
		res.BusTime = busy
		d.busFree = done
		d.stats.BusBusy += busy
	}

	if req.FUA {
		// FUA reads neither populate the cache nor arm prefetch, but the
		// head has physically moved, so any prefetch stream is broken.
		d.cursor.valid = false
		return
	}
	if d.cache != nil {
		d.cache.insert(req.LBN, req.Sectors, d.Cfg.CacheSegSectors, res.Done)
	}
	if d.Cfg.ReadAhead {
		d.cursor = streamCursor{valid: true, lbn: req.LBN + int64(req.Sectors), time: res.MediaEnd}
	} else {
		d.cursor.valid = false
	}
}

func (d *Disk) serviceWrite(issue float64, req Request, res *Result) {
	sb := d.sectorBusTime()
	xfer := float64(req.Sectors) * sb
	busStart := maxf(issue+d.Cfg.CmdOverhead, d.busFree)
	busDone := busStart + xfer
	d.busFree = busDone
	d.stats.BusBusy += xfer
	res.BusTime = xfer

	// The arm starts moving when the command arrives; the media write
	// cannot begin its sweep before the data is on board.
	start := maxf(issue+d.Cfg.CmdOverhead, d.headFree) + d.noise()
	res.Start = start
	tm := &d.scratch
	if err := d.M.AccessInto(tm, d.Lay, start, d.headPos, req.LBN, req.Sectors, true); err != nil {
		panic(fmt.Sprintf("sim: access failed after validation: %v", err))
	}
	if gate := busDone - (start + tm.Seek + tm.Settle); gate > 0 {
		// Data arrived after the seek settled: re-run the sweep with the
		// media phase gated on the bus completion. The seek length is
		// unchanged, only the rotational phase shifts.
		if err := d.M.AccessInto(tm, d.Lay, start+gate, d.headPos, req.LBN, req.Sectors, true); err != nil {
			panic(fmt.Sprintf("sim: gated access failed: %v", err))
		}
	}
	res.Timing = tm.Breakdown
	res.MediaEnd = tm.EndTime
	res.Done = tm.EndTime
	d.headPos = tm.EndPos
	d.headFree = tm.EndTime
	d.stats.HeadBusy += tm.HeadTime()
	d.stats.Transfer += tm.Transfer
	d.cursor.valid = false
	if d.cache != nil {
		d.cache.invalidate(req.LBN, req.Sectors)
	}
}

// noise returns a non-negative positioning perturbation.
func (d *Disk) noise() float64 {
	if d.Cfg.SeekNoiseSD <= 0 {
		return 0
	}
	n := d.rng.NormFloat64() * d.Cfg.SeekNoiseSD
	if n < 0 {
		n = -n
	}
	return n
}

// drainChunks computes the completion of an in-order bus transfer over
// availability chunks, starting no earlier than busFree, sending each
// sector in sb ms once available. Returns completion time and the bus
// occupancy (first send to last completion, media stalls included).
// An empty chunk list (nothing to send) is zero occupancy.
//
// The per-chunk completion is closed form. Sector j of a chunk (0-based,
// k sectors) is available at At+j*Per, and the recurrence
//
//	t_j = max(t_{j-1}, At+j*Per) + sb
//
// unrolls to t_{k-1} = max_j( max(t_in, At+j*Per) + (k-j)*sb ); because
// j*(Per-sb) is linear in j the inner max is attained at j=0 or j=k-1,
// leaving three candidates: the bus busy with earlier data (t_in + k*sb),
// the bus gated on the chunk's arrival (At + k*sb), and the bus trailing
// the availability ramp (At + (k-1)*Per + sb). This makes the drain
// O(chunks) instead of O(sectors), and is exact where the old per-sector
// loop accumulated one float rounding per sector (the differential test
// bounds the divergence below a nanosecond of virtual time).
func drainChunks(chunks []mech.AvailChunk, busFree, sb float64) (done, busy float64) {
	t := busFree
	first := true
	var busStart float64
	for _, c := range chunks {
		if c.Sectors <= 0 {
			continue
		}
		if first {
			busStart = maxf(t, c.At)
			first = false
		}
		k := float64(c.Sectors)
		ct := t + k*sb
		if v := c.At + k*sb; v > ct {
			ct = v
		}
		if v := c.At + float64(c.Sectors-1)*c.Per + sb; v > ct {
			ct = v
		}
		t = ct
	}
	if first {
		return busFree, 0
	}
	return t, t - busStart
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
