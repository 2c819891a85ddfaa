package zoned

import (
	"fmt"
	"sort"

	"traxtents/internal/device"
	"traxtents/internal/disk/geom"
	"traxtents/internal/disk/mech"
)

// Device wraps a conventional backend with host-managed zone
// semantics: the address space is carved into fixed-size zones (the
// last may be shorter), each zone carries a write pointer, and a write
// is accepted only when it lands exactly on that pointer and fits
// inside the zone. Out-of-protocol writes fail with a typed
// *device.Error wrapping device.ErrZoneViolation — deterministic, with
// the inner device, the write pointer, and the clock all untouched.
//
// Timing comes from the inner device: an accepted operation is
// forwarded unchanged, so a zoned device over a disk simulator is an
// SMR disk and over Flash is a ZNS SSD. Reads that cross a zone
// boundary are split into one inner command per zone (zoned hardware
// refuses multi-zone transfers); reads within a zone pass through
// bit-identically. Zone resets are timed on the wrapper's own clock
// (WithResetMs) without disturbing the inner device.
//
// With one giant zone and a sequential write stream, Device is
// bit-identical to the backend it wraps — the differential pin the
// tests hold it to.
type Device struct {
	inner device.Device

	bounds  []int64
	wp      []int64
	active  int
	maxOpen int
	resetMs float64

	selfDone float64 // completions (resets) not visible to the inner device
	memo     int     // last zone hit, for O(1) sequential zoneOf

	// construction-time knobs consumed by New
	zoneSectors int64
	zones       int
}

// Option configures a zoned Device.
type Option func(*Device)

// WithZoneSectors sets the zone size in sectors; the last zone takes
// the remainder. Overrides the default of 32 equal zones.
func WithZoneSectors(n int64) Option { return func(z *Device) { z.zoneSectors = n } }

// WithZones carves the capacity into n zones of equal size (the last
// takes any remainder). Default 32.
func WithZones(n int) Option { return func(z *Device) { z.zones = n } }

// WithMaxOpenZones limits how many zones may be open (write pointer
// strictly inside the zone) at once; writes that would open one more
// are zone violations. 0 (the default) means unlimited.
func WithMaxOpenZones(n int) Option { return func(z *Device) { z.maxOpen = n } }

// WithResetMs sets the zone-reset latency in ms (default 0.5).
func WithResetMs(ms float64) Option { return func(z *Device) { z.resetMs = ms } }

var (
	_ device.Device           = (*Device)(nil)
	_ device.Zoned            = (*Device)(nil)
	_ device.BoundaryProvider = (*Device)(nil)
	_ device.Named            = (*Device)(nil)
)

// New wraps inner with zone semantics. The zone table is fixed at
// construction; by default the capacity is carved into 32 equal zones.
func New(inner device.Device, opts ...Option) (*Device, error) {
	z := &Device{inner: inner, zones: 32, resetMs: 0.5}
	for _, o := range opts {
		o(z)
	}
	capacity := inner.Capacity()
	if capacity <= 0 {
		return nil, fmt.Errorf("zoned: %w: inner capacity %d", device.ErrInvalidRequest, capacity)
	}
	zs := z.zoneSectors
	if zs == 0 {
		if z.zones <= 0 {
			return nil, fmt.Errorf("zoned: %w: %d zones", device.ErrInvalidRequest, z.zones)
		}
		zs = (capacity + int64(z.zones) - 1) / int64(z.zones)
	}
	if zs <= 0 || zs > capacity {
		return nil, fmt.Errorf("zoned: %w: zone of %d sectors on a %d-sector device",
			device.ErrInvalidRequest, zs, capacity)
	}
	if z.maxOpen < 0 {
		return nil, fmt.Errorf("zoned: %w: open-zone limit %d", device.ErrInvalidRequest, z.maxOpen)
	}
	if z.resetMs < 0 {
		return nil, fmt.Errorf("zoned: %w: negative reset time", device.ErrInvalidRequest)
	}
	for lbn := int64(0); lbn < capacity; lbn += zs {
		z.bounds = append(z.bounds, lbn)
	}
	z.bounds = append(z.bounds, capacity)
	z.wp = make([]int64, len(z.bounds)-1)
	copy(z.wp, z.bounds)
	return z, nil
}

// zoneOf returns the zone holding lbn, memoizing the last hit so
// sequential streams resolve in O(1).
func (z *Device) zoneOf(lbn int64) int {
	if m := z.memo; m >= 0 && m < len(z.wp) && lbn >= z.bounds[m] && lbn < z.bounds[m+1] {
		return m
	}
	i := sort.Search(len(z.bounds), func(i int) bool { return z.bounds[i] > lbn }) - 1
	z.memo = i
	return i
}

// Serve services one request. Writes are validated against the zone
// protocol; reads crossing a zone boundary are split per zone.
func (z *Device) Serve(at float64, req device.Request) (device.Result, error) {
	if err := device.CheckRequest(z, req); err != nil {
		return device.Result{}, err
	}
	if req.Write {
		return z.serveWrite(at, req)
	}
	return z.serveRead(at, req)
}

// serveWrite enforces the zone protocol, then forwards. The write
// pointer moves only after the inner device succeeds, so an inner
// fault (under a fault injector) leaves the zone state unchanged.
func (z *Device) serveWrite(at float64, req device.Request) (device.Result, error) {
	zi := z.zoneOf(req.LBN)
	end := req.LBN + int64(req.Sectors)
	if req.LBN != z.wp[zi] || end > z.bounds[zi+1] {
		return device.Result{}, &device.Error{Op: "zoned", Req: req, Err: device.ErrZoneViolation}
	}
	opening := z.wp[zi] == z.bounds[zi]
	if opening && z.maxOpen > 0 && z.active >= z.maxOpen {
		return device.Result{}, &device.Error{Op: "zoned", Req: req, Err: device.ErrZoneViolation}
	}
	res, err := z.inner.Serve(at, req)
	if err != nil {
		return device.Result{}, err
	}
	z.wp[zi] = end
	if opening {
		z.active++
	}
	if end == z.bounds[zi+1] {
		z.active--
	}
	return res, nil
}

// serveRead forwards in-zone reads unchanged and splits multi-zone
// reads into one inner command per zone, all issued at the same host
// time (the inner device serializes them FCFS). The merged result
// spans the first command's start to the last command's completion;
// the per-phase Timing breakdown is zeroed, as for any composite.
func (z *Device) serveRead(at float64, req device.Request) (device.Result, error) {
	zi := z.zoneOf(req.LBN)
	end := req.LBN + int64(req.Sectors)
	if end <= z.bounds[zi+1] {
		return z.inner.Serve(at, req)
	}
	lbn := req.LBN
	var out device.Result
	first := true
	for lbn < end {
		zi = z.zoneOf(lbn)
		hi := z.bounds[zi+1]
		if end < hi {
			hi = end
		}
		pr, err := z.inner.Serve(at, device.Request{LBN: lbn, Sectors: int(hi - lbn), FUA: req.FUA})
		if err != nil {
			return device.Result{}, err
		}
		if first {
			out = pr
			first = false
		} else {
			out.MediaEnd = pr.MediaEnd
			out.Done = pr.Done
			out.BusTime += pr.BusTime
			out.Prefetched += pr.Prefetched
			out.CacheHit = out.CacheHit && pr.CacheHit
			out.Timing = mech.Breakdown{}
		}
		lbn = hi
	}
	out.Req = req
	out.Issue = at
	return out, nil
}

// Append writes sectors at the zone's current write pointer, returning
// the result (whose Req.LBN reports where the data landed). It goes
// through the same legality gate as an explicit write: appending to a
// full zone, past the zone end, or over the open-zone limit is a zone
// violation.
func (z *Device) Append(at float64, zone, sectors int) (device.Result, error) {
	if zone < 0 || zone >= len(z.wp) {
		return device.Result{}, &device.Error{
			Op:  "zoned append",
			Req: device.Request{Sectors: sectors, Write: true},
			Err: fmt.Errorf("%w: zone %d of %d", device.ErrInvalidRequest, zone, len(z.wp)),
		}
	}
	req := device.Request{LBN: z.wp[zone], Sectors: sectors, Write: true}
	if sectors <= 0 {
		return device.Result{}, &device.Error{
			Op: "zoned append", Req: req,
			Err: fmt.Errorf("%w: append of %d sectors", device.ErrInvalidRequest, sectors),
		}
	}
	if z.wp[zone]+int64(sectors) > z.bounds[zone+1] {
		return device.Result{}, &device.Error{Op: "zoned append", Req: req, Err: device.ErrZoneViolation}
	}
	return z.serveWrite(at, req)
}

// ResetZoneAt rewinds the zone's write pointer to the zone start,
// occupying the device for the reset latency on the wrapper's own
// clock. Resetting an empty zone is a legal (still timed) no-op.
func (z *Device) ResetZoneAt(at float64, zone int) (float64, error) {
	if zone < 0 || zone >= len(z.wp) {
		return 0, &device.Error{
			Op:  "zoned reset",
			Req: device.Request{},
			Err: fmt.Errorf("%w: zone %d of %d", device.ErrInvalidRequest, zone, len(z.wp)),
		}
	}
	if z.wp[zone] > z.bounds[zone] && z.wp[zone] < z.bounds[zone+1] {
		z.active--
	}
	z.wp[zone] = z.bounds[zone]
	start := at
	if n := z.Now(); n > start {
		start = n
	}
	done := start + z.resetMs
	z.selfDone = done
	return done, nil
}

// Now returns the wrapper's clock: the later of the inner device's
// clock and the last zone reset.
func (z *Device) Now() float64 {
	if n := z.inner.Now(); n > z.selfDone {
		return n
	}
	return z.selfDone
}

// Capacity returns the inner device's capacity.
func (z *Device) Capacity() int64 { return z.inner.Capacity() }

// SectorSize returns the inner device's sector size.
func (z *Device) SectorSize() int { return z.inner.SectorSize() }

// Inner returns the wrapped device.
func (z *Device) Inner() device.Device { return z.inner }

// TrackBoundaries reports the zone extents — a zoned device's natural
// boundaries are its zones, whatever the inner device's tracks look
// like. The returned slice is a copy; callers may mutate it.
func (z *Device) TrackBoundaries() []int64 { return append([]int64(nil), z.bounds...) }

// ZoneBoundaries reports the zone extents (same table as
// TrackBoundaries). The returned slice is a copy.
func (z *Device) ZoneBoundaries() []int64 { return append([]int64(nil), z.bounds...) }

// Zones returns the number of zones.
func (z *Device) Zones() int { return len(z.wp) }

// WritePointer returns the zone's next writable LBN (-1 for an
// out-of-range zone index).
func (z *Device) WritePointer(zone int) int64 {
	if zone < 0 || zone >= len(z.wp) {
		return -1
	}
	return z.wp[zone]
}

// OpenZones returns the open-zone count and the configured limit
// (max 0 = unlimited).
func (z *Device) OpenZones() (open, max int) { return z.active, z.maxOpen }

// RotationPeriod forwards the inner device's revolution time (an SMR
// zoned device still rotates); 0 when the inner device has none.
func (z *Device) RotationPeriod() float64 {
	if r, ok := z.inner.(device.Rotational); ok {
		return r.RotationPeriod()
	}
	return 0
}

// Layout forwards the inner device's physical mapping; nil when the
// inner device is not Mapped.
func (z *Device) Layout() *geom.Layout {
	if m, ok := z.inner.(device.Mapped); ok {
		return m.Layout()
	}
	return nil
}

// Name identifies the wrapper and its inner device.
func (z *Device) Name() string {
	inner := "device"
	if n, ok := z.inner.(device.Named); ok {
		inner = n.Name()
	}
	return fmt.Sprintf("zoned[%d zones]+%s", len(z.wp), inner)
}
