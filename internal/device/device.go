package device

import (
	"fmt"

	"traxtents/internal/disk/geom"
	"traxtents/internal/disk/mech"
)

// Request is one host command against a device.
type Request struct {
	LBN     int64
	Sectors int
	Write   bool
	// FUA (Force Unit Access) forces a media access: any firmware cache
	// and prefetch stream are bypassed and not updated. Extraction tools
	// use it to reposition a disk's head deterministically; devices
	// without caches may ignore it.
	FUA bool
}

// Bytes returns the request's payload size.
func (r Request) Bytes(sectorSize int) int64 { return int64(r.Sectors) * int64(sectorSize) }

// Result is the full timing record of one serviced request. All times
// are in milliseconds of virtual time.
type Result struct {
	Req   Request
	Issue float64 // host issues the command
	Start float64 // device dedicated to the request (0-width for hits)
	// MediaEnd is when the media transfer completes (= Start for cache
	// hits). Done is when the host sees completion, including the bus.
	MediaEnd float64
	Done     float64

	// Timing is the media-phase breakdown; zero for cache hits and for
	// backends (trace replay, arrays) that do not expose one.
	Timing     mech.Breakdown
	BusTime    float64 // time the bus was dedicated to this request
	CacheHit   bool
	Prefetched int // sectors served from a firmware prefetch stream
}

// Response returns the host-observed response time.
func (r Result) Response() float64 { return r.Done - r.Issue }

// Device is a storage device servicing one request at a time in issue
// order. Implementations simulate (or replay) virtual time: Serve
// returns immediately, and the Result carries the timing.
type Device interface {
	// Serve services one request issued at the given host time (ms).
	// Requests must be served in non-decreasing issue order; the device
	// queues them FCFS against its internal resources.
	Serve(at float64, req Request) (Result, error)
	// Now returns the completion time of the last request serviced (the
	// device's virtual clock), 0 before any request.
	Now() float64
	// Capacity returns the number of addressable LBNs.
	Capacity() int64
	// SectorSize returns the sector (block) size in bytes.
	SectorSize() int
}

// Batch is the asynchronous request contract. Each layer that queues,
// caches, or fans requests out (sched.Queue, striped.Array,
// cache.Cache) implements it once: Submit hands a request over and
// names it, and DrainEach resolves everything submitted, so the layer
// can reorder, join, or overlap requests before any result is fixed.
// A layer's Serve behaves as a batch of one.
type Batch interface {
	Device
	// Submit enqueues a request issued at the given host time; issue
	// times must be non-decreasing across Submit and Serve. The returned
	// sequence number is valid only when err is nil; numbers increase
	// with every Submit over the device's lifetime. A rejected request
	// is never reported by DrainEach.
	Submit(at float64, req Request) (seq int, err error)
	// DrainEach resolves every outstanding submission and calls fn once
	// per request with its sequence number and a pointer to its result,
	// valid only during the call. fn must not call back into the
	// device. The order of calls is the implementation's.
	DrainEach(fn func(seq int, r *Result)) error
}

// InPlace is implemented by devices that can write a result into
// caller-owned memory. A layer that forwards requests (a queue into
// its completion slot, an array into its per-child scratch) serves its
// inner device through ServeInto, so the result is written once where
// it will be read instead of being returned by value and copied at
// every layer. A device implementing InPlace derives its Serve from
// ServeInto.
type InPlace interface {
	// ServeInto is Serve writing the result into *res: every field is
	// overwritten on success. When err is non-nil *res is unspecified
	// and must not be read.
	ServeInto(at float64, req Request, res *Result) error
}

// ServeInto serves req on d into *res: in place when d is InPlace,
// through Serve and one copy otherwise. On error *res is unspecified.
func ServeInto(d Device, at float64, req Request, res *Result) error {
	if p, ok := d.(InPlace); ok {
		return p.ServeInto(at, req, res)
	}
	r, err := d.Serve(at, req)
	if err != nil {
		return err
	}
	*res = r
	return nil
}

// Rotational is implemented by devices with a (single, known) spindle
// speed. RotationPeriod returns the revolution time in ms, or 0 when
// unknown — callers must treat 0 as "not rotational".
type Rotational interface {
	RotationPeriod() float64
}

// BoundaryProvider is implemented by devices that know their own
// track (or stripe-unit) boundaries — the ground truth that boundary
// extraction is validated against, and the cheap path to a traxtent
// table when no extraction is needed.
type BoundaryProvider interface {
	// TrackBoundaries returns the ascending LBN boundaries, starting at
	// 0 and ending at Capacity(). Nil when unknown.
	TrackBoundaries() []int64
}

// Mapped is implemented by devices that can expose their full logical-
// to-physical mapping — the information behind the SCSI diagnostic
// address-translation pages that DIXtrac-style characterization needs.
// Multi-device backends and replayed traces have no single physical
// geometry and do not implement it. Layout may return nil (a wrapper
// whose inner device is not Mapped); callers must treat nil as "no
// mapping".
type Mapped interface {
	Layout() *geom.Layout
}

// Named is implemented by devices with a product identity (INQUIRY).
type Named interface {
	Name() string
}

// Zoned is implemented by devices whose natural extents are
// sequential-write-required zones (ZNS SSDs, host-managed SMR disks):
// each zone carries a write pointer, writes must land exactly on it,
// and a zone is reused only after an explicit reset. The zone table is
// the device's boundary table — for a zoned device, TrackBoundaries
// and ZoneBoundaries report the same extents.
type Zoned interface {
	// ZoneBoundaries returns the ascending zone-boundary LBNs, starting
	// at 0 and ending at Capacity(), like TrackBoundaries.
	ZoneBoundaries() []int64
	// WritePointer returns the next writable LBN of the zone: the zone's
	// start when empty (or freshly reset), its end when full.
	WritePointer(zone int) int64
	// OpenZones returns how many zones are currently open (their write
	// pointer strictly inside the zone) and the open-zone limit; max 0
	// means unlimited.
	OpenZones() (open, max int)
	// ResetZoneAt rewinds the zone's write pointer to the zone start at
	// the given host time, returning when the reset completes. Resetting
	// an empty zone is a legal no-op (still timed).
	ResetZoneAt(at float64, zone int) (done float64, err error)
}

// ZonedOf returns the zone model behind a device: the device itself
// when it implements Zoned, or the zoned device at the bottom of a
// chain of single-inner wrappers (cache, scheduling queue, fault
// injector, recorder, stack — anything exposing Inner() Device).
// Multi-device backends (arrays, volume views) have no single zone
// model and stop the walk.
func ZonedOf(d Device) (Zoned, bool) {
	for d != nil {
		if z, ok := d.(Zoned); ok {
			return z, true
		}
		u, ok := d.(interface{ Inner() Device })
		if !ok {
			return nil, false
		}
		d = u.Inner()
	}
	return nil, false
}

// CheckBounds validates an (LBN, sector-count) range against a
// capacity. The test is overflow-safe: LBN + Sectors near MaxInt64 must
// not wrap negative and slip past the capacity comparison. It is shared
// by the request gate below and by loaders validating externally
// supplied ranges (trace records).
// Both failure shapes wrap ErrInvalidRequest.
func CheckBounds(lbn int64, sectors int, capacity int64) error {
	if sectors <= 0 {
		return fmt.Errorf("device: %w: request for %d sectors", ErrInvalidRequest, sectors)
	}
	if lbn < 0 || lbn >= capacity || int64(sectors) > capacity-lbn {
		return fmt.Errorf("device: %w: request [%d,+%d) outside device of %d LBNs",
			ErrInvalidRequest, lbn, sectors, capacity)
	}
	return nil
}

// CheckRequest validates a request against a device's address space; it
// is the shared gate every backend applies before servicing.
func CheckRequest(d Device, req Request) error {
	return CheckBounds(req.LBN, req.Sectors, d.Capacity())
}
