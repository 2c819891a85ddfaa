package zoned

import (
	"fmt"

	"traxtents/internal/device"
)

// Flash is an emulated conventional flash device: a single-server
// command queue with flat (non-rotational) access costs and an
// explicit erase operation. Its natural extents are erase blocks, and
// TrackBoundaries reports them — on flash, the erase block plays the
// role the track plays on a disk: crossing one costs an extra command,
// and overwriting part of one costs a copy-and-erase cycle (modeled by
// the ftl package, which stacks on top of Flash).
//
// Timing model (all milliseconds of virtual time): a request occupies
// the device for cmd + (read|program) + sectors*transfer, FCFS behind
// whatever the device is already committed to — the same busy-server
// shape as trace replay. Erases occupy the device for cmd + erase.
type Flash struct {
	capacity     int64
	sectorSize   int
	eraseSectors int64

	cmdMs     float64
	readMs    float64
	programMs float64
	eraseMs   float64
	xferMs    float64 // per sector

	busy     float64
	lastDone float64

	bounds []int64
}

// FlashOption configures a Flash device.
type FlashOption func(*Flash)

// WithEraseSectors sets the erase-block size in sectors (default 1024,
// 512 KiB at 512-byte sectors).
func WithEraseSectors(n int64) FlashOption { return func(f *Flash) { f.eraseSectors = n } }

// WithFlashSectorSize sets the sector size in bytes (default 512).
func WithFlashSectorSize(n int) FlashOption { return func(f *Flash) { f.sectorSize = n } }

// WithFlashTiming overrides the access costs, all in ms: per-command
// overhead, read latency, program (write) latency, erase latency, and
// per-sector transfer time.
func WithFlashTiming(cmd, read, program, erase, xferPerSector float64) FlashOption {
	return func(f *Flash) {
		f.cmdMs, f.readMs, f.programMs, f.eraseMs, f.xferMs = cmd, read, program, erase, xferPerSector
	}
}

var (
	_ device.Device           = (*Flash)(nil)
	_ device.InPlace          = (*Flash)(nil)
	_ device.BoundaryProvider = (*Flash)(nil)
	_ device.Named            = (*Flash)(nil)
)

// NewFlash builds a flash device with the given capacity in sectors.
// Defaults: 512-byte sectors, 1024-sector erase blocks, 0.02 ms
// command overhead, 0.06 ms read latency, 0.30 ms program latency,
// 2.0 ms erase, and 0.00128 ms/sector transfer (~400 MB/s).
func NewFlash(capacity int64, opts ...FlashOption) (*Flash, error) {
	f := &Flash{
		capacity:     capacity,
		sectorSize:   512,
		eraseSectors: 1024,
		cmdMs:        0.02,
		readMs:       0.06,
		programMs:    0.30,
		eraseMs:      2.0,
		xferMs:       0.00128,
	}
	for _, o := range opts {
		o(f)
	}
	if f.capacity <= 0 {
		return nil, fmt.Errorf("zoned: %w: flash capacity %d", device.ErrInvalidRequest, f.capacity)
	}
	if f.sectorSize <= 0 {
		return nil, fmt.Errorf("zoned: %w: flash sector size %d", device.ErrInvalidRequest, f.sectorSize)
	}
	if f.eraseSectors <= 0 || f.eraseSectors > f.capacity {
		return nil, fmt.Errorf("zoned: %w: erase block of %d sectors on a %d-sector device",
			device.ErrInvalidRequest, f.eraseSectors, f.capacity)
	}
	if f.cmdMs < 0 || f.readMs < 0 || f.programMs < 0 || f.eraseMs < 0 || f.xferMs < 0 {
		return nil, fmt.Errorf("zoned: %w: negative flash timing", device.ErrInvalidRequest)
	}
	for lbn := int64(0); lbn < f.capacity; lbn += f.eraseSectors {
		f.bounds = append(f.bounds, lbn)
	}
	f.bounds = append(f.bounds, f.capacity)
	return f, nil
}

// Serve services one request: FCFS behind the device's prior
// commitments, cmd + latency + transfer.
func (f *Flash) Serve(at float64, req device.Request) (device.Result, error) {
	var res device.Result
	if err := f.ServeInto(at, req, &res); err != nil {
		return device.Result{}, err
	}
	return res, nil
}

// ServeInto is Serve writing the result into *res (device.InPlace).
func (f *Flash) ServeInto(at float64, req device.Request, res *device.Result) error {
	if err := device.CheckRequest(f, req); err != nil {
		return err
	}
	lat := f.readMs
	if req.Write {
		lat = f.programMs
	}
	start := at
	if f.busy > start {
		start = f.busy
	}
	done := start + f.cmdMs + lat + float64(req.Sectors)*f.xferMs
	f.busy = done
	if done > f.lastDone {
		f.lastDone = done
	}
	*res = device.Result{}
	res.Req = req
	res.Issue = at
	res.Start = start
	res.MediaEnd = done
	res.Done = done
	res.BusTime = float64(req.Sectors) * f.xferMs
	return nil
}

// EraseAt erases exactly one erase block (lbn must be block-aligned and
// sectors must equal the erase-block size), occupying the device for
// cmd + erase time. It returns when the erase completes. The ftl
// package discovers this operation structurally, so any device
// offering the same method can time FTL garbage collection.
func (f *Flash) EraseAt(at float64, lbn int64, sectors int) (float64, error) {
	if err := device.CheckBounds(lbn, sectors, f.capacity); err != nil {
		return 0, err
	}
	if lbn%f.eraseSectors != 0 || int64(sectors) != f.eraseSectors {
		return 0, &device.Error{
			Op:  "flash erase",
			Req: device.Request{LBN: lbn, Sectors: sectors, Write: true},
			Err: fmt.Errorf("%w: erase [%d,+%d) not one aligned %d-sector block",
				device.ErrInvalidRequest, lbn, sectors, f.eraseSectors),
		}
	}
	start := at
	if f.busy > start {
		start = f.busy
	}
	done := start + f.cmdMs + f.eraseMs
	f.busy = done
	if done > f.lastDone {
		f.lastDone = done
	}
	return done, nil
}

// Now returns the completion time of the last operation serviced.
func (f *Flash) Now() float64 { return f.lastDone }

// Capacity returns the number of addressable LBNs.
func (f *Flash) Capacity() int64 { return f.capacity }

// SectorSize returns the sector size in bytes.
func (f *Flash) SectorSize() int { return f.sectorSize }

// EraseSectors returns the erase-block size in sectors.
func (f *Flash) EraseSectors() int64 { return f.eraseSectors }

// TrackBoundaries reports the erase-block extents — flash's natural
// boundaries. The returned slice is a copy; callers may mutate it.
func (f *Flash) TrackBoundaries() []int64 {
	return append([]int64(nil), f.bounds...)
}

// Name identifies the device.
func (f *Flash) Name() string {
	return fmt.Sprintf("flash[%d sectors, %d-sector erase blocks]", f.capacity, f.eraseSectors)
}
