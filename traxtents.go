// Package traxtents is the public facade of a Go reproduction of
// "Track-aligned Extents: Matching Access Patterns to Disk Drive
// Characteristics" (Schindler, Griffin, Lumb, Ganger — FAST 2002).
//
// The library provides, built entirely on the standard library:
//
//   - A Device abstraction: everything above the storage layer speaks to
//     a small request-service interface, with three backends — a
//     calibrated disk drive simulator (zoned recording, skews, spare
//     sectors, defect slipping/remapping, seek curves, zero-latency
//     firmware, in-order SCSI bus, firmware cache) with models of the
//     paper's Table 1 disks, a traxtent-striped multi-disk array, and a
//     trace-replay device for captured workloads.
//   - Two track-boundary extraction methods: the general timing-based
//     algorithm and the DIXtrac-style five-step SCSI characterization,
//     both validated against the simulator's ground truth.
//   - The traxtent core: boundary tables, request clipping/splitting,
//     excluded-block computation, whole-track allocation, and a compact
//     on-disk encoding.
//   - The paper's three case studies: a traxtent-aware FFS, a video
//     server admission model, and an LFS with variable-sized segments —
//     the FFS and video server running over a composed host stack
//     (NewDeviceStack / StackConfig: host cache → scheduling queue →
//     device), with a mixed-workload mode pitting video streams against
//     background small I/Os on the same spindle.
//   - A multi-tenant volume server (NewVolumeManager): many logical
//     volumes placed on whole traxtents across device shards, with
//     per-tenant token-bucket admission control, a fair-share/deadline
//     scheduling tier above the per-spindle queues, and streaming P²
//     tail-latency accounting per tenant.
//   - Zoned and flash-era backends: an emulated flash device whose
//     natural extents are erase blocks, a host-managed zoned wrapper
//     (ZNS/SMR-style write pointers, zone resets, zone append, typed
//     ErrZoneViolation) that turns any backend into a zoned device, an
//     FTL with copy-on-write garbage collection, and a zone-aware
//     scheduler — all speaking the same Device interface, so the cache,
//     queue, stack, and LFS layers compose over them unchanged.
//   - A failure subsystem: a deterministic fault-injecting device
//     wrapper (NewFaultyDevice: seeded latent sector errors, transient
//     timeouts, whole-disk loss, all typed via DeviceError and the Err*
//     sentinels), RAID-5-style parity striping keyed to child traxtents
//     (WithParity) with degraded-mode reads under single-disk loss, and
//     rebuild/scrub drivers (RebuildUnderLoad, ScrubArray) that
//     regenerate a lost child as background traffic competing with
//     foreground tenants.
//
// Quick start:
//
//	m, _ := traxtents.DiskModel("Quantum-Atlas10KII")
//	d, _ := traxtents.NewDisk(m)
//	rep, _ := traxtents.ExtractGeneral(d, traxtents.ExtractOptions{})
//	ext, _ := rep.Table.Find(123456)     // the traxtent holding LBN 123456
//	n, _ := rep.Table.Clip(123456, 1024) // clip a request at the boundary
//
// See DESIGN.md for the layered architecture and the device-interface
// contract.
package traxtents

import (
	"fmt"
	"io"

	"traxtents/internal/device"
	"traxtents/internal/device/cache"
	"traxtents/internal/device/faults"
	"traxtents/internal/device/ftl"
	"traxtents/internal/device/sched"
	"traxtents/internal/device/stack"
	"traxtents/internal/device/striped"
	"traxtents/internal/device/trace"
	"traxtents/internal/device/zoned"
	"traxtents/internal/disk/geom"
	"traxtents/internal/disk/mech"
	"traxtents/internal/disk/model"
	"traxtents/internal/disk/sim"
	"traxtents/internal/dixtrac"
	"traxtents/internal/extract"
	"traxtents/internal/ffs"
	"traxtents/internal/lfs"
	"traxtents/internal/scsi"
	"traxtents/internal/traxtent"
	"traxtents/internal/video"
	"traxtents/internal/volume"
	"traxtents/internal/workload"
	"traxtents/internal/workload/driver"
)

// Core traxtent types.
type (
	// Table is a track-boundary table — the traxtent map of a device.
	Table = traxtent.Table
	// Extent is a contiguous LBN range.
	Extent = traxtent.Extent
	// Allocator hands out whole-track extents with locality.
	Allocator = traxtent.Allocator
)

// Device-layer types. Device is the storage interface every consumer
// (extraction, SCSI target, FFS, LFS, video server) is written against;
// *Disk, *StripedDevice, and *TraceDevice all implement it.
type (
	// Device is a storage device servicing timed requests.
	Device = device.Device
	// Request is one device command.
	Request = device.Request
	// Result is a serviced request's timing record.
	Result = device.Result
	// Disk is a simulated disk drive.
	Disk = sim.Disk
	// DiskConfig controls a simulated disk's bus, cache, and firmware.
	DiskConfig = sim.Config
	// StripedDevice is a traxtent-striped multi-device array.
	StripedDevice = striped.Array
	// StripedOption configures a striped array.
	StripedOption = striped.Option
	// TraceDevice replays a recorded request/latency trace.
	TraceDevice = trace.Player
	// TraceOption configures a trace-replay device.
	TraceOption = trace.Option
	// Trace is a captured workload with its device identity.
	Trace = trace.Trace
	// TraceRecord is one traced request.
	TraceRecord = trace.Record
	// Recorder wraps a Device and captures a Trace of its requests.
	Recorder = trace.Recorder
	// TraceWriter streams records into the compact binary trace format.
	TraceWriter = trace.Writer
	// TraceReader streams records out of a binary trace without
	// materializing the whole capture.
	TraceReader = trace.Reader
	// BlkparseOptions configures the blktrace/blkparse text converter.
	BlkparseOptions = trace.BlkparseOptions
	// BlkparseStats reports what the converter kept and dropped.
	BlkparseStats = trace.BlkparseStats
	// TraceReplay is the bulk replay driver: a whole trace streamed
	// through a DeviceStack with streaming statistics only.
	TraceReplay = driver.Replay
	// ReplayConfig shapes a bulk trace replay (window, speedup, rate).
	ReplayConfig = driver.ReplayConfig
	// ReplayMetrics summarizes one replay run (P² quantiles, no samples).
	ReplayMetrics = driver.ReplayMetrics
	// Fleet drives many queued spindles on one event core.
	Fleet = driver.Fleet
	// FleetMetrics summarizes one Fleet run.
	FleetMetrics = driver.FleetMetrics
	// QueuedDevice turns any Device into a queue-depth-N device with a
	// pluggable scheduler.
	QueuedDevice = sched.Queue
	// QueueOption configures a queued device.
	QueueOption = sched.Option
	// Scheduler is a queued device's dispatch policy.
	Scheduler = sched.Scheduler
	// Completion pairs a finished request with its submission index.
	Completion = sched.Completion
	// CachedDevice is a host-side track-granular cache over any Device.
	CachedDevice = cache.Cache
	// CacheOption configures a cached device.
	CacheOption = cache.Option
	// CacheStats aggregates a cached device's hit/fill/eviction
	// activity.
	CacheStats = cache.Stats
	// DeviceStack is the composed host-side stack — a host cache over a
	// scheduling queue over a base device (cache → queue → device) —
	// and is itself a Device.
	DeviceStack = stack.Stack
	// StackConfig is the named-field form of the stack composition
	// (depth, scheduler name, cache budget), for CLI flags and study
	// grids; its zero value is a transparent passthrough and
	// StackConfig.Build composes it over any Device.
	StackConfig = stack.Config
	// Model is a named, calibrated drive model.
	Model = model.Model
	// Geometry is the physical description of a drive.
	Geometry = geom.Geometry
	// MechSpec holds a drive's mechanical parameters.
	MechSpec = mech.Spec
)

// Extraction types.
type (
	// ExtractOptions tunes the timing-based extraction.
	ExtractOptions = extract.Options
	// ExtractReport is its outcome.
	ExtractReport = extract.Report
	// SCSITarget is a simulated SCSI logical unit.
	SCSITarget = scsi.Target
	// DIXtracResult is the five-step characterization outcome.
	DIXtracResult = dixtrac.Result
)

// Case-study types.
type (
	// FFS is the simulated (traxtent-aware) file system.
	FFS = ffs.FS
	// FFSParams configures it.
	FFSParams = ffs.Params
	// VideoServer evaluates stream admission.
	VideoServer = video.Server
	// VideoConfig describes the server.
	VideoConfig = video.Config
	// VideoBackground configures the video server's mixed-workload
	// background small-I/O load.
	VideoBackground = video.Background
	// VideoRoundMetrics is one Monte-Carlo measurement of the video
	// server (round quantile, cache hit rate, background responses).
	VideoRoundMetrics = video.RoundMetrics
	// LFS is the miniature log-structured store.
	LFS = lfs.LFS
)

// Multi-tenant volume types. A VolumeManager maps many logical tenant
// volumes onto device shards — placement is deterministic and
// traxtent-granular, so no tenant extent ever straddles a track
// boundary — with per-tenant admission control, a tenant-aware
// scheduling tier above the per-shard queues, and streaming response
// accounting.
type (
	// VolumeManager is the multi-tenant volume server.
	VolumeManager = volume.Manager
	// TenantVolume is one logical volume inside a manager.
	TenantVolume = volume.Volume
	// VolumeManagerOption configures a volume manager.
	VolumeManagerOption = volume.Option
	// TenantOption configures one tenant volume at AddVolume time.
	TenantOption = volume.VolumeOption
	// TenantLimit is a tenant's admission-control policy: token-bucket
	// request and bandwidth rates and a queue-depth cap. The zero value
	// denies everything; omit WithTenantLimit for an unlimited tenant.
	TenantLimit = volume.TenantLimit
	// VolumeStats is one tenant's (or the cross-tenant aggregate's)
	// accounting snapshot, including streaming P² tail quantiles.
	VolumeStats = volume.VolumeStats
	// VolumeExtent is one placed extent of a tenant volume.
	VolumeExtent = volume.Extent
	// VolumeView adapts one tenant's volume to the Device interface.
	VolumeView = volume.View
)

// Zoned and flash-era types. A FlashDevice is the emulated
// conventional flash backend (erase blocks as natural extents); a
// ZonedDevice wraps any backend with host-managed zone semantics; an
// FTLDevice remaps logical blocks onto erase blocks with
// copy-on-write garbage collection. All three are Devices, so the
// cache, queue, stack, and LFS layers compose over them unchanged.
type (
	// FlashDevice is an emulated conventional flash device.
	FlashDevice = zoned.Flash
	// FlashOption configures a flash device.
	FlashOption = zoned.FlashOption
	// ZonedDevice wraps a backend with ZNS/SMR-style zone semantics:
	// per-zone write pointers, sequential-write enforcement, zone
	// resets, zone append, and an open-zone limit.
	ZonedDevice = zoned.Device
	// ZonedOption configures a zoned device.
	ZonedOption = zoned.Option
	// ZonedCapability is the structural interface any zoned device
	// exposes (zone table, write pointers, open-zone accounting, zone
	// reset); discover it through wrapper layers with ZonedOf.
	ZonedCapability = device.Zoned
	// FTLDevice is a flash translation layer over a flash device.
	FTLDevice = ftl.FTL
	// FTLOption configures an FTL.
	FTLOption = ftl.Option
	// FTLStats counts an FTL's background work (demand and copied
	// pages, erases, GC runs).
	FTLStats = ftl.Stats
)

// Failure-model types. A FaultyDevice wraps any Device in a
// deterministic fault injector; a parity-striped array (WithParity)
// survives one lost child; RebuildUnderLoad and ScrubArray drive
// regeneration and latent-error scrubbing through the host stack.
type (
	// FaultyDevice is a deterministic fault-injecting Device wrapper.
	FaultyDevice = faults.Injector
	// FaultOption configures a fault injector.
	FaultOption = faults.Option
	// FaultStats counts a fault injector's outcomes by class.
	FaultStats = faults.Stats
	// DeviceError is the typed failure every device layer returns: the
	// failing operation and request, wrapping one of the Err* classes.
	DeviceError = device.Error
	// RebuildConfig paces the regeneration of a lost parity-array
	// child (whole-track vs block-granular reads).
	RebuildConfig = workload.RebuildConfig
	// RebuildMetrics summarizes one rebuild-under-load run.
	RebuildMetrics = workload.RebuildMetrics
	// ForegroundLoad is the open-arrival tenant traffic a rebuild
	// competes with.
	ForegroundLoad = workload.ForegroundLoad
	// DriverWorkload describes a generated request population (the
	// Workload field of ForegroundLoad).
	DriverWorkload = driver.Workload
	// ScrubReport summarizes one ScrubArray pass.
	ScrubReport = workload.ScrubReport
)

// The device error classes. Every failure a device returns wraps
// exactly one of these inside a DeviceError; test with errors.Is.
var (
	// ErrInvalidRequest rejects a malformed request (clock untouched).
	ErrInvalidRequest = device.ErrInvalidRequest
	// ErrMedium is an unrecoverable medium (latent sector) error.
	ErrMedium = device.ErrMedium
	// ErrTimeout is a transient command timeout; retrying may succeed.
	ErrTimeout = device.ErrTimeout
	// ErrLost is whole-device loss; every later request fails the same
	// way.
	ErrLost = device.ErrLost
	// ErrZoneViolation is an out-of-protocol write on a zoned device
	// (not at the write pointer, across a zone end, or over the
	// open-zone limit) — a deterministic protocol error, not a fault:
	// IsFault reports false and the device state is untouched.
	ErrZoneViolation = device.ErrZoneViolation
	// ErrNoRecord is a strict-mode trace replay miss: the request has no
	// matching trace record (wrapped in a DeviceError carrying the
	// request).
	ErrNoRecord = trace.ErrNoRecord
	// ErrTraceCorrupt is structurally invalid binary trace data (bad
	// magic, truncation, mismatched trailer).
	ErrTraceCorrupt = trace.ErrCorrupt
)

// IsFault reports whether err is a device fault (medium error, timeout,
// or loss) as opposed to a malformed request or usage error — the
// classes parity reconstruction and rebuild treat as survivable.
func IsFault(err error) bool { return device.IsFault(err) }

// IsTransient reports whether err is worth retrying as-is (a timeout).
func IsTransient(err error) bool { return device.IsTransient(err) }

// ErrTenantRejected is wrapped by every admission-control rejection a
// volume manager returns; test with errors.Is.
var ErrTenantRejected = volume.ErrRejected

// FFS variants.
const (
	FFSUnmodified = ffs.Unmodified
	FFSFastStart  = ffs.FastStart
	FFSTraxtent   = ffs.Traxtent
)

// ---- Traxtent tables ----

// NewTable validates and adopts a boundary list.
func NewTable(bounds []int64) (*Table, error) { return traxtent.New(bounds) }

// DecodeTable parses a table from its on-disk encoding.
func DecodeTable(data []byte) (*Table, error) { return traxtent.UnmarshalBinary(data) }

// NewAllocator creates a whole-traxtent allocator.
func NewAllocator(t *Table) *Allocator { return traxtent.NewAllocator(t) }

// GroundTruthTable returns the boundary table straight from a device
// that knows its own layout (every simulated disk, striped arrays, and
// trace devices recorded from one) — what extraction is validated
// against. Devices without boundary knowledge return an error; run
// ExtractGeneral or Characterize on them instead.
func GroundTruthTable(d Device) (*Table, error) {
	bp, ok := d.(device.BoundaryProvider)
	if !ok {
		return nil, fmt.Errorf("traxtents: device %T exposes no track boundaries", d)
	}
	b := bp.TrackBoundaries()
	if len(b) < 2 {
		return nil, fmt.Errorf("traxtents: device %T exposes no track boundaries", d)
	}
	return traxtent.New(b)
}

// ---- Disk models and the simulator backend ----

// DiskModels lists the Table 1 drive models.
func DiskModels() []string { return model.Names() }

// DiskModel returns a named drive model.
func DiskModel(name string) (Model, error) { return model.Get(name) }

// MustDiskModel is DiskModel for static names in tests and examples; it
// panics on unknown names.
func MustDiskModel(name string) Model { return model.MustGet(name) }

// DiskOption adjusts a simulated disk's configuration.
type DiskOption func(*DiskConfig)

// WithConfig replaces the whole configuration (a zero DiskConfig is a
// bare drive on an infinitely fast bus, no cache).
func WithConfig(cfg DiskConfig) DiskOption { return func(c *DiskConfig) { *c = cfg } }

// WithCache sets the firmware read cache geometry; zero segments
// disables caching.
func WithCache(segments, segSectors int) DiskOption {
	return func(c *DiskConfig) { c.CacheSegments, c.CacheSegSectors = segments, segSectors }
}

// WithReadAhead enables or disables firmware prefetch.
func WithReadAhead(on bool) DiskOption { return func(c *DiskConfig) { c.ReadAhead = on } }

// WithSeed fixes the seed of the disk's noise processes.
func WithSeed(seed int64) DiskOption { return func(c *DiskConfig) { c.Seed = seed } }

// WithBusMBps sets the bus bandwidth; 0 simulates an infinitely fast bus.
func WithBusMBps(mbps float64) DiskOption { return func(c *DiskConfig) { c.BusMBps = mbps } }

// WithCmdOverhead sets the per-command controller time in ms.
func WithCmdOverhead(ms float64) DiskOption { return func(c *DiskConfig) { c.CmdOverhead = ms } }

// WithSeekNoise adds |N(0,sd)| ms of positioning noise per access.
func WithSeekNoise(sd float64) DiskOption { return func(c *DiskConfig) { c.SeekNoiseSD = sd } }

// WithHostNoise adds |N(0,sd)| ms of host-observed completion jitter —
// the noise timing-based extraction must tolerate.
func WithHostNoise(sd float64) DiskOption { return func(c *DiskConfig) { c.HostNoiseSD = sd } }

// WithOutOfOrderBus allows data delivery in media order (Figure 7).
func WithOutOfOrderBus(on bool) DiskOption { return func(c *DiskConfig) { c.OutOfOrderBus = on } }

// NewDisk builds a simulated disk of the given model. It starts from
// the model's default configuration (the paper's experimental setup:
// segmented firmware cache, read-ahead, the adapter's bus) and applies
// the options in order.
func NewDisk(m Model, opts ...DiskOption) (*Disk, error) {
	cfg := m.DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return m.NewDisk(cfg)
}

// ---- Multi-disk and trace-driven backends ----

// WithChunkSectors switches a striped array to fixed chunks (ordinary
// RAID-0) instead of traxtent-matched stripe units.
func WithChunkSectors(n int64) StripedOption { return striped.WithChunkSectors(n) }

// WithParity adds RAID-5-style rotating parity to a striped array: one
// unit per stripe holds the XOR of the others and the logical space
// exposes only the data units. Stripe units stay keyed to the
// children's traxtents, so no parity unit straddles a track. A parity
// array survives one lost child (StripedDevice.Lose): degraded reads
// reconstruct from the survivors bit-identically, medium errors on
// healthy children are reconstructed and repaired in place, and
// StripedDevice.Replace splices a regenerated spare back in.
func WithParity() StripedOption { return striped.WithParity() }

// NewStripedDevice stripes the children into one device, round-robin in
// stripe units that are by default the children's own traxtents: array
// track j is child (j mod N)'s track (j div N), whatever its length, so
// an aligned stripe-unit read costs exactly one zero-latency whole-track
// access on one child, and full-stripe requests drive all children in
// parallel. The array's GroundTruthTable is its stripe-unit map.
func NewStripedDevice(children []Device, opts ...StripedOption) (*StripedDevice, error) {
	return striped.New(children, opts...)
}

// ---- Queueing and scheduling ----

// NewQueuedDevice wraps a device in a scheduling queue: up to
// WithQueueDepth requests are outstanding at once and WithScheduler
// picks the service order. The queue is itself a Device (Serve is a
// submit-and-flush barrier) and forwards the wrapped device's
// capabilities; concurrent workloads use the batch contract,
// Submit/DrainEach (or Drain). Defaults: depth 1, FCFS — a
// transparent, bit-identical passthrough.
func NewQueuedDevice(d Device, opts ...QueueOption) (*QueuedDevice, error) {
	return sched.New(d, opts...)
}

// WithQueueDepth sets the number of requests outstanding at the device
// at once — the scheduler's reordering window.
func WithQueueDepth(n int) QueueOption { return sched.WithDepth(n) }

// WithScheduler sets the dispatch policy of a queued device.
func WithScheduler(s Scheduler) QueueOption { return sched.WithScheduler(s) }

// SchedulerFCFS is first-come-first-served: arrival order, bit-identical
// to the bare device.
func SchedulerFCFS() Scheduler { return sched.FCFS() }

// SchedulerSSTF is shortest-seek-time-first over LBN distance.
func SchedulerSSTF() Scheduler { return sched.SSTF() }

// SchedulerCLOOK is the circular-LOOK elevator over start LBNs.
func SchedulerCLOOK() Scheduler { return sched.CLOOK() }

// SchedulerTraxtent is the traxtent-aware C-LOOK: the sweep is keyed by
// track, so a track-aligned request is never split across a sweep
// boundary. The device must expose track boundaries.
func SchedulerTraxtent(d Device) (Scheduler, error) { return sched.TraxtentCLOOKFor(d) }

// SchedulerZoned is the zone-aware C-LOOK: the sweep is keyed by zone
// and requests within a zone dispatch in ascending LBN (write-pointer
// order), so no request is ever dispatched across a zone boundary.
// The device must expose zones (ZonedOf) or track boundaries (an
// FTL's erase blocks).
func SchedulerZoned(d Device) (Scheduler, error) { return sched.ZonedCLOOKFor(d) }

// SchedulerByName resolves "fcfs", "sstf", "clook", "traxtent", or
// "zoned" (the latter two derive their boundary tables from d).
func SchedulerByName(name string, d Device) (Scheduler, error) { return sched.ByName(name, d) }

// WithQueuedChildren makes a striped array wrap every child in its own
// scheduling queue — per-spindle command queueing.
func WithQueuedChildren(opts ...QueueOption) StripedOption {
	return striped.WithQueuedChildren(opts...)
}

// ---- Host caching and prefetching ----

// NewCachedDevice wraps any device in a deterministic host-side cache:
// track-granular lines (the device's own traxtents, or its stripe
// units over an array; fixed lines when it has no boundaries), LRU or
// segmented-LRU eviction, write-through or write-back, and whole-track
// readahead. The cache is itself a Device forwarding the wrapped
// device's capabilities, so it composes freely — the canonical stack
// is NewDeviceStack (cache over queue over device); the inverse
// NewQueuedDevice(NewCachedDevice(disk)) lets the scheduler reorder
// the miss stream instead. Defaults: 4 MB,
// readahead on, write-through, plain LRU. A zero-size cache is a
// transparent bypass, bit-identical to the bare device.
//
// This is the host layer above the device; a simulated disk's own
// firmware cache is configured with the WithCache DiskOption.
func NewCachedDevice(d Device, opts ...CacheOption) (*CachedDevice, error) {
	return cache.New(d, opts...)
}

// WithCacheMB sets the host cache budget in megabytes (0 bypasses).
func WithCacheMB(mb float64) CacheOption { return cache.WithCapacityMB(mb) }

// WithCacheSectors sets the host cache budget in sectors (0 bypasses).
func WithCacheSectors(n int64) CacheOption { return cache.WithCapacitySectors(n) }

// WithReadahead enables whole-track readahead in the host cache: a
// missing read is promoted to a full fill of every track it touches.
// (Firmware prefetch inside a simulated disk is the WithReadAhead
// DiskOption.)
func WithReadahead(on bool) CacheOption { return cache.WithReadahead(on) }

// WithWriteBack switches the host cache from write-through to
// write-back: writes are absorbed into dirty lines and reach the
// device coalesced, on eviction or CachedDevice.FlushDirty.
func WithWriteBack(on bool) CacheOption { return cache.WithWriteBack(on) }

// WithSegmentedLRU switches host-cache eviction from plain LRU to
// scan-resistant segmented LRU.
func WithSegmentedLRU(on bool) CacheOption { return cache.WithSegmentedLRU(on) }

// WithCacheLineSectors sets the host cache's line size for devices
// that expose no track boundaries.
func WithCacheLineSectors(n int64) CacheOption { return cache.WithLineSectors(n) }

// NewDeviceStack composes the canonical host-side stack — a host cache
// over a scheduling queue over the base device (cache → queue →
// device) — from facade option lists: WithQueueDepth/WithScheduler for
// the queue, WithCacheMB et al. for the cache. Unlike NewCachedDevice,
// the unoptioned stack's cache budget is zero, so a bare NewDeviceStack
// is a transparent passthrough pinned bit-identical to the device. The
// application layers (video server via VideoConfig.Stack, FFS via
// FFSParams.Stack) build the same composition from a StackConfig.
func NewDeviceStack(d Device, qopts []QueueOption, copts []CacheOption) (*DeviceStack, error) {
	return stack.New(d, qopts, copts)
}

// NewRecorder wraps a device, capturing a Trace of every request served
// through it.
func NewRecorder(d Device) *Recorder { return trace.NewRecorder(d) }

// NewTraceDevice builds a replay device from a captured trace: requests
// are matched to trace records by (LBN, length, direction) and served
// with the recorded service times, no simulator required.
func NewTraceDevice(tr Trace, opts ...TraceOption) (*TraceDevice, error) {
	return trace.NewPlayer(tr, opts...)
}

// StrictReplay makes a trace device fail requests with no matching
// record instead of serving them at the trace's mean service time.
func StrictReplay() TraceOption { return trace.Strict() }

// DecodeTrace parses a JSON-encoded trace (see Trace.Encode).
func DecodeTrace(data []byte) (Trace, error) { return trace.Decode(data) }

// EncodeTraceBinary serializes a trace in the compact binary format —
// several times smaller than JSON and much faster to decode, lossless
// and canonical (decode → encode reproduces the bytes). For captures
// too large to materialize, stream through NewTraceWriter instead.
func EncodeTraceBinary(tr Trace) ([]byte, error) { return trace.EncodeBinary(tr) }

// DecodeTraceBinary parses a binary-encoded trace, validating every
// record as it decodes. Structural damage fails with ErrTraceCorrupt;
// semantically invalid records fail with ErrInvalidRequest and the
// record's index.
func DecodeTraceBinary(data []byte) (Trace, error) { return trace.DecodeBinary(data) }

// NewTraceWriter streams a binary trace to w: the header (tr with
// Records ignored) is written eagerly, then each Write appends one
// record and Close seals the stream with a record-count trailer.
func NewTraceWriter(w io.Writer, header Trace) (*TraceWriter, error) {
	return trace.NewWriter(w, header)
}

// NewTraceReader opens a binary trace stream for record-at-a-time
// reading; Next returns io.EOF only at a clean trailer, so truncation
// is always detected.
func NewTraceReader(r io.Reader) (*TraceReader, error) { return trace.NewReader(r) }

// ParseBlkparse converts `blkparse` text output (from blktrace) into a
// Trace: dispatch→completion pairs become records with real service
// times and arrival instants.
func ParseBlkparse(r io.Reader, opt BlkparseOptions) (Trace, BlkparseStats, error) {
	return trace.ParseBlkparse(r, opt)
}

// NewTraceReplay builds a bulk replay driver: the trace streams through
// the stack in bounded windows with streaming statistics only, so
// million-request replays run in O(window) memory and allocate nothing
// per request in the steady state.
func NewTraceReplay(st *DeviceStack, tr Trace, cfg ReplayConfig) (*TraceReplay, error) {
	return driver.NewReplay(st, tr, cfg)
}

// NewFleet drives len(qs) queued spindles with decorrelated synthetic
// workloads on one event core (the scale harness of BENCH_events.json).
func NewFleet(qs []*QueuedDevice, wl DriverWorkload, ratePerSec float64) (*Fleet, error) {
	return driver.NewFleet(qs, wl, ratePerSec)
}

// NewTraceFleet replays one recorded trace per spindle on one event
// core; partition a large capture round-robin to get equal per-spindle
// record counts.
func NewTraceFleet(qs []*QueuedDevice, trs []Trace) (*Fleet, error) {
	return driver.NewTraceFleet(qs, trs)
}

// ---- Zoned and flash backends ----

// NewFlashDevice builds an emulated conventional flash device with the
// given capacity in sectors: a single-server command queue with flat
// access costs, an explicit erase operation, and erase blocks as its
// natural extents (TrackBoundaries reports them).
func NewFlashDevice(capacity int64, opts ...FlashOption) (*FlashDevice, error) {
	return zoned.NewFlash(capacity, opts...)
}

// WithEraseSectors sets a flash device's erase-block size in sectors
// (default 1024).
func WithEraseSectors(n int64) FlashOption { return zoned.WithEraseSectors(n) }

// WithFlashTiming overrides a flash device's access costs, all in ms:
// per-command overhead, read latency, program latency, erase latency,
// and per-sector transfer time.
func WithFlashTiming(cmd, read, program, erase, xferPerSector float64) FlashOption {
	return zoned.WithFlashTiming(cmd, read, program, erase, xferPerSector)
}

// NewZonedDevice wraps any backend with host-managed zone semantics:
// the address space is carved into zones, each with a write pointer,
// and writes must land exactly on the pointer (ErrZoneViolation
// otherwise). Over a disk simulator it is an SMR drive; over a flash
// device, a ZNS SSD. With one giant zone and a sequential stream it is
// bit-identical to the backend it wraps.
func NewZonedDevice(inner Device, opts ...ZonedOption) (*ZonedDevice, error) {
	return zoned.New(inner, opts...)
}

// WithZones carves the capacity into n equal zones (default 32).
func WithZones(n int) ZonedOption { return zoned.WithZones(n) }

// WithZoneSectors sets the zone size in sectors instead (the last zone
// takes the remainder).
func WithZoneSectors(n int64) ZonedOption { return zoned.WithZoneSectors(n) }

// WithMaxOpenZones limits how many zones may be open at once; writes
// that would open one more are zone violations (0 = unlimited).
func WithMaxOpenZones(n int) ZonedOption { return zoned.WithMaxOpenZones(n) }

// WithZoneResetMs sets the zone-reset latency in ms (default 0.5).
func WithZoneResetMs(ms float64) ZonedOption { return zoned.WithResetMs(ms) }

// ZonedOf discovers the zoned capability of a device or any wrapper
// over one (cache, queue, stack, fault injector), by walking the
// Inner chain.
func ZonedOf(d Device) (ZonedCapability, bool) { return device.ZonedOf(d) }

// NewFTLDevice builds a flash translation layer over a flash (or any
// erasable) device: logical pages remap onto erase blocks, overwrites
// invalidate old pages, and copy-on-write garbage collection reclaims
// the emptiest sealed blocks. TrackBoundaries reports the logical
// erase-block extents — what a flash-aware host should align to.
func NewFTLDevice(inner Device, opts ...FTLOption) (*FTLDevice, error) {
	return ftl.New(inner, opts...)
}

// WithPageSectors sets the FTL's mapping-page size in sectors
// (default 8).
func WithPageSectors(n int64) FTLOption { return ftl.WithPageSectors(n) }

// WithEraseBlockSectors sets the FTL's erase-block size in sectors;
// by default it adopts the inner flash device's.
func WithEraseBlockSectors(n int64) FTLOption { return ftl.WithEraseBlockSectors(n) }

// WithReserveBlocks sets the FTL's overprovisioned reserve in erase
// blocks (default 1/8 of the device, minimum 2).
func WithReserveBlocks(n int) FTLOption { return ftl.WithReserveBlocks(n) }

// ZoneSegments returns one LFS segment extent per zone of a zoned
// device (or any wrapper over one) — the natural segment map where
// every log flush is a sequential zone fill and every cleaner reclaim
// is one zone reset.
func ZoneSegments(d Device) ([]Extent, error) { return lfs.ZoneSegments(d) }

// ---- Fault injection and rebuild ----

// NewFaultyDevice wraps a device in a deterministic fault injector:
// seeded latent sector errors (WithLatentErrors, WithBadRange),
// transient timeouts (WithTimeoutProb), and whole-disk loss
// (WithFailAt, or FaultyDevice.FailNow). Every injected failure is a typed
// DeviceError wrapping ErrMedium, ErrTimeout, or ErrLost, and never
// advances the wrapped device's clock; writes heal the latent ranges
// they cover. An unoptioned injector is a transparent passthrough.
func NewFaultyDevice(d Device, opts ...FaultOption) (*FaultyDevice, error) {
	return faults.New(d, opts...)
}

// WithFaultSeed fixes the injector's random streams (latent-error
// placement and timeout draws); same seed, same faults.
func WithFaultSeed(seed int64) FaultOption { return faults.WithSeed(seed) }

// WithLatentErrors seeds n latent bad ranges of up to span sectors
// each, placed deterministically from the injector's seed.
func WithLatentErrors(n int, span int64) FaultOption { return faults.WithLatentErrors(n, span) }

// WithBadRange marks one explicit LBN range as bad.
func WithBadRange(lbn, sectors int64) FaultOption { return faults.WithBadRange(lbn, sectors) }

// WithTimeoutProb makes each served request time out with probability
// p, drawn from the injector's seeded stream.
func WithTimeoutProb(p float64) FaultOption { return faults.WithTimeoutProb(p) }

// WithFailAt schedules whole-device loss at virtual time t: every
// request issued at or after t fails with ErrLost.
func WithFailAt(t float64) FaultOption { return faults.WithFailAt(t) }

// RebuildUnderLoad regenerates the lost child of a degraded parity
// array onto spare while the open-arrival foreground load competes for
// the same stack: rebuild reads are submitted through q (a queue over
// the array, directly or via a host cache) as a closed loop with one
// outstanding request, foreground requests arrive at their seeded
// Poisson instants, and the scheduler arbitrates. RebuildConfig picks
// whole-track or block-granular rebuild reads; after a full
// regeneration the spare is spliced into the array. Returns rebuild
// time and bandwidth plus the foreground response tail during the run.
func RebuildUnderLoad(q *QueuedDevice, arr *StripedDevice, spare Device, fg ForegroundLoad, rc RebuildConfig) (RebuildMetrics, error) {
	return workload.RebuildUnderLoad(q, arr, spare, fg, rc)
}

// ScrubArray reads every stripe unit of a parity array — parity units
// included, which the logical read path never touches — repairing each
// latent medium error in place from the survivor set.
func ScrubArray(arr *StripedDevice, at float64) (ScrubReport, error) {
	return workload.Scrub(arr, at)
}

// ---- Multi-tenant volumes ----

// NewVolumeManager builds a multi-tenant volume server over the shard
// devices: AddVolume places tenant volumes on whole traxtents (never
// straddling a track boundary), Submit/Drain serve tenant requests
// through per-tenant admission control and the tenant-aware scheduling
// tier (ServeTenant is a batch of one), and VolumeStats/Aggregate report
// streaming response accounting. A single-tenant manager with no limit
// over an unoptioned tier is a transparent passthrough, bit-identical
// to serving the shard directly.
func NewVolumeManager(shards []Device, opts ...VolumeManagerOption) (*VolumeManager, error) {
	return volume.New(shards, opts...)
}

// WithVolumeTier sets the tenant-aware scheduling tier above the
// per-shard queues: "fcfs" (arrival order, the passthrough default),
// "fair" (start-time fair queueing weighted by WithTenantWeight), or
// "edf" (earliest deadline first over WithTenantDeadline).
func WithVolumeTier(name string) VolumeManagerOption { return volume.WithTier(name) }

// WithVolumeTierDepth sets each shard tier's queue depth — the
// tenant-aware scheduler's reordering window (default 1).
func WithVolumeTierDepth(n int) VolumeManagerOption { return volume.WithTierDepth(n) }

// WithVolumeExtentSectors switches placement from the shards' own
// traxtents to a fixed-size extent grid — the size-matched unaligned
// layout the studies compare against.
func WithVolumeExtentSectors(n int64) VolumeManagerOption { return volume.WithExtentSectors(n) }

// WithVolumeDeadline sets the default EDF deadline (ms) for tenants
// without their own WithTenantDeadline.
func WithVolumeDeadline(ms float64) VolumeManagerOption { return volume.WithDefaultDeadline(ms) }

// WithTenantLimit attaches an admission-control policy to a tenant
// volume; requests over the limit are rejected (wrapping
// ErrTenantRejected) or, with TenantLimit.Defer, shaped to the bucket's
// deterministic release time.
func WithTenantLimit(l TenantLimit) TenantOption { return volume.WithLimit(l) }

// WithTenantWeight sets a tenant's fair-share weight (default 1).
func WithTenantWeight(w float64) TenantOption { return volume.WithWeight(w) }

// WithTenantDeadline sets a tenant's EDF deadline in ms.
func WithTenantDeadline(ms float64) TenantOption { return volume.WithDeadline(ms) }

// ---- Boundary extraction ----

// ExtractGeneral runs the timing-based boundary extraction (§4.1.1) on
// any rotational device.
func ExtractGeneral(d Device, opts ExtractOptions) (*ExtractReport, error) {
	return extract.General(d, opts)
}

// NewSCSITarget attaches a SCSI target to a device. Data commands work
// on every backend; the diagnostic translation pages that Characterize
// needs require a device with a physical layout (a simulated disk).
func NewSCSITarget(d Device) *SCSITarget { return scsi.NewTarget(d) }

// Characterize runs the DIXtrac five-step SCSI extraction (§4.1.2).
func Characterize(t *SCSITarget) (*DIXtracResult, error) { return dixtrac.Characterize(t) }

// CharacterizeFallback runs the expertise-free SCSI walk (~2
// translations per track).
func CharacterizeFallback(t *SCSITarget) (*Table, error) { return dixtrac.Fallback(t) }

// ---- Case studies ----

// NewFFS formats a simulated file system over a device.
func NewFFS(d Device, p FFSParams) (*FFS, error) { return ffs.New(d, p) }

// NewVideoServer creates a video-server admission evaluator; set
// VideoConfig.NewDevice to evaluate a non-simulator backend.
func NewVideoServer(cfg VideoConfig) (*VideoServer, error) { return video.New(cfg) }

// NewLFS builds a log-structured store over the given segments of a
// device.
func NewLFS(d Device, segments []Extent, blockSectors int64) (*LFS, error) {
	return lfs.NewLFS(d, segments, blockSectors)
}

// NewLFSStack builds the log-structured store over the composed host
// stack (cache → scheduling queue → device); the zero StackConfig is
// the bit-identical passthrough, and a cache budget makes the
// cleaner's segment re-reads host hits.
func NewLFSStack(d Device, cfg StackConfig, segments []Extent, blockSectors int64) (*LFS, error) {
	return lfs.NewLFSStack(d, cfg, segments, blockSectors)
}
