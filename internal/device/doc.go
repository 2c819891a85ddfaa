// Package device defines the storage-device abstraction at the heart of
// the v1 API: the paper's thesis is that track-aligned access is a
// property of the *storage interface*, not of one drive, so everything
// above the device layer — extraction, traxtent tables, allocators, the
// FFS/LFS/video case studies — speaks to this small interface instead of
// a concrete simulator type.
//
// A Device services timed requests against a logical block address
// space. The calibrated disk simulator (internal/disk/sim) is one
// implementation; a traxtent-striped multi-disk array (striped) and a
// trace-replay device (trace) are others. Capabilities beyond request
// service — rotation period, track boundaries, a full physical mapping —
// are optional interfaces discovered by type assertion, because not
// every backend has them (a replayed trace has no spindle; a striped
// array has no single physical geometry).
//
// Key types: Device (Serve/Now/Capacity/SectorSize), Request and Result
// (plain values carrying the full virtual-time timing record), and the
// capability interfaces Rotational, BoundaryProvider, Mapped, and
// Named. Batch is the asynchronous Submit/DrainEach contract of the
// layers that queue or fan out requests. CheckRequest is the shared validation gate every backend
// routes through, so acceptance is identical across implementations.
//
// Determinism: all time is virtual, computed analytically on the
// caller's goroutine — a Device never spawns goroutines or reads wall
// clocks, so any fixed-seed workload over any backend is bit-identical
// at any GOMAXPROCS. Wrappers (sched.Queue, cache.Cache, stack.Stack)
// preserve this by construction.
package device
