// Package striped implements a multi-disk array device: the paper's
// track-aligned ideas at RAID scale. The array's stripe units are by
// default the children's own traxtents — array track j is child
// (j mod N)'s track (j div N), whatever its individual length — so a
// stripe-unit-aligned read is exactly one zero-latency whole-track
// access on one child even as track sizes drift across zones, spare
// areas, and slipped defects, and a full-stripe read drives all N
// children in parallel with one such access each. Fixed-size chunks
// (ordinary RAID-0) are available via WithChunkSectors.
//
// The array is itself a device.BoundaryProvider whose "tracks" are its
// stripe units, so a traxtent table built over the array (via the
// facade's GroundTruthTable) aligns requests to stripe units exactly as
// a single-disk table aligns them to tracks.
//
// Key types: Array (a device.Batch whose Serve is a batch of one;
// Submit lazily queues spans on queued children, so every spindle's
// scheduler reorders its own span stream), Option (WithChunkSectors,
// WithQueuedChildren, WithParity).
//
// Spans are routed back and joined by the fan-out ledger the volume
// manager shares (device.Routes, device.Joins).
//
// Determinism: span fan-out and join run on the caller's goroutine in
// virtual time; child order is fixed and joins sum bus time in split
// order, so a seeded workload over an array is bit-identical at any
// GOMAXPROCS, and Submit/DrainEach is pinned bit-identical to Serve on
// plain and FCFS-queued children.
package striped
