// Package cache implements a deterministic host-side cache over any
// device.Device. The paper's core observation — a track-aligned request
// gets a whole-track read at near-zero rotational cost — makes
// track-granular prefetching almost free, so the cache's lines follow
// the wrapped device's own track (traxtent) boundaries: line i is the
// device's track i, whatever its length, discovered through the
// device.BoundaryProvider capability. Striped arrays publish their
// stripe units as boundaries, so the same layer caches stripe-unit
// lines over an array; devices with no boundary knowledge fall back to
// fixed sector-granular lines.
//
// The cache wraps any backend (simulator, striped array, trace replay,
// sched.Queue) and is itself a device.Device forwarding the wrapped
// device's capabilities, so it slots in anywhere in the stack. It has
// one request path, the device.Batch contract (Submit/DrainEach);
// Serve is a batch of one. Over a device.Batch inner, misses, fills,
// and writebacks go through the inner Submit, so the inner scheduler
// orders them. The canonical composition (package stack, used by the
// application layers) puts it outermost, over the scheduling queue
// (cache → queue → device), so hits resolve at host-port speed while
// misses and fills ride the queue's lazy dispatch; the inverse order
// (queue → cache → disk, as in repro.CacheStudy) lets the scheduler
// reorder the miss stream instead. Policies: LRU or segmented-LRU (SLRU)
// eviction over a sector budget, write-through (write-allocate) or
// write-back with coalesced, ordered flushes, and a whole-track
// readahead policy that promotes a missing read to a full fill of every
// line it touches — the host analogue of the paper's free whole-track
// access.
//
// Determinism is a hard requirement, exactly as for sched and the
// workload driver: all state changes happen on the caller's goroutine
// in virtual time, recency is tracked with intrusive lists (never map
// iteration order), and a run is bit-identical for a fixed seed at any
// GOMAXPROCS. A cache with a zero sector budget is a transparent
// bypass, pinned bit-identical to the bare device by differential test.
package cache
