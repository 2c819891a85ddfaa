// Package event is the global discrete-event core: one batched binary
// event heap, keyed by (time, seq), that advances an arbitrary number
// of simulated devices and drivers on a single clock.
//
// The rest of the stack joins per-device clocks at Drain barriers —
// correct, but every join walks all devices, so a fleet-scale run pays
// O(devices) per step. The core inverts that: each device registers a
// Handler, schedules its next interesting instant as an event, and the
// run advances by popping the globally earliest event — O(log n) per
// step regardless of fleet width.
//
// Determinism is the load-bearing property. Virtual times are float64,
// and independent devices routinely produce exactly equal instants
// (identical spindles given identical streams tie bit-for-bit). A heap
// keyed by time alone would resolve such ties by heap-internal
// placement — effectively by insertion history — which is how the
// legacy per-device join loops came to resolve ties by slice order.
// Every event therefore carries a monotone sequence number assigned at
// Schedule time, and the heap orders by (time, seq): simultaneous
// events fire in scheduling order, a total order that is reproducible
// at any GOMAXPROCS and independent of map iteration or slice layout.
//
// Three pieces compose:
//
//   - Core: the event heap plus handler registry. Schedule enqueues,
//     AdvanceTo/AdvanceBefore/Drain fire events in (time, seq) order.
//     AdvanceTo is inclusive (fires events at exactly t) — the
//     closed-world cut, for callers whose arrivals are themselves
//     events; AdvanceBefore is strict — the open-world cut matching
//     sched.Queue.AdvanceTo, for callers that may still submit
//     arrivals at t.
//   - Queues: the citizen adapter for sched.Queue fleets whose
//     decisions must interleave with arrival events on one clock
//     (driver.Fleet, workload.RebuildUnderLoad). It keeps one live
//     event per queue (its next dispatch-decision instant), lazily
//     invalidated by generation tags, so a fleet of a thousand
//     spindles advances by touching only the queues whose decisions
//     are actually due. Independent queues fed from outside — a
//     striped array's children, a volume's shard tiers — need no core:
//     each queue's own AdvanceTo or Flush, in index order, commits the
//     same decisions.
//   - Arena: a typed free-list pool for request/completion records, so
//     drivers keep zero allocations per request in steady state.
//
// Everything runs on the caller's goroutine; the core is
// single-threaded by design, like every layer it drives.
package event
