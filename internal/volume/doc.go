// Package volume is the multi-tenant volume server: a Manager maps
// many logical volumes — one per tenant, each a private LBN space —
// onto one or more shard devices (striped arrays, composed host
// stacks, or bare disks), and arbitrates the tenants' requests on the
// way down.
//
// Placement is deterministic and traxtent-granular: a volume is a list
// of whole extents, each extent one traxtent (track or stripe unit) of
// its shard, chosen by an FNV hash of (tenant, extent index) over the
// shards and lowest-free-first within a shard, so a volume request
// never straddles a track boundary unless the tenant's own request
// does. WithExtentSectors switches to fixed-size extents that ignore
// the shards' boundaries — the unaligned layout the tenant study
// compares against.
//
// Above the shards sits per-tenant admission control (token-bucket
// request-rate and bandwidth limits with deterministic rejection or
// deferral, plus queue-depth caps) and a scheduler tier — start-time
// fair queueing or earliest-deadline-first across tenants — running as
// a sched.Queue over each shard, above whatever per-spindle scheduling
// the shard itself composes. Per-tenant response tails (p50/p99/
// p99.99) are accounted online with the stats.Quantile P² estimator,
// so no samples are stored: each completion queues its response time
// on a stats.Feed, which applies the updates in batches on a helper
// goroutine, and VolumeStats, Stats and Aggregate sync the feed before
// they read an estimate.
//
// Determinism: the Manager is single-goroutine like the rest of the
// stack (the feed's helper only ever touches the estimators, in
// completion order, and is joined before anyone reads them);
// placement, admission, scheduling, and accounting are pure
// functions of the construction parameters and the submitted request
// sequence. A single-tenant Manager with no limits and the default
// tier (depth-1 FCFS) is a transparent passthrough, pinned
// bit-identical to the bare shard by a differential test.
package volume
