// Package stack composes the canonical host-side device stack — a host
// cache over a scheduling queue over a base device (cache →
// sched.Queue → Device) — behind one constructor, so the application
// layers (video server, FFS, the repro studies, the cmd tools) wire the
// same composition instead of hand-assembling it.
//
// Key types: Stack embeds the outermost cache layer, so it is itself a
// device.Batch with the cache's Submit/DrainEach path (hits resolve
// at host-port speed at submission time; misses and fills ride the
// queue's lazy scheduler dispatch) and forwards every capability of the
// base device — boundary tables, layouts, and rotation periods build
// through the whole stack. Config is the named-field form (depth,
// scheduler name, cache megabytes) used by CLI flags and study grids;
// option lists (the facade's WithQueueDepth/WithScheduler and
// WithCacheMB et al. re-exports) compose on top via New or
// Config.QueueOpts/CacheOpts.
//
// Determinism: the stack adds no state of its own — both layers run on
// the caller's goroutine in virtual time, so a fixed-seed run through a
// Stack is bit-identical at any GOMAXPROCS. The zero Config (and an
// unoptioned New) is the transparent passthrough — depth-1 FCFS queue
// over a zero-budget cache — pinned bit-identical to the bare device by
// differential test, which is what lets consumers route through a Stack
// unconditionally.
package stack
