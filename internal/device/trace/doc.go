// Package trace implements trace-driven storage: a Recorder that wraps
// any device and captures each request's observed service time, and a
// Player that serves requests from such a trace without any simulator —
// replay of a captured workload costs at most one key-table probe per
// request, and none when requests arrive in trace order.
//
// The Player models the device as a single server: a request issued at
// time t starts at max(t, previous completion) and completes one
// recorded service time later. Requests are matched to trace records by
// (LBN, length, direction), each record consumed once in trace order,
// so replaying the workload that produced the trace reproduces its
// timing; unmatched requests fall back to the trace's mean service time
// (or fail, under Strict).
//
// Key types: Trace (the capture, carrying the device identity:
// capacity, sector size, rotation period, boundaries), Record (one
// traced request), Recorder, and Player. The Player forwards whatever
// capabilities the trace recorded, so traxtent tables build over
// replays; Reset rewinds record consumption (never the clock) so one
// Player replays its trace any number of times without allocating.
//
// Traces carry two encodings. Encode/Decode is JSON, for tests and
// interchange. EncodeBinary/DecodeBinary is the compact varint-delta
// format (.trx, magic "TRXB") — several times smaller and an order of
// magnitude faster to decode at a million records — with streaming
// Writer/Reader counterparts that never hold the record set in
// memory. Both decoders validate the header and every record through
// the same overflow-safe bounds gate live requests go through
// (device.CheckBounds), failing with the record index in the error.
// ParseBlkparse converts Linux blktrace/blkparse text output into a
// Trace.
//
// Errors are typed: structurally corrupt binary input fails with
// ErrCorrupt, semantically invalid traces wrap
// device.ErrInvalidRequest, and a strict-mode replay miss is a
// *device.Error wrapping ErrNoRecord — a driver-level divergence
// signal, not a device fault.
//
// Determinism: replay consumes records in trace order on the caller's
// goroutine with no randomness at all — identical traces replay
// bit-identically everywhere.
package trace
