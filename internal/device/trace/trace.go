package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"traxtents/internal/device"
	"traxtents/internal/disk/geom"
)

// ErrNoRecord is the typed class for a strict-mode replay miss: the
// request found no unconsumed trace record with its (LBN, length,
// direction) key. Replay drivers branch on it with errors.Is — a miss
// means the offered workload diverged from the captured one, which is
// a driver-level condition, not a device fault (device.IsFault is
// false for it).
var ErrNoRecord = errors.New("no matching trace record")

// Record is one traced request: what was asked, when the device saw it
// (Issue, ms from trace start; 0 when the capture did not carry
// arrival times), and how long the device was dedicated to it (Start
// to Done, in ms).
type Record struct {
	LBN     int64   `json:"lbn"`
	Sectors int     `json:"sectors"`
	Write   bool    `json:"write,omitempty"`
	Issue   float64 `json:"issue_ms,omitempty"`
	Service float64 `json:"service_ms"`
}

// Trace is a captured workload plus the device identity needed to serve
// it back: capacity, sector size, and (when the source device had them)
// rotation period and track boundaries.
type Trace struct {
	Name           string   `json:"name,omitempty"`
	Capacity       int64    `json:"capacity"`
	SectorSize     int      `json:"sector_size"`
	RotationPeriod float64  `json:"rotation_period_ms,omitempty"`
	Boundaries     []int64  `json:"boundaries,omitempty"`
	Records        []Record `json:"records"`
}

// Encode serializes the trace as JSON. For anything beyond test-sized
// traces use EncodeBinary / NewWriter (binary.go): the compact format
// is several times smaller and decodes much faster.
func (tr Trace) Encode() ([]byte, error) { return json.Marshal(tr) }

// checkHeader validates the device-identity part of a trace.
func checkHeader(tr Trace) error {
	if tr.Capacity <= 0 || tr.SectorSize <= 0 {
		return fmt.Errorf("trace: %w: decoded header invalid (capacity %d, sector size %d)",
			device.ErrInvalidRequest, tr.Capacity, tr.SectorSize)
	}
	return nil
}

// checkRecord validates one record against the trace header. The
// bounds test is the same overflow-safe gate live requests go through
// (device.CheckBounds), so a trace that loads is a trace that replays.
func checkRecord(i int, rec Record, capacity int64) error {
	if err := device.CheckBounds(rec.LBN, rec.Sectors, capacity); err != nil {
		return fmt.Errorf("trace: record %d: %w", i, err)
	}
	if !(rec.Service >= 0) || math.IsInf(rec.Service, 0) {
		return fmt.Errorf("trace: record %d: %w: bad service time %g",
			i, device.ErrInvalidRequest, rec.Service)
	}
	if !(rec.Issue >= 0) || math.IsInf(rec.Issue, 0) {
		return fmt.Errorf("trace: record %d: %w: bad issue time %g",
			i, device.ErrInvalidRequest, rec.Issue)
	}
	return nil
}

// checkRecords validates every record of a decoded trace.
func checkRecords(tr Trace) error {
	for i, rec := range tr.Records {
		if err := checkRecord(i, rec, tr.Capacity); err != nil {
			return err
		}
	}
	return nil
}

// Decode parses a JSON-encoded trace. Both the header and every record
// are validated here — hostile or corrupt ranges fail at load time
// with the record index in the error (wrapping
// device.ErrInvalidRequest), not later inside a replay driver with the
// file context lost.
func Decode(data []byte) (Trace, error) {
	var tr Trace
	if err := json.Unmarshal(data, &tr); err != nil {
		return Trace{}, fmt.Errorf("trace: decode: %w", err)
	}
	if err := checkHeader(tr); err != nil {
		return Trace{}, err
	}
	if err := checkRecords(tr); err != nil {
		return Trace{}, err
	}
	return tr, nil
}

// ---- Recorder ----

// Recorder wraps a device, passing requests through while capturing a
// Trace of them. It implements device.Device and forwards the wrapped
// device's capabilities (rotation period, boundaries, layout, name), so
// it can stand in for the wrapped device anywhere — including under
// extraction or a striped array.
type Recorder struct {
	dev device.Device
	tr  Trace
}

var (
	_ device.Device           = (*Recorder)(nil)
	_ device.Rotational       = (*Recorder)(nil)
	_ device.BoundaryProvider = (*Recorder)(nil)
	_ device.Mapped           = (*Recorder)(nil)
	_ device.Named            = (*Recorder)(nil)
)

// NewRecorder wraps a device, snapshotting its identity (capacity,
// sector size, rotation period, boundaries, name) into the trace header.
func NewRecorder(d device.Device) *Recorder {
	r := &Recorder{dev: d, tr: Trace{
		Capacity:   d.Capacity(),
		SectorSize: d.SectorSize(),
	}}
	if n, ok := d.(device.Named); ok {
		r.tr.Name = n.Name()
	}
	if rot, ok := d.(device.Rotational); ok {
		r.tr.RotationPeriod = rot.RotationPeriod()
	}
	if bp, ok := d.(device.BoundaryProvider); ok {
		// Copy: the provider may reuse or mutate its slice, and the
		// recorder's header must stay a stable snapshot.
		if b := bp.TrackBoundaries(); len(b) > 0 {
			r.tr.Boundaries = append([]int64(nil), b...)
		}
	}
	return r
}

// Serve forwards to the wrapped device and records the request,
// including its issue instant, so the capture replays with its
// original arrival pattern.
func (r *Recorder) Serve(at float64, req device.Request) (device.Result, error) {
	res, err := r.dev.Serve(at, req)
	if err != nil {
		return res, err
	}
	r.tr.Records = append(r.tr.Records, Record{
		LBN: req.LBN, Sectors: req.Sectors, Write: req.Write,
		Issue:   at,
		Service: res.Done - res.Start,
	})
	return res, nil
}

// Now returns the wrapped device's clock.
func (r *Recorder) Now() float64 { return r.dev.Now() }

// Capacity returns the wrapped device's capacity.
func (r *Recorder) Capacity() int64 { return r.dev.Capacity() }

// SectorSize returns the wrapped device's sector size.
func (r *Recorder) SectorSize() int { return r.dev.SectorSize() }

// RotationPeriod forwards the wrapped device's revolution time (0 when
// it has none).
func (r *Recorder) RotationPeriod() float64 { return r.tr.RotationPeriod }

// TrackBoundaries forwards the wrapped device's boundaries (nil when it
// has none). The returned slice is a copy: callers mutating it (sort
// scratch, in-place filtering) must not corrupt the recorder's header.
func (r *Recorder) TrackBoundaries() []int64 {
	if r.tr.Boundaries == nil {
		return nil
	}
	return append([]int64(nil), r.tr.Boundaries...)
}

// Inner returns the wrapped device, so capability walks (such as
// device.ZonedOf) can see through a recorder.
func (r *Recorder) Inner() device.Device { return r.dev }

// Layout forwards the wrapped device's physical mapping; nil when the
// wrapped device is not Mapped, per the device.Mapped contract.
func (r *Recorder) Layout() *geom.Layout {
	if m, ok := r.dev.(device.Mapped); ok {
		return m.Layout()
	}
	return nil
}

// Name identifies the wrapped device.
func (r *Recorder) Name() string {
	if r.tr.Name == "" {
		return "recorder"
	}
	return r.tr.Name
}

// Trace returns a deep copy of the captured trace: mutating the
// returned Records or Boundaries never corrupts the live recorder (or
// the wrapped device, whose boundary table the recorder snapshotted).
func (r *Recorder) Trace() Trace {
	tr := r.tr
	tr.Records = append([]Record(nil), r.tr.Records...)
	tr.Boundaries = append([]int64(nil), r.tr.Boundaries...)
	return tr
}

// ---- Player ----

// Player serves requests from a recorded trace.
type Player struct {
	tr   Trace
	mean float64

	// Each distinct (LBN, Sectors, Write) key has an id and a FIFO of
	// its records, chained through nextSame; cursor[id] is the FIFO's
	// unconsumed head (-1 once exhausted). slots, keyOf and nextSame are
	// immutable after build; a run moves only cursor and hint.
	//
	// slots is an open-addressing table (linear probing, a power of two
	// at load <= 1/2) indexed by the top bits of the key's hash. A full
	// slot packs the low 32 bits of the hash (high half) with the index
	// of the key's first record plus one (low half); 0 is empty. A probe
	// reads that record to compare the full key only when the hash bits
	// agree.
	slots    []uint64
	shift    uint    // 64 - log2(len(slots))
	keyOf    []int32 // record index -> key id
	nextSame []int32 // record index -> next record with its key, or -1
	cursor   []int32 // key id -> next record to consume, or -1

	// hint is the record after the last one consumed. A replay that
	// issues requests in trace order finds its key there, so match
	// takes the key id from keyOf without probing slots.
	hint int

	strict bool

	busy     float64 // single-server: time the device frees up
	lastDone float64
	misses   int
}

// Option configures a Player.
type Option func(*Player)

// Strict makes requests with no matching trace record fail (with a
// typed *device.Error wrapping ErrNoRecord) instead of falling back to
// the trace's mean service time.
func Strict() Option { return func(p *Player) { p.strict = true } }

var (
	_ device.Device           = (*Player)(nil)
	_ device.Rotational       = (*Player)(nil)
	_ device.BoundaryProvider = (*Player)(nil)
	_ device.Named            = (*Player)(nil)
)

// hashKey mixes a full (LBN, Sectors, Write) key into 64 bits; the
// final multiply is Fibonacci hashing, so the top bits index slots.
func hashKey(lbn int64, sectors int, write bool) uint64 {
	h := uint64(lbn)*0x9e3779b97f4a7c15 ^ uint64(sectors)<<1
	if write {
		h ^= 1
	}
	return (h ^ h>>29) * 0x9e3779b97f4a7c15
}

// NewPlayer builds a replay device from a trace. The trace is validated
// here too (traces can be built in code, not only decoded), with the
// record index in any error.
func NewPlayer(tr Trace, opts ...Option) (*Player, error) {
	if err := checkHeader(tr); err != nil {
		return nil, err
	}
	if len(tr.Records) > math.MaxInt32 {
		return nil, fmt.Errorf("trace: %w: %d records exceed the player's 2^31 limit",
			device.ErrInvalidRequest, len(tr.Records))
	}
	n := len(tr.Records)
	bits := uint(1)
	for 1<<bits < 2*n {
		bits++
	}
	p := &Player{
		tr:       tr,
		slots:    make([]uint64, 1<<bits),
		shift:    64 - bits,
		keyOf:    make([]int32, n),
		nextSame: make([]int32, n),
	}
	var sum float64
	keys := int32(0)
	for i := range tr.Records {
		rec := &tr.Records[i]
		if err := checkRecord(i, *rec, tr.Capacity); err != nil {
			return nil, err
		}
		h := hashKey(rec.LBN, rec.Sectors, rec.Write)
		if s, first := p.find(h, rec.LBN, rec.Sectors, rec.Write); first < 0 {
			p.slots[s] = h<<32 | uint64(i+1)
			p.keyOf[i] = keys
			keys++
		} else {
			p.keyOf[i] = p.keyOf[first]
		}
		sum += rec.Service
	}
	// Chain each key's records back to front, so cursor ends at the head.
	p.cursor = make([]int32, keys)
	for id := range p.cursor {
		p.cursor[id] = -1
	}
	for i := n - 1; i >= 0; i-- {
		id := p.keyOf[i]
		p.nextSame[i] = p.cursor[id]
		p.cursor[id] = int32(i)
	}
	if n > 0 {
		p.mean = sum / float64(n)
	}
	for _, o := range opts {
		o(p)
	}
	return p, nil
}

// find probes slots for the key hashed to h. It returns the key's
// slot and the index of its first record, or the empty slot where the
// key would go and -1.
func (p *Player) find(h uint64, lbn int64, sectors int, write bool) (slot, first int) {
	tag := h << 32
	mask := len(p.slots) - 1
	for s := int(h >> p.shift); ; s = (s + 1) & mask {
		e := p.slots[s]
		if e == 0 {
			return s, -1
		}
		if e&^math.MaxUint32 != tag {
			continue
		}
		r := int(uint32(e)) - 1
		if rec := &p.tr.Records[r]; rec.LBN == lbn && rec.Sectors == sectors && rec.Write == write {
			return s, r
		}
	}
}

// match consumes the next unused record for the request's key.
func (p *Player) match(req device.Request) (float64, bool) {
	id := int32(-1)
	if i := p.hint; i < len(p.tr.Records) {
		if rec := &p.tr.Records[i]; rec.LBN == req.LBN && rec.Sectors == req.Sectors && rec.Write == req.Write {
			id = p.keyOf[i]
		}
	}
	if id < 0 {
		_, first := p.find(hashKey(req.LBN, req.Sectors, req.Write), req.LBN, req.Sectors, req.Write)
		if first < 0 {
			return 0, false
		}
		id = p.keyOf[first]
	}
	i := p.cursor[id]
	if i < 0 {
		return 0, false
	}
	p.cursor[id] = p.nextSame[i]
	p.hint = int(i) + 1
	return p.tr.Records[i].Service, true
}

// Serve replays one request.
func (p *Player) Serve(at float64, req device.Request) (device.Result, error) {
	if err := device.CheckRequest(p, req); err != nil {
		return device.Result{}, err
	}
	svc, ok := p.match(req)
	if !ok {
		p.misses++
		if p.strict {
			return device.Result{}, &device.Error{Op: "trace replay", Req: req, Err: ErrNoRecord}
		}
		svc = p.mean
	}
	start := at
	if p.busy > start {
		start = p.busy
	}
	done := start + svc
	p.busy = done
	if done > p.lastDone {
		p.lastDone = done
	}
	return device.Result{
		Req: req, Issue: at, Start: start, MediaEnd: done, Done: done,
	}, nil
}

// Reset restores every trace record for consumption again, so one
// Player replays its trace any number of times (steady-state replay
// benchmarking). The virtual clock is NOT reset — Serve's issue times
// must stay non-decreasing across runs — and the miss counter keeps
// accumulating. Reset never allocates.
func (p *Player) Reset() {
	for i := len(p.keyOf) - 1; i >= 0; i-- {
		p.cursor[p.keyOf[i]] = int32(i)
	}
	p.hint = 0
}

// Now returns the completion time of the last request replayed.
func (p *Player) Now() float64 { return p.lastDone }

// Capacity returns the traced device's capacity.
func (p *Player) Capacity() int64 { return p.tr.Capacity }

// SectorSize returns the traced device's sector size.
func (p *Player) SectorSize() int { return p.tr.SectorSize }

// RotationPeriod returns the traced device's revolution time (0 when
// the trace does not record one).
func (p *Player) RotationPeriod() float64 { return p.tr.RotationPeriod }

// TrackBoundaries returns the traced device's boundaries (nil when the
// trace does not record them). The returned slice is a copy: callers
// mutating it must not corrupt the trace header the player replays
// from.
func (p *Player) TrackBoundaries() []int64 {
	if p.tr.Boundaries == nil {
		return nil
	}
	return append([]int64(nil), p.tr.Boundaries...)
}

// Name identifies the traced device.
func (p *Player) Name() string {
	if p.tr.Name == "" {
		return "trace-replay"
	}
	return "trace:" + p.tr.Name
}

// Misses returns how many requests found no matching record — served
// at the trace's mean service time, or failed with ErrNoRecord under
// Strict. The counter accumulates across Reset.
func (p *Player) Misses() int { return p.misses }
