package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"traxtents/internal/device"
	"traxtents/internal/disk/geom"
)

// config collects constructor options.
type config struct {
	seed        int64
	latentCount int
	latentSpan  int64
	badRanges   []lbnRange
	timeoutProb float64
	failAt      float64
}

// Option configures an Injector.
type Option func(*config)

// WithSeed fixes the injector's random sources: latent-error placement
// and the per-request timeout stream. The default seed is 0.
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithLatentErrors seeds n latent bad ranges of span sectors each,
// placed uniformly (and deterministically, from the seed) over the
// device. Reads overlapping a bad range fail with device.ErrMedium;
// writes covering part of a range heal that part (sector
// reassignment), so a reconstruct-and-rewrite pass repairs the device.
func WithLatentErrors(n int, span int64) Option {
	return func(c *config) { c.latentCount, c.latentSpan = n, span }
}

// WithBadRange places one latent bad range explicitly at
// [lbn, lbn+sectors). It composes with WithLatentErrors and with
// itself; overlapping ranges merge. Tests use it to aim a medium error
// at a known address.
func WithBadRange(lbn, sectors int64) Option {
	return func(c *config) { c.badRanges = append(c.badRanges, lbnRange{start: lbn, sectors: sectors}) }
}

// WithTimeoutProb makes each otherwise-successful request fail with
// device.ErrTimeout with probability p, drawn from the seeded stream.
// The wrapped device is untouched; an immediate retry redraws.
func WithTimeoutProb(p float64) Option { return func(c *config) { c.timeoutProb = p } }

// WithFailAt schedules whole-disk loss: every request issued at or
// after virtual time t (ms) fails with device.ErrLost. The default is
// never; FailNow triggers loss explicitly.
func WithFailAt(t float64) Option { return func(c *config) { c.failAt = t } }

// Stats counts injected faults by class.
type Stats struct {
	Served  int // requests that reached the wrapped device and succeeded
	Medium  int // latent-sector-error failures
	Timeout int // transient-timeout failures
	Lost    int // whole-disk-loss failures
	Healed  int // bad ranges (fully) healed by writes
}

// lbnRange is one latent bad range [Start, Start+Sectors).
type lbnRange struct {
	start   int64
	sectors int64
}

// Injector is a fault-injecting device wrapper. It implements
// device.Device and forwards the wrapped device's capabilities, so it
// can stand anywhere a backend can.
type Injector struct {
	inner       device.Device
	rng         *rand.Rand // timeout stream
	bad         []lbnRange // sorted by start, non-overlapping
	timeoutProb float64
	failAt      float64
	lost        bool
	stats       Stats

	// res is Serve's result buffer: ServeInto hands its destination to
	// the wrapped device through an interface call, so a local would
	// escape to the heap on every request.
	res device.Result
}

var (
	_ device.Device           = (*Injector)(nil)
	_ device.InPlace          = (*Injector)(nil)
	_ device.Rotational       = (*Injector)(nil)
	_ device.BoundaryProvider = (*Injector)(nil)
	_ device.Mapped           = (*Injector)(nil)
	_ device.Named            = (*Injector)(nil)
)

// New wraps a device in a fault injector. Without options the injector
// is transparent: no latent errors, no timeouts, never lost.
func New(d device.Device, opts ...Option) (*Injector, error) {
	if d == nil {
		return nil, fmt.Errorf("faults: nil device")
	}
	cfg := config{failAt: math.Inf(1)}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.timeoutProb < 0 || cfg.timeoutProb >= 1 {
		return nil, fmt.Errorf("faults: timeout probability %g outside [0,1)", cfg.timeoutProb)
	}
	if cfg.latentCount < 0 {
		return nil, fmt.Errorf("faults: %d latent errors", cfg.latentCount)
	}
	in := &Injector{
		inner:       d,
		rng:         rand.New(rand.NewSource(cfg.seed)),
		timeoutProb: cfg.timeoutProb,
		failAt:      cfg.failAt,
	}
	if cfg.latentCount > 0 {
		if cfg.latentSpan <= 0 {
			return nil, fmt.Errorf("faults: latent span of %d sectors", cfg.latentSpan)
		}
		if cfg.latentSpan > d.Capacity() {
			return nil, fmt.Errorf("faults: latent span %d exceeds capacity %d", cfg.latentSpan, d.Capacity())
		}
		// Placement uses its own derived source so the timeout stream is
		// independent of how many ranges were seeded.
		prng := rand.New(rand.NewSource(cfg.seed ^ 0x6c617465))
		for i := 0; i < cfg.latentCount; i++ {
			start := prng.Int63n(d.Capacity() - cfg.latentSpan + 1)
			in.bad = append(in.bad, lbnRange{start: start, sectors: cfg.latentSpan})
		}
	}
	for _, r := range cfg.badRanges {
		if err := device.CheckBounds(r.start, int(r.sectors), d.Capacity()); err != nil {
			return nil, fmt.Errorf("faults: bad range: %w", err)
		}
		in.bad = append(in.bad, r)
	}
	if len(in.bad) > 0 {
		sort.Slice(in.bad, func(i, j int) bool { return in.bad[i].start < in.bad[j].start })
		in.bad = mergeRanges(in.bad)
	}
	return in, nil
}

// mergeRanges coalesces overlapping sorted ranges.
func mergeRanges(rs []lbnRange) []lbnRange {
	out := rs[:0]
	for _, r := range rs {
		if n := len(out); n > 0 && r.start <= out[n-1].start+out[n-1].sectors {
			if end := r.start + r.sectors; end > out[n-1].start+out[n-1].sectors {
				out[n-1].sectors = end - out[n-1].start
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// Inner returns the wrapped device.
func (in *Injector) Inner() device.Device { return in.inner }

// Stats returns a copy of the accumulated fault counters.
func (in *Injector) Stats() Stats { return in.stats }

// Lost reports whether the device has failed whole.
func (in *Injector) Lost() bool { return in.lost }

// FailNow marks the device lost immediately: every subsequent request
// fails with device.ErrLost.
func (in *Injector) FailNow() { in.lost = true }

// Repair clears whole-disk loss (a replaced or recovered device) —
// latent errors persist until written over.
func (in *Injector) Repair() {
	in.lost = false
	in.failAt = math.Inf(1)
}

// LatentRanges returns the current bad ranges as [start, sectors)
// pairs, for tests and scrub reporting.
func (in *Injector) LatentRanges() [][2]int64 {
	out := make([][2]int64, len(in.bad))
	for i, r := range in.bad {
		out[i] = [2]int64{r.start, r.sectors}
	}
	return out
}

// overlapsBad returns the index of the first bad range overlapping
// [lbn, lbn+sectors), or -1. Allocation-free (binary search).
func (in *Injector) overlapsBad(lbn int64, sectors int) int {
	if len(in.bad) == 0 {
		return -1
	}
	end := lbn + int64(sectors)
	// First range with start+sectors > lbn.
	i := sort.Search(len(in.bad), func(i int) bool { return in.bad[i].start+in.bad[i].sectors > lbn })
	if i < len(in.bad) && in.bad[i].start < end {
		return i
	}
	return -1
}

// heal removes the written range from the bad set (sector
// reassignment on write). Partially covered bad ranges shrink; a bad
// range straddled in the middle splits.
func (in *Injector) heal(lbn int64, sectors int) {
	end := lbn + int64(sectors)
	var out []lbnRange
	healed := 0
	for _, r := range in.bad {
		rEnd := r.start + r.sectors
		if rEnd <= lbn || r.start >= end { // untouched
			out = append(out, r)
			continue
		}
		covered := true
		if r.start < lbn { // left remnant
			out = append(out, lbnRange{start: r.start, sectors: lbn - r.start})
			covered = false
		}
		if rEnd > end { // right remnant
			out = append(out, lbnRange{start: end, sectors: rEnd - end})
			covered = false
		}
		if covered {
			healed++
		}
	}
	in.bad = out
	in.stats.Healed += healed
}

// fail wraps one injected fault in the typed error record. The wrapped
// device was not touched: the clock is exactly as before the request.
func (in *Injector) fail(req device.Request, class error) error {
	return &device.Error{Op: in.opName(), Req: req, Err: class}
}

func (in *Injector) opName() string {
	if n, ok := in.inner.(device.Named); ok {
		return "faults(" + n.Name() + ")"
	}
	return "faults"
}

// Serve services one request, injecting faults in deterministic order:
// whole-disk loss, then latent medium errors (reads only; writes heal),
// then transient timeouts. Only a request that passes every gate
// reaches the wrapped device, so failures leave the clock untouched.
func (in *Injector) Serve(at float64, req device.Request) (device.Result, error) {
	if err := in.ServeInto(at, req, &in.res); err != nil {
		return device.Result{}, err
	}
	return in.res, nil
}

// ServeInto is Serve writing the result into *res (device.InPlace):
// the wrapped device serves in place when it can.
func (in *Injector) ServeInto(at float64, req device.Request, res *device.Result) error {
	if err := device.CheckRequest(in, req); err != nil {
		return err
	}
	if in.lost || at >= in.failAt {
		in.lost = true
		in.stats.Lost++
		return in.fail(req, device.ErrLost)
	}
	if !req.Write {
		if i := in.overlapsBad(req.LBN, req.Sectors); i >= 0 {
			in.stats.Medium++
			return in.fail(req, device.ErrMedium)
		}
	}
	if in.timeoutProb > 0 && in.rng.Float64() < in.timeoutProb {
		in.stats.Timeout++
		return in.fail(req, device.ErrTimeout)
	}
	if err := device.ServeInto(in.inner, at, req, res); err != nil {
		return err
	}
	if req.Write && len(in.bad) > 0 {
		in.heal(req.LBN, req.Sectors)
	}
	in.stats.Served++
	return nil
}

// ---- device.Device identity and forwarded capabilities ----

// Now returns the wrapped device's clock.
func (in *Injector) Now() float64 { return in.inner.Now() }

// Capacity returns the wrapped device's capacity.
func (in *Injector) Capacity() int64 { return in.inner.Capacity() }

// SectorSize returns the wrapped device's sector size.
func (in *Injector) SectorSize() int { return in.inner.SectorSize() }

// RotationPeriod forwards the wrapped device's revolution time (0 when
// it has none).
func (in *Injector) RotationPeriod() float64 {
	if r, ok := in.inner.(device.Rotational); ok {
		return r.RotationPeriod()
	}
	return 0
}

// TrackBoundaries forwards the wrapped device's boundaries (nil when
// it has none), so traxtent tables — and parity layouts — build
// through the injector.
func (in *Injector) TrackBoundaries() []int64 {
	if bp, ok := in.inner.(device.BoundaryProvider); ok {
		return bp.TrackBoundaries()
	}
	return nil
}

// Layout forwards the wrapped device's physical mapping; nil when the
// wrapped device is not Mapped.
func (in *Injector) Layout() *geom.Layout {
	if m, ok := in.inner.(device.Mapped); ok {
		return m.Layout()
	}
	return nil
}

// Name identifies the injector over the wrapped device.
func (in *Injector) Name() string { return in.opName() }
