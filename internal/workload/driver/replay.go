// Bulk trace replay: stream a recorded workload — millions of requests
// — through the full host stack (cache → sched.Queue → Device) with
// streaming statistics only. Nothing scales with the trace length at
// run time: requests are submitted in bounded windows, completions
// fold through a prebound closure into counters and queue their
// response times on a stats.Feed, whose helper goroutine applies the
// P² quantile updates in batches off the request path (Run joins it
// before reading the estimates), and repeated runs reuse every
// buffer, so the steady-state replay hot path allocates nothing per
// request (gated by BENCH_replay.json alongside the ≥1M req/s floor).

package driver

import (
	"fmt"
	"math/rand"

	"traxtents/internal/device"
	"traxtents/internal/device/stack"
	"traxtents/internal/device/trace"
	"traxtents/internal/stats"
)

// ReplayConfig shapes a trace replay.
type ReplayConfig struct {
	// Window bounds the Submit/DrainEach batch: memory and the
	// scheduler's reordering horizon are O(Window), never O(trace).
	// A window boundary is a drain barrier. 0 means 4096.
	Window int
	// Speedup compresses the recorded arrival times: requests issue at
	// Issue/Speedup. 0 means 1 (replay at recorded speed). Ignored
	// when the trace carries no arrival times.
	Speedup float64
	// RatePerSec synthesizes open-Poisson arrivals (seeded by Seed)
	// when the trace carries no arrival times. 0 means burst replay:
	// every request arrives at t=0 and the stack works the backlog off
	// as fast as the device allows.
	RatePerSec float64
	// Seed fixes the synthetic-arrival stream (only used when the
	// trace has no timestamps and RatePerSec > 0).
	Seed int64
}

// ReplayMetrics summarizes one replay run. Response quantiles are P²
// streaming estimates — no per-request samples are retained.
type ReplayMetrics struct {
	Requests        int
	MakespanMs      float64 // first arrival to last completion, virtual time
	ThroughputIOPS  float64 // virtual-time completion rate
	MeanResponseMs  float64
	P50ResponseMs   float64
	P99ResponseMs   float64
	P9999ResponseMs float64
	MaxResponseMs   float64
	CacheHitRate    float64 // host-cache hits per access this run (0 without a cache budget)
	WindowBarriers  int     // drain barriers taken (trace length / window)
}

// Replay is a reusable bulk replay driver: built once from a trace and
// a stack, Run any number of times (each run shifts to start where the
// previous run's clock stopped, like Fleet). The stack's base device
// decides what "replay" means: over a trace.Player the recorded
// service times replay verbatim; over a simulated disk the recorded
// workload re-runs against a different device model.
type Replay struct {
	st     *stack.Stack
	reqs   []device.Request
	offs   []float64 // arrival offsets from run start, non-decreasing
	window int

	start float64

	tails    *stats.Tails
	feed     *stats.Feed
	count    int
	sumResp  float64
	maxResp  float64
	maxDone  float64
	barriers int

	foldFn func(int, *device.Result)
	err    error
}

// NewReplay validates the trace against the stack and precomputes the
// arrival schedule. The trace must have records; recorded arrival
// times must be non-decreasing (the converter and the Recorder both
// emit them that way).
func NewReplay(st *stack.Stack, tr trace.Trace, cfg ReplayConfig) (*Replay, error) {
	if st == nil {
		return nil, fmt.Errorf("driver: replay needs a stack")
	}
	if len(tr.Records) == 0 {
		return nil, fmt.Errorf("driver: replay needs a trace with records")
	}
	if cfg.Window < 0 || cfg.Speedup < 0 || cfg.RatePerSec < 0 {
		return nil, fmt.Errorf("driver: negative replay config %+v", cfg)
	}
	window := cfg.Window
	if window == 0 {
		window = 4096
	}
	speedup := cfg.Speedup
	if speedup == 0 {
		speedup = 1
	}
	r := &Replay{
		st:     st,
		reqs:   make([]device.Request, len(tr.Records)),
		offs:   make([]float64, len(tr.Records)),
		window: window,
		tails:  stats.NewTails(),
		feed:   stats.NewFeed(),
		start:  st.Now(),
	}
	hasIssue := false
	for i, rec := range tr.Records {
		r.reqs[i] = device.Request{LBN: rec.LBN, Sectors: rec.Sectors, Write: rec.Write}
		if rec.Issue != 0 {
			hasIssue = true
		}
	}
	if hasIssue {
		prev := 0.0
		for i, rec := range tr.Records {
			if rec.Issue < prev {
				return nil, fmt.Errorf("driver: replay record %d: issue time %g before record %d's %g",
					i, rec.Issue, i-1, prev)
			}
			prev = rec.Issue
			r.offs[i] = rec.Issue / speedup
		}
	} else if cfg.RatePerSec > 0 {
		rng := rand.New(rand.NewSource(cfg.Seed))
		ratePerMs := cfg.RatePerSec / 1000
		at := 0.0
		for i := range r.offs {
			r.offs[i] = at
			at += rng.ExpFloat64() / ratePerMs
		}
	}
	r.foldFn = r.foldOne
	return r, nil
}

// foldOne streams one completion into the run's statistics.
func (r *Replay) foldOne(_ int, res *device.Result) {
	r.count++
	resp := res.Done - res.Issue
	r.sumResp += resp
	if resp > r.maxResp {
		r.maxResp = resp
	}
	if res.Done > r.maxDone {
		r.maxDone = res.Done
	}
	r.feed.Add(r.tails, resp)
}

// Run replays the whole trace through the stack and returns the run's
// streaming statistics. Steady-state runs allocate nothing. Replaying
// over a trace.Player consumes its records: call its Reset between
// runs (the driver does not know what the stack's base is).
func (r *Replay) Run() (ReplayMetrics, error) {
	if r.err != nil {
		return ReplayMetrics{}, r.err
	}
	start := r.start
	if now := r.st.Now(); now > start {
		start = now
	}
	r.count, r.sumResp, r.maxResp, r.barriers = 0, 0, 0, 0
	r.maxDone = start
	r.tails.Reset()
	cs0 := r.st.Stats()

	err := r.replay(start)
	// Join the quantile feed on every path, failures included: no
	// helper may still be applying a batch once Run returns.
	r.feed.Sync()
	if err != nil {
		r.err = err
		return ReplayMetrics{}, err
	}
	r.start = r.maxDone

	m := ReplayMetrics{
		Requests:        r.count,
		MakespanMs:      r.maxDone - start,
		MeanResponseMs:  r.sumResp / float64(r.count),
		P50ResponseMs:   r.tails.P50.Value(),
		P99ResponseMs:   r.tails.P99.Value(),
		P9999ResponseMs: r.tails.P9999.Value(),
		MaxResponseMs:   r.maxResp,
		WindowBarriers:  r.barriers,
	}
	if m.MakespanMs > 0 {
		m.ThroughputIOPS = float64(r.count) / m.MakespanMs * 1000
	}
	cs1 := r.st.Stats()
	if acc := (cs1.Reads + cs1.Writes) - (cs0.Reads + cs0.Writes); acc > 0 {
		m.CacheHitRate = float64(cs1.Hits-cs0.Hits) / float64(acc)
	}
	return m, nil
}

// replay submits the trace in windows from start and drains every
// window into foldOne.
func (r *Replay) replay(start float64) error {
	inWindow := 0
	for i := range r.reqs {
		if _, err := r.st.Submit(start+r.offs[i], r.reqs[i]); err != nil {
			return fmt.Errorf("driver: replay request %d: %w", i, err)
		}
		inWindow++
		if inWindow >= r.window {
			if err := r.st.DrainEach(r.foldFn); err != nil {
				return fmt.Errorf("driver: replay drain at request %d: %w", i, err)
			}
			r.barriers++
			inWindow = 0
		}
	}
	if inWindow > 0 {
		if err := r.st.DrainEach(r.foldFn); err != nil {
			return fmt.Errorf("driver: replay final drain: %w", err)
		}
		r.barriers++
	}
	if r.count != len(r.reqs) {
		return fmt.Errorf("driver: replay resolved %d of %d requests", r.count, len(r.reqs))
	}
	return nil
}
