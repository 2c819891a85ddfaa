package stats

import "sync"

// Tails holds the three response-time estimators every accounting
// owner reports: the median, p99 and p99.99, each a P² Quantile.
// Observations reach a Tails through a Feed, never one at a time on
// the request path.
type Tails struct {
	P50, P99, P9999 Quantile
}

// NewTails returns an empty p50/p99/p99.99 set.
func NewTails() *Tails {
	return &Tails{P50: makeQuantile(0.50), P99: makeQuantile(0.99), P9999: makeQuantile(0.9999)}
}

// Reset discards every observation (see Quantile.Reset). The caller
// must Sync every Feed that carries samples for t first.
func (t *Tails) Reset() {
	t.P50.Reset()
	t.P99.Reset()
	t.P9999.Reset()
}

// add applies one observation to all three estimators.
func (t *Tails) add(x float64) {
	t.P50.Add(x)
	t.P99.Add(x)
	t.P9999.Add(x)
}

// FeedBatch is the number of samples a Feed buffers before it hands
// them to a helper goroutine.
const FeedBatch = 4096

// sample is one buffered observation and the estimators it is for.
type sample struct {
	t *Tails
	x float64
}

// Feed moves P² updates off the request path. Add appends a sample to
// a fixed batch; a full batch is handed to a helper goroutine that
// applies the updates in the order they were added, while the caller
// fills the other buffer. Sync joins the helper and applies the rest.
//
// Every estimator therefore sees exactly the sample sequence inline
// Quantile.Add calls would have given it, so every estimate is
// bit-identical — only where and when the arithmetic runs changes.
//
// At most one batch is in flight. Its goroutine is spawned for that
// batch alone, from a prebound func value so the spawn allocates
// nothing, and is joined before the next hand-off; no goroutine
// outlives its batch, so a dropped owner pins nothing.
//
// A Feed belongs to one goroutine, like the owners that embed it. The
// Tails it carries samples for must not be read or reset until Sync
// returns.
type Feed struct {
	fill    []sample // batch being filled, cap FeedBatch
	flight  []sample // batch the helper applies until wg is done
	wg      sync.WaitGroup
	applyFn func() // prebound f.apply
}

// NewFeed returns an idle feed with both batch buffers allocated.
func NewFeed() *Feed {
	f := &Feed{
		fill:   make([]sample, 0, FeedBatch),
		flight: make([]sample, 0, FeedBatch),
	}
	f.applyFn = f.apply
	return f
}

// Add queues observation x for t.
func (f *Feed) Add(t *Tails, x float64) {
	if len(f.fill) == FeedBatch {
		f.handOff()
	}
	f.fill = append(f.fill, sample{t, x})
}

// handOff joins the batch in flight, if any, and starts a helper on
// the full one.
func (f *Feed) handOff() {
	f.wg.Wait()
	f.fill, f.flight = f.flight[:0], f.fill
	f.wg.Add(1)
	go f.applyFn()
}

// apply is the helper goroutine's body.
func (f *Feed) apply() {
	applyBatch(f.flight)
	f.wg.Done()
}

// Sync applies every queued sample: it joins the helper, then applies
// the partial batch on the calling goroutine. Afterwards no helper
// touches any Tails, and every Tails fed so far is up to date.
func (f *Feed) Sync() {
	f.wg.Wait()
	applyBatch(f.fill)
	f.fill = f.fill[:0]
}

func applyBatch(b []sample) {
	for i := range b {
		b[i].t.add(b[i].x)
	}
}
