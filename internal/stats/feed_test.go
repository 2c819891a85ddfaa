package stats

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// inlineTails is the reference a fed Tails must match: three
// estimators updated inline, one Add per observation.
type inlineTails struct{ q50, q99, q9999 *Quantile }

func newInlineTails() inlineTails {
	return inlineTails{NewQuantile(0.50), NewQuantile(0.99), NewQuantile(0.9999)}
}

func (r inlineTails) add(x float64) {
	r.q50.Add(x)
	r.q99.Add(x)
	r.q9999.Add(x)
}

func (r inlineTails) reset() {
	r.q50.Reset()
	r.q99.Reset()
	r.q9999.Reset()
}

// sameAs reports whether t's estimators equal the reference's field
// for field, marker heights and positions included.
func (r inlineTails) sameAs(t *Tails) bool {
	return t.P50 == *r.q50 && t.P99 == *r.q99 && t.P9999 == *r.q9999
}

// TestFeedMatchesInline: Tails fed through a Feed equal inline
// Quantile.Add bit for bit at every batch-boundary sample count, over
// several Tails interleaved on one feed, across Reset between runs,
// with one and two procs.
func TestFeedMatchesInline(t *testing.T) {
	counts := []int{0, 1, 5, FeedBatch - 1, FeedBatch, FeedBatch + 1, 2 * FeedBatch, 7*FeedBatch + 123}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			rng := rand.New(rand.NewSource(int64(procs)))
			f := NewFeed()
			fed := []*Tails{NewTails(), NewTails(), NewTails()}
			ref := []inlineTails{newInlineTails(), newInlineTails(), newInlineTails()}
			for run, n := range counts {
				for i := range fed {
					fed[i].Reset()
					ref[i].reset()
				}
				for i := 0; i < n; i++ {
					x := rng.ExpFloat64() * 8
					// Every sample goes to tails 0; about half also to
					// one of the others, as a tenant and the aggregate.
					f.Add(fed[0], x)
					ref[0].add(x)
					if k := rng.Intn(4); k > 0 && k < len(fed) {
						f.Add(fed[k], x)
						ref[k].add(x)
					}
				}
				f.Sync()
				for i := range fed {
					if !ref[i].sameAs(fed[i]) {
						t.Fatalf("run %d (%d samples): tails %d differ:\nfed    %+v\ninline %+v",
							run, n, i, *fed[i], ref[i])
					}
				}
			}
		})
	}
}

// TestFeedSyncMidBatch: syncing at arbitrary points — a partial batch,
// a batch in flight, twice in a row — changes no estimate.
func TestFeedSyncMidBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := NewFeed()
	fed, ref := NewTails(), newInlineTails()
	for i := 0; i < 5*FeedBatch; i++ {
		x := rng.NormFloat64()
		f.Add(fed, x)
		ref.add(x)
		if rng.Intn(3000) == 0 {
			f.Sync()
			f.Sync()
			if !ref.sameAs(fed) {
				t.Fatalf("after %d samples: fed %+v, inline %+v", i+1, *fed, ref)
			}
		}
	}
	f.Sync()
	if !ref.sameAs(fed) {
		t.Fatalf("fed %+v, inline %+v", *fed, ref)
	}
}

// goroutinesSettle waits for the goroutine count to fall back to
// base: a joined helper has signalled completion but may take a moment
// to exit. A helper that outlived its batch never would.
func goroutinesSettle(t *testing.T, base int, after string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after %s, %d before", n, after, base)
		}
	}
}

// TestFeedGoroutines: a hand-off starts one helper goroutine and Sync
// leaves none behind, however many batches went through.
func TestFeedGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	f := NewFeed()
	tl := NewTails()
	for i := 0; i < 3*FeedBatch+1; i++ {
		f.Add(tl, float64(i%97))
	}
	f.Sync()
	goroutinesSettle(t, base, "Sync")
	if got := tl.P50.Count(); got != 3*FeedBatch+1 {
		t.Fatalf("Count %d after Sync, want %d", got, 3*FeedBatch+1)
	}
}

// TestFeedAddAllocs: Add and Sync allocate nothing, hand-offs included.
func TestFeedAddAllocs(t *testing.T) {
	f := NewFeed()
	tl := NewTails()
	x := 0.0
	allocs := testing.AllocsPerRun(4, func() {
		for i := 0; i < 2*FeedBatch+7; i++ {
			x += 0.25
			f.Add(tl, x)
		}
		f.Sync()
	})
	if allocs != 0 {
		t.Fatalf("Add/Sync allocate %.1f per %d samples, want 0", allocs, 2*FeedBatch+7)
	}
}
