package volume_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"traxtents/internal/device"
	"traxtents/internal/stats"
	"traxtents/internal/volume"
)

// inlineAcct is the reference accounting for one tenant (or the
// aggregate): counters and P² estimators updated inline on every
// completion, as the manager did before its quantile feed.
type inlineAcct struct {
	n               int
	sum, max        float64
	q50, q99, q9999 *stats.Quantile
}

func newInlineAcct() *inlineAcct {
	return &inlineAcct{q50: stats.NewQuantile(0.50), q99: stats.NewQuantile(0.99), q9999: stats.NewQuantile(0.9999)}
}

func (a *inlineAcct) add(resp float64) {
	a.n++
	a.sum += resp
	a.max = max(a.max, resp)
	a.q50.Add(resp)
	a.q99.Add(resp)
	a.q9999.Add(resp)
}

// stats fills the accounting fields of s from the reference.
func (a *inlineAcct) stats(s volume.VolumeStats) volume.VolumeStats {
	s.Requests, s.MaxMs = a.n, a.max
	s.P50Ms, s.P99Ms, s.P9999Ms = a.q50.Value(), a.q99.Value(), a.q9999.Value()
	if a.n > 0 {
		s.MeanMs = a.sum / float64(a.n)
	}
	return s
}

// TestAccountingMatchesInline: VolumeStats, Stats and Aggregate are
// DeepEqual to inline accounting of the same ServeTenant stream — each
// ServeTenant returns exactly the result it accounted — across several
// feed batches, with snapshots taken mid-batch, per tier, with one and
// two procs.
func TestAccountingMatchesInline(t *testing.T) {
	for _, procs := range []int{1, 2} {
		for _, tier := range []string{"fcfs", "fair"} {
			t.Run(fmt.Sprintf("%s/procs%d", tier, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				accountingMatchesInline(t, tier)
			})
		}
	}
}

func accountingMatchesInline(t *testing.T, tier string) {
	m := newManager(t, 3, volume.WithTier(tier), volume.WithTierDepth(4))
	names := []string{"a", "b", "c", "d"}
	ref := map[string]*inlineAcct{}
	agg := newInlineAcct()
	for i, name := range names {
		addVol(t, m, name, int64(20000*(i+1)))
		ref[name] = newInlineAcct()
	}
	want := func() []volume.VolumeStats {
		out := make([]volume.VolumeStats, len(names))
		for i, name := range names {
			v, err := m.Volume(name)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = ref[name].stats(volume.VolumeStats{Tenant: name, Capacity: v.Capacity(), Extents: len(v.ExtentTable())})
		}
		return out
	}
	wantAgg := func() volume.VolumeStats {
		w := agg.stats(volume.VolumeStats{Tenant: "*"})
		for _, s := range want() {
			w.Capacity += s.Capacity
			w.Extents += s.Extents
		}
		return w
	}
	rng := rand.New(rand.NewSource(43))
	at := 0.0
	// Two samples per completion (tenant and aggregate): 3½ batches.
	const n = 7 * stats.FeedBatch / 4
	for i := 0; i < n; i++ {
		ti := rng.Intn(len(names))
		name := names[ti]
		v, err := m.Volume(name)
		if err != nil {
			t.Fatal(err)
		}
		sectors := 1 + rng.Intn(64)
		req := device.Request{
			LBN:     rng.Int63n(v.Capacity() - int64(sectors)),
			Sectors: sectors,
			Write:   rng.Intn(4) == 0,
		}
		res, err := m.ServeTenant(name, at, req)
		if err != nil {
			t.Fatalf("ServeTenant %d: %v", i, err)
		}
		ref[name].add(res.Response())
		agg.add(res.Response())
		at += rng.Float64() * 6
		// Each snapshot must sync on its own: alternate which one
		// reads first.
		switch rng.Intn(1500) {
		case 0:
			got, err := m.VolumeStats(name)
			if err != nil {
				t.Fatal(err)
			}
			if w := want()[ti]; !reflect.DeepEqual(got, w) {
				t.Fatalf("request %d: VolumeStats(%s)\nfeed   %+v\ninline %+v", i, name, got, w)
			}
		case 1:
			if got, w := m.Aggregate(), wantAgg(); !reflect.DeepEqual(got, w) {
				t.Fatalf("request %d: Aggregate\nfeed   %+v\ninline %+v", i, got, w)
			}
		}
	}
	if got, w := m.Aggregate(), wantAgg(); !reflect.DeepEqual(got, w) {
		t.Fatalf("Aggregate:\nfeed   %+v\ninline %+v", got, w)
	}
	if got, w := m.Stats(), want(); !reflect.DeepEqual(got, w) {
		t.Fatalf("Stats:\nfeed   %+v\ninline %+v", got, w)
	}
}

// serveMany runs n 8-sector reads for tenant "a" through Submit and
// Drain in windows of 64.
func serveMany(t *testing.T, m *volume.Manager, n int) {
	t.Helper()
	at := m.Now()
	for i := 0; i < n; i++ {
		if err := m.Submit("a", at, device.Request{LBN: int64(i%64) * 64, Sectors: 8}); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		at += 0.5
		if i%64 == 63 {
			if err := m.Drain(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.Drain(); err != nil {
		t.Fatal(err)
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

// TestManagerGoroutines: once a snapshot syncs the feed, no quantile
// helper is left running.
func TestManagerGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	m := newManager(t, 1)
	addVol(t, m, "a", 64*64)
	serveMany(t, m, 3*stats.FeedBatch/2+10)
	if s := m.Aggregate(); s.Requests != 3*stats.FeedBatch/2+10 {
		t.Fatalf("Aggregate accounted %d requests", s.Requests)
	}
	goroutinesSettle(t, base, "Aggregate")
	serveMany(t, m, stats.FeedBatch)
	m.Stats()
	goroutinesSettle(t, base, "Stats")
}

// TestManagerSoak builds, drives, and drops 100 managers — each past a
// feed hand-off, and dropped without a snapshot, so a batch may still
// be in flight — and the live heap after a collection stays flat.
func TestManagerSoak(t *testing.T) {
	once := func() {
		m := newManager(t, 1)
		addVol(t, m, "a", 64*64)
		serveMany(t, m, stats.FeedBatch/2+100)
	}
	once()
	h0 := heapInuse()
	for i := 0; i < 100; i++ {
		once()
	}
	// One pinned Manager holds at least its feed's two batch buffers.
	const slack = 1 << 20
	if h1 := heapInuse(); h1 > h0+slack {
		t.Fatalf("HeapInuse grew %d -> %d bytes over 100 dropped managers", h0, h1)
	}
}

// heapInuse is the in-use heap after a full collection.
func heapInuse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}
