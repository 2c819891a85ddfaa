package driver

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"traxtents/internal/device"
	"traxtents/internal/device/cache"
	"traxtents/internal/device/faults"
	"traxtents/internal/device/sched"
	"traxtents/internal/device/stack"
	"traxtents/internal/device/trace"
	"traxtents/internal/stats"
)

// inlineReplay is the reference for Replay.Run: the same windowed
// Submit/DrainEach loop over its own stack, with the P² updates
// applied inline on every completion, as Run did before the quantile
// feed.
type inlineReplay struct {
	st     *stack.Stack
	reqs   []device.Request
	offs   []float64
	window int
	start  float64
}

func (r *inlineReplay) run(t *testing.T) ReplayMetrics {
	t.Helper()
	start := max(r.start, r.st.Now())
	q50, q99, q9999 := stats.NewQuantile(0.50), stats.NewQuantile(0.99), stats.NewQuantile(0.9999)
	var count, barriers int
	var sum, maxResp float64
	maxDone := start
	fold := func(_ int, res *device.Result) {
		count++
		resp := res.Done - res.Issue
		sum += resp
		maxResp = max(maxResp, resp)
		maxDone = max(maxDone, res.Done)
		q50.Add(resp)
		q99.Add(resp)
		q9999.Add(resp)
	}
	cs0 := r.st.Stats()
	for i := 0; i < len(r.reqs); i += r.window {
		end := min(i+r.window, len(r.reqs))
		for j := i; j < end; j++ {
			if _, err := r.st.Submit(start+r.offs[j], r.reqs[j]); err != nil {
				t.Fatalf("reference submit %d: %v", j, err)
			}
		}
		if err := r.st.DrainEach(fold); err != nil {
			t.Fatalf("reference drain at %d: %v", i, err)
		}
		barriers++
	}
	r.start = maxDone
	m := ReplayMetrics{
		Requests:        count,
		MakespanMs:      maxDone - start,
		MeanResponseMs:  sum / float64(count),
		P50ResponseMs:   q50.Value(),
		P99ResponseMs:   q99.Value(),
		P9999ResponseMs: q9999.Value(),
		MaxResponseMs:   maxResp,
		WindowBarriers:  barriers,
	}
	if m.MakespanMs > 0 {
		m.ThroughputIOPS = float64(count) / m.MakespanMs * 1000
	}
	cs1 := r.st.Stats()
	if acc := (cs1.Reads + cs1.Writes) - (cs0.Reads + cs0.Writes); acc > 0 {
		m.CacheHitRate = float64(cs1.Hits-cs0.Hits) / float64(acc)
	}
	return m
}

// cachedDiskStack is a simulated disk behind a depth-4 SSTF queue and
// a small host cache, so replays exercise queueing and hits.
func cachedDiskStack(t *testing.T, seed int64) *stack.Stack {
	t.Helper()
	st, err := stack.New(fleetDisk(t, seed), []sched.Option{sched.WithDepth(4), sched.WithScheduler(sched.SSTF())},
		[]cache.Option{cache.WithCapacityMB(1)})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestReplayMatchesInlineAccounting: ReplayMetrics from the feed are
// DeepEqual to inline accounting over an identical stack — quantiles
// bit for bit — across repeated runs, over a strict player and over a
// cached, queued simulated disk, with one and two procs.
func TestReplayMatchesInlineAccounting(t *testing.T) {
	tr := recordedTrace(t, 3*stats.FeedBatch+321, 31)
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			replayMatchesInline(t, tr)
		})
	}
}

func replayMatchesInline(t *testing.T, tr trace.Trace) {
	st, p := playerStack(t, tr)
	refSt, refP := playerStack(t, tr)
	r, err := NewReplay(st, tr, ReplayConfig{Window: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ref := &inlineReplay{st: refSt, reqs: r.reqs, offs: r.offs, window: r.window, start: refSt.Now()}
	for run := 0; run < 3; run++ {
		p.Reset()
		refP.Reset()
		sameRun(t, "player", run, r, ref)
	}

	r, err = NewReplay(cachedDiskStack(t, 5), tr, ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	refSt = cachedDiskStack(t, 5)
	ref = &inlineReplay{st: refSt, reqs: r.reqs, offs: r.offs, window: r.window, start: refSt.Now()}
	for run := 0; run < 2; run++ {
		if m := sameRun(t, "disk", run, r, ref); m.CacheHitRate == 0 {
			t.Fatalf("disk run %d: no cache hits, the stack is not exercised", run)
		}
	}
}

// sameRun runs r and its reference once and demands equal metrics.
func sameRun(t *testing.T, name string, run int, r *Replay, ref *inlineReplay) ReplayMetrics {
	t.Helper()
	got, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.run(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s run %d:\nfeed   %+v\ninline %+v", name, run, got, want)
	}
	return got
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

// TestReplayGoroutines: no quantile helper outlives Run, whether the
// run completes or its device is lost partway through.
func TestReplayGoroutines(t *testing.T) {
	tr := recordedTrace(t, 3*stats.FeedBatch, 32)
	base := runtime.NumGoroutine()

	st, _ := playerStack(t, tr)
	r, err := NewReplay(st, tr, ReplayConfig{Window: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	goroutinesSettle(t, base, "a completed Run")

	// The disk dies two batches into the replay: Run fails with a
	// batch handed off, and must still join its helper.
	p, err := trace.NewPlayer(tr, trace.Strict())
	if err != nil {
		t.Fatal(err)
	}
	failAt := tr.Records[2*stats.FeedBatch+500].Issue
	lost, err := faults.New(p, faults.WithFailAt(failAt))
	if err != nil {
		t.Fatal(err)
	}
	st, err = stack.New(lost, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err = NewReplay(st, tr, ReplayConfig{Window: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil {
		t.Fatal("replay over a disk lost mid-run succeeded")
	}
	if lost.Stats().Served <= stats.FeedBatch {
		t.Fatalf("disk lost after %d requests, want a batch handed off first", lost.Stats().Served)
	}
	goroutinesSettle(t, base, "a failed Run")
}

// TestReplaySoak builds, runs, and drops 100 replays: the live heap
// after a collection stays flat, so no helper goroutine pins a
// dropped Replay or its batch buffers.
func TestReplaySoak(t *testing.T) {
	tr := recordedTrace(t, stats.FeedBatch+100, 33)
	once := func() {
		st, _ := playerStack(t, tr)
		r, err := NewReplay(st, tr, ReplayConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
	}
	once()
	h0 := heapInuse()
	for i := 0; i < 100; i++ {
		once()
	}
	// One pinned Replay holds at least its two batch buffers.
	const slack = 1 << 20
	if h1 := heapInuse(); h1 > h0+slack {
		t.Fatalf("HeapInuse grew %d -> %d bytes over 100 dropped replays", h0, h1)
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
