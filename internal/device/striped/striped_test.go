package striped_test

import (
	"math/rand"
	"reflect"
	"testing"

	"traxtents/internal/device"
	"traxtents/internal/device/faults"
	"traxtents/internal/device/sched"
	"traxtents/internal/device/striped"
	"traxtents/internal/disk/model"
	"traxtents/internal/disk/sim"
)

// drainAll collects one DrainEach pass, in submission order.
func drainAll(a *striped.Array) ([]device.Result, error) {
	var out []device.Result
	err := a.DrainEach(func(_ int, r *device.Result) { out = append(out, *r) })
	return out, err
}

func disks(t *testing.T, n int) ([]device.Device, []*sim.Disk) {
	t.Helper()
	m := model.MustGet("HP-C2247")
	var devs []device.Device
	var raw []*sim.Disk
	for i := 0; i < n; i++ {
		cfg := m.DefaultConfig()
		cfg.Seed = int64(i)
		d, err := m.NewDisk(cfg)
		if err != nil {
			t.Fatalf("NewDisk: %v", err)
		}
		devs = append(devs, d)
		raw = append(raw, d)
	}
	return devs, raw
}

func TestNewValidation(t *testing.T) {
	if _, err := striped.New(nil); err == nil {
		t.Error("empty child list accepted")
	}
	devs, _ := disks(t, 2)
	if _, err := striped.New(devs, striped.WithChunkSectors(-8)); err == nil {
		t.Error("negative chunk accepted")
	}
	if _, err := striped.New(devs, striped.WithChunkSectors(devs[0].Capacity()+1)); err == nil {
		t.Error("chunk larger than a child accepted")
	}
}

// TestDefaultTraxtentStriping: without options, array stripe unit j is
// child (j mod N)'s track (j div N) — variable lengths and all.
func TestDefaultTraxtentStriping(t *testing.T) {
	devs, raw := disks(t, 3)
	a, err := striped.New(devs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if a.ChunkSectors() != 0 {
		t.Fatalf("traxtent mode reports fixed chunk %d", a.ChunkSectors())
	}
	bounds := a.TrackBoundaries()
	var childB [][]int64
	for _, d := range raw {
		childB = append(childB, d.TrackBoundaries())
	}
	if len(bounds) < 100 {
		t.Fatalf("only %d array boundaries", len(bounds))
	}
	for j := 0; j < len(bounds)-1; j++ {
		c, k := j%3, j/3
		want := childB[c][k+1] - childB[c][k]
		if got := bounds[j+1] - bounds[j]; got != want {
			t.Fatalf("array unit %d is %d sectors, want child %d track %d length %d",
				j, got, c, k, want)
		}
	}
	// An aligned stripe-unit read is one whole-track access on exactly
	// one child.
	table := bounds
	for _, j := range []int{0, 7, len(table) - 2} {
		before := make([]int, len(raw))
		for i, d := range raw {
			before[i] = d.Stats().Requests
		}
		sz := table[j+1] - table[j]
		if _, err := a.Serve(a.Now(), device.Request{LBN: table[j], Sectors: int(sz), FUA: true}); err != nil {
			t.Fatalf("Serve unit %d: %v", j, err)
		}
		served := 0
		for i, d := range raw {
			if got := d.Stats().Requests - before[i]; got > 0 {
				served++
				if i != j%3 || got != 1 {
					t.Fatalf("unit %d: child %d served %d requests", j, i, got)
				}
			}
		}
		if served != 1 {
			t.Fatalf("unit %d touched %d children", j, served)
		}
	}
}

func TestCapacityAndBoundaries(t *testing.T) {
	devs, _ := disks(t, 3)
	const chunk = 96
	a, err := striped.New(devs, striped.WithChunkSectors(chunk))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	per := devs[0].Capacity() / chunk
	if want := per * chunk * 3; a.Capacity() != want {
		t.Fatalf("Capacity = %d, want %d", a.Capacity(), want)
	}
	bounds := a.TrackBoundaries()
	if int64(len(bounds)) != a.Capacity()/chunk+1 {
		t.Fatalf("%d boundaries for %d chunks", len(bounds), a.Capacity()/chunk)
	}
	for i, b := range bounds {
		if b != int64(i)*chunk {
			t.Fatalf("boundary %d = %d, want %d", i, b, int64(i)*chunk)
		}
	}
}

// TestRoundRobinPlacement serves one-sector reads chunk by chunk and
// checks, via the children's own statistics, that chunk c lands on
// child c mod N.
func TestRoundRobinPlacement(t *testing.T) {
	devs, raw := disks(t, 3)
	const chunk = 64
	a, err := striped.New(devs, striped.WithChunkSectors(chunk))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for c := int64(0); c < 9; c++ {
		before := make([]int, len(raw))
		for i, d := range raw {
			before[i] = d.Stats().Requests
		}
		if _, err := a.Serve(a.Now(), device.Request{LBN: c * chunk, Sectors: 1, FUA: true}); err != nil {
			t.Fatalf("Serve chunk %d: %v", c, err)
		}
		for i, d := range raw {
			got := d.Stats().Requests - before[i]
			want := 0
			if int64(i) == c%3 {
				want = 1
			}
			if got != want {
				t.Fatalf("chunk %d: child %d served %d requests, want %d", c, i, got, want)
			}
		}
	}
}

// TestFullStripeCoalesces: a request spanning a whole stripe issues
// exactly one contiguous sub-request per child.
func TestFullStripeCoalesces(t *testing.T) {
	devs, raw := disks(t, 3)
	const chunk = 64
	a, err := striped.New(devs, striped.WithChunkSectors(chunk))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Two full stripes: chunks 0..5 → each child gets chunks (i, i+3),
	// which are contiguous on the child and must coalesce to one request.
	res, err := a.Serve(0, device.Request{LBN: 0, Sectors: 6 * chunk})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if res.Done <= 0 {
		t.Fatal("no time elapsed")
	}
	for i, d := range raw {
		st := d.Stats()
		if st.Requests != 1 {
			t.Errorf("child %d served %d requests, want 1 (coalesced)", i, st.Requests)
		}
		if st.SectorsOut != 2*chunk {
			t.Errorf("child %d transferred %d sectors, want %d", i, st.SectorsOut, 2*chunk)
		}
	}
}

// TestParallelService: a full-stripe read finishes in roughly the time
// of one chunk on one disk, not N chunks — the point of striping.
func TestParallelService(t *testing.T) {
	devs, _ := disks(t, 4)
	single := devs[0]
	arr, err := striped.New(devs[1:], striped.WithChunkSectors(96))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	total := 3 * 96 // one full stripe of the 3-wide array
	rs, err := single.Serve(0, device.Request{LBN: 0, Sectors: total, FUA: true})
	if err != nil {
		t.Fatalf("single Serve: %v", err)
	}
	ra, err := arr.Serve(0, device.Request{LBN: 0, Sectors: total, FUA: true})
	if err != nil {
		t.Fatalf("array Serve: %v", err)
	}
	if ra.Response() >= rs.Response() {
		t.Fatalf("striped full-stripe read (%.3f ms) not faster than one disk (%.3f ms)",
			ra.Response(), rs.Response())
	}
}

func TestWriteReadMix(t *testing.T) {
	devs, _ := disks(t, 2)
	a, err := striped.New(devs, striped.WithChunkSectors(32))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	at := 0.0
	for i := 0; i < 20; i++ {
		res, err := a.Serve(at, device.Request{
			LBN:     int64(i) * 17 % (a.Capacity() - 128),
			Sectors: 1 + i*7%96, // spans chunk boundaries at various offsets
			Write:   i%2 == 0,
		})
		if err != nil {
			t.Fatalf("Serve %d: %v", i, err)
		}
		at = res.Done
	}
	if a.Now() <= 0 {
		t.Fatal("clock did not advance")
	}
}

// TestServeSteadyStateZeroAlloc: the array's Serve must not allocate in
// steady state — spans are carved into reused scratch, and the children
// (sim disks) are allocation-free themselves.
func TestServeSteadyStateZeroAlloc(t *testing.T) {
	devs, _ := disks(t, 4)
	a, err := striped.New(devs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	bounds := a.TrackBoundaries()
	at := 0.0
	serve := func(i int) {
		u := (i * 13) % (len(bounds) - 1)
		req := device.Request{LBN: bounds[u], Sectors: int(bounds[u+1] - bounds[u])}
		if i%4 == 0 { // span several units to exercise the multi-child path
			req.Sectors *= 3
			if req.LBN+int64(req.Sectors) > a.Capacity() {
				req.Sectors = int(bounds[u+1] - bounds[u])
			}
		}
		res, err := a.Serve(at, req)
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
		at = res.Done
	}
	for i := 0; i < 32; i++ { // warm up child and array scratch
		serve(i)
	}
	i := 0
	allocs := testing.AllocsPerRun(300, func() {
		serve(i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state striped Serve allocates %.1f per op, want 0", allocs)
	}
}

// TestSplitMatchesReference: the scratch-buffer split (indexed unitOf,
// reused span buffers) must carve every request into exactly the spans
// the original per-call-allocating implementation produced — same
// children, same child LBNs, same lengths — across unit-interior,
// boundary-crossing, multi-stripe, and random requests. Span order may
// differ (the reference groups by child), so both sides are compared
// as child-keyed sets; one-span-per-child is asserted on the way.
func TestSplitMatchesReference(t *testing.T) {
	devs, _ := disks(t, 3)
	a, err := striped.New(devs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	bounds := a.TrackBoundaries()
	cases := []device.Request{
		{LBN: 0, Sectors: 1},
		{LBN: bounds[1] - 1, Sectors: 2},                      // crosses a unit boundary
		{LBN: bounds[2], Sectors: int(bounds[9] - bounds[2])}, // spans multiple stripes
		{LBN: bounds[5] + 3, Sectors: int(bounds[11] - bounds[5])},
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 500; i++ {
		n := 1 + rng.Intn(3000)
		cases = append(cases, device.Request{LBN: rng.Int63n(a.Capacity() - int64(n)), Sectors: n})
	}
	byChild := func(spans []striped.SpanForTest) map[int]striped.SpanForTest {
		m := map[int]striped.SpanForTest{}
		for _, s := range spans {
			if _, dup := m[s.Child]; dup {
				t.Fatalf("child %d receives two spans: %+v", s.Child, spans)
			}
			if s.Sectors <= 0 {
				t.Fatalf("empty span: %+v", spans)
			}
			m[s.Child] = s
		}
		return m
	}
	for _, req := range cases {
		got := byChild(a.SplitForTest(req))
		want := byChild(a.SplitReferenceForTest(req))
		if len(got) != len(want) {
			t.Fatalf("split(%+v): %d children vs reference %d", req, len(got), len(want))
		}
		for c, w := range want {
			if got[c] != w {
				t.Fatalf("split(%+v): child %d span %+v, reference %+v", req, c, got[c], w)
			}
		}
	}
}

// TestQueuedChildren: WithQueuedChildren composes a scheduling queue
// around each child, preserving the traxtent stripe map (the queues
// forward boundaries) and bare-child timing under the default FCFS
// queue — and exposing per-child queue statistics.
func TestQueuedChildren(t *testing.T) {
	devs, _ := disks(t, 3)
	bare, err := striped.New(devs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	qdevs, _ := disks(t, 3)
	queued, err := striped.New(qdevs, striped.WithQueuedChildren(sched.WithDepth(4), sched.WithScheduler(sched.SSTF())))
	if err != nil {
		t.Fatalf("New(queued): %v", err)
	}
	bb, qb := bare.TrackBoundaries(), queued.TrackBoundaries()
	if len(bb) != len(qb) {
		t.Fatalf("stripe maps differ: %d vs %d units", len(bb)-1, len(qb)-1)
	}
	for i := range bb {
		if bb[i] != qb[i] {
			t.Fatalf("stripe unit %d differs: %d vs %d", i, bb[i], qb[i])
		}
	}
	for i, c := range queued.Children() {
		if _, ok := c.(*sched.Queue); !ok {
			t.Fatalf("child %d is %T, not a queue", i, c)
		}
	}

	// Under FCFS queues (the default), the array must stay bit-identical
	// to bare children: the queue is a transparent passthrough.
	fdevs, _ := disks(t, 3)
	fcfs, err := striped.New(fdevs, striped.WithQueuedChildren())
	if err != nil {
		t.Fatalf("New(fcfs-queued): %v", err)
	}
	rng := rand.New(rand.NewSource(41))
	at := 0.0
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(500)
		req := device.Request{
			LBN:     rng.Int63n(bare.Capacity() - int64(n)),
			Sectors: n,
			Write:   rng.Intn(4) == 0,
		}
		rb, err := bare.Serve(at, req)
		if err != nil {
			t.Fatalf("bare serve %d: %v", i, err)
		}
		rq, err := fcfs.Serve(at, req)
		if err != nil {
			t.Fatalf("queued serve %d: %v", i, err)
		}
		if !reflect.DeepEqual(rb, rq) {
			t.Fatalf("request %d diverged:\nbare:   %+v\nqueued: %+v", i, rb, rq)
		}
		at = rb.Done + rng.Float64()
	}
	for i, c := range fcfs.Children() {
		if st := c.(*sched.Queue).Stats(); st.Dispatched == 0 {
			t.Fatalf("child %d queue never dispatched", i)
		}
	}

	// The same passthrough holds on the batch path: each request sent
	// through Submit and DrainEach over FCFS queues joins its spans to
	// exactly the bare Serve result, BusTime included.
	bdevs, _ := disks(t, 3)
	bare2, err := striped.New(bdevs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sdevs, _ := disks(t, 3)
	batch, err := striped.New(sdevs, striped.WithQueuedChildren())
	if err != nil {
		t.Fatalf("New(fcfs-queued): %v", err)
	}
	rng = rand.New(rand.NewSource(41))
	at = 0.0
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(500)
		req := device.Request{
			LBN:     rng.Int63n(bare2.Capacity() - int64(n)),
			Sectors: n,
			Write:   rng.Intn(4) == 0,
		}
		rb, err := bare2.Serve(at, req)
		if err != nil {
			t.Fatalf("bare serve %d: %v", i, err)
		}
		if _, err := batch.Submit(at, req); err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
		got, err := drainAll(batch)
		if err != nil {
			t.Fatalf("queued drain %d: %v", i, err)
		}
		if len(got) != 1 || !reflect.DeepEqual(rb, got[0]) {
			t.Fatalf("request %d diverged on the batch path:\nbare:   %+v\nqueued: %+v", i, rb, got)
		}
		at = rb.Done + rng.Float64()
	}
}

// TestSubmitDrainMatchesServe: on plain (unqueued) children the
// concurrent path is the synchronous path — Submit serves spans
// immediately, so a Submit burst drained at the end is bit-identical to
// the same requests through Serve.
func TestSubmitDrainMatchesServe(t *testing.T) {
	devsA, _ := disks(t, 3)
	devsB, _ := disks(t, 3)
	serveArr, err := striped.New(devsA)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	submitArr, err := striped.New(devsB)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(19))
	var want []device.Result
	at := 0.0
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(400)
		req := device.Request{LBN: rng.Int63n(serveArr.Capacity() - int64(n)), Sectors: n, Write: i%5 == 0}
		rs, err := serveArr.Serve(at, req)
		if err != nil {
			t.Fatalf("serve %d: %v", i, err)
		}
		want = append(want, rs)
		if _, err := submitArr.Submit(at, req); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		at += rng.Float64() * 3
	}
	got, err := drainAll(submitArr)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Submit/Drain diverged from Serve on plain children")
	}
}

// TestPerChildReordering: with queued SSTF children, concurrent array
// requests are genuinely reordered per spindle — a near span overtakes
// a far one — which the synchronous Serve path can never produce.
func TestPerChildReordering(t *testing.T) {
	devs, _ := disks(t, 1) // width 1: array requests map 1:1 onto one child queue
	arr, err := striped.New(devs, striped.WithQueuedChildren(
		sched.WithDepth(8), sched.WithScheduler(sched.SSTF())))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	capacity := arr.Capacity()
	reqs := []device.Request{
		{LBN: capacity / 4, Sectors: 64},      // dispatched alone
		{LBN: capacity - 2000, Sectors: 64},   // far from the head
		{LBN: capacity/4 + 1000, Sectors: 64}, // near the head: overtakes
	}
	for i, req := range reqs {
		if _, err := arr.Submit(float64(i)*0.01, req); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if arr.Outstanding() != 3 {
		t.Fatalf("outstanding %d, want 3", arr.Outstanding())
	}
	rs, err := drainAll(arr)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(rs) != 3 || arr.Outstanding() != 0 {
		t.Fatalf("drained %d, outstanding %d", len(rs), arr.Outstanding())
	}
	if !(rs[2].Done < rs[1].Done) {
		t.Fatalf("near request (done %g) did not overtake far request (done %g)", rs[2].Done, rs[1].Done)
	}
	q := arr.Children()[0].(*sched.Queue)
	if st := q.Stats(); st.MaxPending < 2 {
		t.Fatalf("child queue never held concurrent spans: %+v", st)
	}

	// Serve while a batch is outstanding is refused.
	if _, err := arr.Submit(1, reqs[0]); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := arr.Serve(2, reqs[0]); err == nil {
		t.Fatal("Serve interleaved with an outstanding batch")
	}
	if _, err := drainAll(arr); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := arr.Serve(3, reqs[0]); err != nil {
		t.Fatalf("Serve after drain: %v", err)
	}
}

// TestSubmitDrainQueuedDeterministic: a concurrent burst over a queued
// 3-wide array is deterministic run to run, and full-stripe requests
// still fan spans across every child.
func TestSubmitDrainQueuedDeterministic(t *testing.T) {
	run := func() []device.Result {
		devs, _ := disks(t, 3)
		arr, err := striped.New(devs, striped.WithQueuedChildren(
			sched.WithDepth(8), sched.WithScheduler(sched.CLOOK())))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		rng := rand.New(rand.NewSource(29))
		at := 0.0
		for i := 0; i < 150; i++ {
			n := 1 + rng.Intn(600)
			req := device.Request{LBN: rng.Int63n(arr.Capacity() - int64(n)), Sectors: n, Write: i%6 == 0}
			if _, err := arr.Submit(at, req); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			at += rng.Float64()
		}
		rs, err := drainAll(arr)
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		return rs
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical queued bursts diverged")
	}
	for i, r := range a {
		if r.Done < r.Issue || r.MediaEnd > r.Done || r.Start < r.Issue {
			t.Fatalf("request %d has incoherent times: %+v", i, r)
		}
	}
}

// TestSubmitRejectedSpanNotReported: when a child rejects one span of
// a request whose other span is already queued on another child,
// Submit fails and the request is never reported; the queued span
// still drains, and the batch's other requests come back intact.
func TestSubmitRejectedSpanNotReported(t *testing.T) {
	devs, _ := disks(t, 2)
	q, err := sched.New(devs[0])
	if err != nil {
		t.Fatalf("sched.New: %v", err)
	}
	lost, err := faults.New(devs[1], faults.WithFailAt(0))
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	arr, err := striped.New([]device.Device{q, lost})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	b := arr.TrackBoundaries()
	straddle := device.Request{LBN: b[1] - 8, Sectors: 16} // unit 0 on child 0, unit 1 on child 1
	healthy := device.Request{LBN: 0, Sectors: 8}
	if _, err := arr.Submit(0, straddle); err == nil {
		t.Fatal("request spanning the lost child accepted")
	}
	seq, err := arr.Submit(1, healthy)
	if err != nil {
		t.Fatalf("Submit after a rejection: %v", err)
	}
	var got []int
	if err := arr.DrainEach(func(s int, r *device.Result) {
		got = append(got, s)
		if r.Req != healthy {
			t.Errorf("drained %+v, want %+v", r.Req, healthy)
		}
	}); err != nil {
		t.Fatalf("DrainEach: %v", err)
	}
	if len(got) != 1 || got[0] != seq {
		t.Fatalf("drained seqs %v, want [%d]", got, seq)
	}

	// Serve is a batch of one and stays a barrier when it fails: the
	// queued span lands, nothing stays outstanding, and the next
	// request is served.
	if _, err := arr.Serve(2, straddle); err == nil {
		t.Fatal("Serve spanning the lost child succeeded")
	}
	if n := arr.Outstanding(); n != 0 {
		t.Fatalf("%d requests outstanding after a failed Serve", n)
	}
	if _, err := arr.Serve(3, healthy); err != nil {
		t.Fatalf("Serve after a failed Serve: %v", err)
	}
}
