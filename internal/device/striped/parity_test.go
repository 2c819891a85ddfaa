package striped_test

import (
	"errors"
	"math/rand"
	"testing"

	"traxtents/internal/device"
	"traxtents/internal/device/faults"
	"traxtents/internal/device/sched"
	"traxtents/internal/device/striped"
	"traxtents/internal/device/trace"
)

func parityArray(t *testing.T, n int, opts ...striped.Option) (*striped.Array, []*trace.Recorder) {
	t.Helper()
	devs, _ := disks(t, n)
	recs := make([]*trace.Recorder, n)
	wrapped := make([]device.Device, n)
	for i, d := range devs {
		recs[i] = trace.NewRecorder(d)
		wrapped[i] = recs[i]
	}
	a, err := striped.New(wrapped, append([]striped.Option{striped.WithParity()}, opts...)...)
	if err != nil {
		t.Fatalf("striped.New: %v", err)
	}
	return a, recs
}

// records returns the child's records beyond the given baseline.
func records(r *trace.Recorder, from int) []trace.Record {
	return r.Trace().Records[from:]
}

func baselines(recs []*trace.Recorder) []int {
	out := make([]int, len(recs))
	for i, r := range recs {
		out[i] = len(r.Trace().Records)
	}
	return out
}

// TestParityLayout: the parity rotation covers every child, the
// logical space is (N-1)/N of the stripes, and every stripe unit
// starts at a child unit boundary (no unit straddles a track).
func TestParityLayout(t *testing.T) {
	devs, raw := disks(t, 3)
	a, err := striped.New(devs, striped.WithParity())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if !a.Parity() || a.LostChild() != -1 {
		t.Fatalf("Parity=%v LostChild=%d on a fresh parity array", a.Parity(), a.LostChild())
	}
	n := a.Width()
	stripes := a.Units() / (n - 1)
	if a.Units()%(n-1) != 0 || stripes == 0 {
		t.Fatalf("%d logical units over %d data columns", a.Units(), n-1)
	}
	seen := make(map[int]int)
	for s := 0; s < stripes; s++ {
		seen[a.ParityChildForTest(s)]++
	}
	if len(seen) != n {
		t.Fatalf("parity rotation covers %d of %d children: %v", len(seen), n, seen)
	}
	// Every stripe unit (data and parity) starts at a child track
	// boundary and fits inside that track.
	bounds := a.TrackBoundaries()
	var childB [][]int64
	for _, d := range raw {
		childB = append(childB, d.TrackBoundaries())
	}
	for s := 0; s < stripes; s++ {
		size := bounds[s*(n-1)+1] - bounds[s*(n-1)]
		for c := 0; c < n; c++ {
			start := a.ChildStartForTest(c, s)
			if want := childB[c][s]; start != want {
				t.Fatalf("stripe %d child %d starts at %d, want track boundary %d", s, c, start, want)
			}
			if track := childB[c][s+1] - childB[c][s]; size > track {
				t.Fatalf("stripe %d unit of %d sectors straddles child %d track of %d", s, size, c, track)
			}
		}
	}
	// Degraded-mode controls reject misuse.
	r0, _ := disks(t, 3)
	plain, err := striped.New(r0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := plain.Lose(0); err == nil {
		t.Fatal("Lose accepted on a non-parity array")
	}
	if _, err := striped.New(r0[:1], striped.WithParity()); err == nil {
		t.Fatal("parity over one child accepted")
	}
	if err := a.Lose(3); err == nil {
		t.Fatal("Lose(3) of 3 children accepted")
	}
	if err := a.Lose(1); err != nil {
		t.Fatalf("Lose(1): %v", err)
	}
	if err := a.Lose(2); err == nil {
		t.Fatal("second loss accepted")
	}
}

// TestParityReadsMatchRAID0: fault-free parity reads never touch the
// parity units, so an identical read stream against a RAID-0 array
// with the parity array's exact data layout must produce bit-identical
// results.
func TestParityReadsMatchRAID0(t *testing.T) {
	devs, _ := disks(t, 3)
	a, err := striped.New(devs, striped.WithParity())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	twinDevs, _ := disks(t, 3) // same seeds: identical child state
	twin, err := a.RAID0CloneForTest(twinDevs)
	if err != nil {
		t.Fatalf("RAID0CloneForTest: %v", err)
	}
	rng := rand.New(rand.NewSource(99))
	at := 0.0
	for i := 0; i < 200; i++ {
		sectors := 1 + rng.Intn(2048)
		req := device.Request{
			LBN:     rng.Int63n(a.Capacity() - int64(sectors)),
			Sectors: sectors,
			FUA:     rng.Intn(8) == 0,
		}
		got, err1 := a.Serve(at, req)
		want, err2 := twin.Serve(at, req)
		if err1 != nil || err2 != nil {
			t.Fatalf("Serve %d: parity %v, raid0 %v", i, err1, err2)
		}
		if got.Issue != want.Issue || got.Start != want.Start || got.MediaEnd != want.MediaEnd ||
			got.Done != want.Done || got.BusTime != want.BusTime ||
			got.CacheHit != want.CacheHit || got.Prefetched != want.Prefetched {
			t.Fatalf("Serve %d (%+v): parity %+v != raid0 %+v", i, req, got, want)
		}
		switch rng.Intn(3) {
		case 0:
			at = got.Done
		case 1:
			at += rng.Float64() * (got.Done - at)
		case 2:
			at = got.Done + rng.Float64()*3
		}
	}
}

// content is the synthetic byte each data sector holds: a hash of the
// child index and child LBN, one byte per sector.
func content(child int, lbn int64) byte {
	h := uint64(child+1)*0x9e3779b97f4a7c15 ^ uint64(lbn)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	return byte(h)
}

// TestDegradedReadReconstructsData pins degraded reads bit-identical
// to healthy ones with an XOR content model: give every data sector a
// deterministic synthetic byte, define each parity sector as the XOR
// of its stripe's data sectors, lose a child, and check — from the
// physical child reads the array actually issues — that XORing the
// surviving children's bytes reproduces exactly the lost child's
// bytes for every sector of the request.
func TestDegradedReadReconstructsData(t *testing.T) {
	a, recs := parityArray(t, 3)
	n := a.Width()
	bounds := a.TrackBoundaries()
	stripes := a.Units() / (n - 1)
	sizeOf := func(s int) int64 { return bounds[s*(n-1)+1] - bounds[s*(n-1)] }
	// stripeOfChildLBN finds which stripe a child LBN falls in (within
	// the striped extent).
	stripeOfChildLBN := func(c int, lbn int64) int {
		for s := 0; s < stripes; s++ {
			if lbn >= a.ChildStartForTest(c, s) && lbn < a.ChildStartForTest(c, s)+sizeOf(s) {
				return s
			}
		}
		t.Fatalf("child %d LBN %d outside the striped extent", c, lbn)
		return -1
	}
	// childByte is the modeled content of any child sector: synthetic
	// data, or the stripe-XOR for parity sectors.
	var childByte func(c int, lbn int64) byte
	childByte = func(c int, lbn int64) byte {
		s := stripeOfChildLBN(c, lbn)
		if a.ParityChildForTest(s) != c {
			return content(c, lbn)
		}
		off := lbn - a.ChildStartForTest(c, s)
		var x byte
		for cc := 0; cc < n; cc++ {
			if cc == c {
				continue
			}
			x ^= childByte(cc, a.ChildStartForTest(cc, s)+off)
		}
		return x
	}

	const lost = 1
	if err := a.Lose(lost); err != nil {
		t.Fatalf("Lose: %v", err)
	}
	rng := rand.New(rand.NewSource(5))
	at := a.Now()
	checked := 0
	for _, u := range a.RebuildUnits()[:40] {
		if a.ParityChildForTest(u.Stripe) == lost {
			// The lost unit held parity: regenerating it is a healthy
			// read of the stripe's data, not a reconstruction.
			continue
		}
		// A random window of the lost child's data unit.
		o := rng.Int63n(u.Sectors)
		nSec := 1 + rng.Int63n(u.Sectors-o)
		req := device.Request{LBN: u.LBN + o, Sectors: int(nSec)}
		base := baselines(recs)
		res, err := a.Serve(at, req)
		if err != nil {
			t.Fatalf("degraded Serve(%+v): %v", req, err)
		}
		at = res.Done
		if got := records(recs[lost], base[lost]); len(got) != 0 {
			t.Fatalf("degraded read touched the lost child: %+v", got)
		}
		// Reassemble the window byte by byte from the observed physical
		// reads on the survivors.
		if u.Stripe != stripeOfChildLBN(lost, u.SpareLBN) {
			t.Fatalf("rebuild unit stripe %d mislabeled", u.Stripe)
		}
		xor := make([]byte, nSec)
		reads := 0
		for c := range recs {
			if c == lost {
				continue
			}
			for _, r := range records(recs[c], base[c]) {
				if r.Write {
					t.Fatalf("degraded read issued a write %+v to child %d", r, c)
				}
				if int64(r.Sectors) != nSec {
					t.Fatalf("survivor %d read %d sectors, want %d", c, r.Sectors, nSec)
				}
				for k := int64(0); k < nSec; k++ {
					xor[k] ^= childByte(c, r.LBN+k)
				}
				reads++
			}
		}
		if reads != n-1 {
			t.Fatalf("degraded read issued %d survivor reads, want %d", reads, n-1)
		}
		for k := int64(0); k < nSec; k++ {
			if want := childByte(lost, u.SpareLBN+o+k); xor[k] != want {
				t.Fatalf("stripe %d offset %d: reconstructed %#x, healthy data %#x", u.Stripe, o+k, xor[k], want)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no degraded windows checked")
	}
	if st := a.DegradedStats(); st.Reconstructs < checked {
		t.Fatalf("DegradedStats %+v after %d reconstructed windows", st, checked)
	}
}

// TestParityWriteRMW: a healthy small write is a read-modify-write —
// the data child and the stripe's parity child each see one read and
// one write of the window, the third child is untouched.
func TestParityWriteRMW(t *testing.T) {
	a, recs := parityArray(t, 3)
	n := a.Width()
	bounds := a.TrackBoundaries()
	// Unit 0 of stripe 0: data child = childOf[0], parity = parity of 0.
	p := a.ParityChildForTest(0)
	spans := a.SplitForTest(device.Request{LBN: bounds[0], Sectors: 1})
	c := spans[0].Child
	base := baselines(recs)
	req := device.Request{LBN: bounds[0] + 3, Sectors: 5, Write: true}
	if _, err := a.Serve(0, req); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	for cc := 0; cc < n; cc++ {
		got := records(recs[cc], base[cc])
		switch cc {
		case c, p:
			if len(got) != 2 || got[0].Write || !got[1].Write {
				t.Fatalf("child %d saw %+v, want read then write", cc, got)
			}
			want := a.ChildStartForTest(cc, 0) + 3
			for _, r := range got {
				if r.LBN != want || r.Sectors != 5 {
					t.Fatalf("child %d op %+v, want window [%d,+5)", cc, r, want)
				}
			}
		default:
			if len(got) != 0 {
				t.Fatalf("bystander child %d saw %+v", cc, got)
			}
		}
	}

	// Degraded write to a unit on the lost child: survivors' data units
	// are read, parity is rewritten, nothing touches the lost child.
	if err := a.Lose(c); err != nil {
		t.Fatalf("Lose: %v", err)
	}
	base = baselines(recs)
	if _, err := a.Serve(a.Now(), req); err != nil {
		t.Fatalf("degraded Serve: %v", err)
	}
	if got := records(recs[c], base[c]); len(got) != 0 {
		t.Fatalf("degraded write touched the lost child: %+v", got)
	}
	if got := records(recs[p], base[p]); len(got) != 1 || !got[0].Write {
		t.Fatalf("parity child saw %+v, want one write", got)
	}
	for cc := 0; cc < n; cc++ {
		if cc == c || cc == p {
			continue
		}
		if got := records(recs[cc], base[cc]); len(got) != 1 || got[0].Write {
			t.Fatalf("surviving data child %d saw %+v, want one read", cc, got)
		}
	}
}

// TestAutoDegrade: a child that starts failing with ErrLost degrades
// the array in place — the triggering read still succeeds via
// reconstruction, and later requests avoid the child entirely.
func TestAutoDegrade(t *testing.T) {
	devs, _ := disks(t, 3)
	inj, err := faults.New(devs[1])
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	a, err := striped.New([]device.Device{devs[0], inj, devs[2]}, striped.WithParity())
	if err != nil {
		t.Fatalf("striped.New: %v", err)
	}
	// Warm up healthy, then kill child 1 and read everywhere.
	at := 0.0
	for i := 0; i < 8; i++ {
		res, err := a.Serve(at, device.Request{LBN: int64(i) * 1024, Sectors: 64})
		if err != nil {
			t.Fatalf("healthy Serve %d: %v", i, err)
		}
		at = res.Done
	}
	inj.FailNow()
	for i := 0; i < 8; i++ {
		res, err := a.Serve(at, device.Request{LBN: int64(i) * 512, Sectors: 96, Write: i%2 == 0})
		if err != nil {
			t.Fatalf("degraded Serve %d: %v", i, err)
		}
		at = res.Done
	}
	if a.LostChild() != 1 {
		t.Fatalf("LostChild = %d, want 1", a.LostChild())
	}
	if a.DegradedStats().Reconstructs == 0 {
		t.Fatal("no reconstructions recorded")
	}
	// A second child loss is a double fault: reads needing both fail
	// with a typed, identified error.
	inj2, err := faults.New(devs[0])
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	// (Cannot swap a live child; emulate by explicit Lose conflict.)
	_ = inj2
	if err := a.Lose(0); err == nil {
		t.Fatal("second Lose accepted while degraded")
	}
}

// TestMediumErrorRepair: a latent sector error on one child is
// absorbed — the read reconstructs from the peers and rewrites the bad
// window in place, healing the injected range.
func TestMediumErrorRepair(t *testing.T) {
	devs, _ := disks(t, 3)
	// Aim a bad range at the start of child 0's first unit.
	inj, err := faults.New(devs[0], faults.WithBadRange(4, 8))
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	a, err := striped.New([]device.Device{inj, devs[1], devs[2]}, striped.WithParity())
	if err != nil {
		t.Fatalf("striped.New: %v", err)
	}
	// Find the logical address of child 0, stripe 0, offset 4. Child 0
	// holds a data unit of stripe 0 (parity rotates from child N-1).
	if a.ParityChildForTest(0) == 0 {
		t.Fatal("test assumes child 0 is a data child of stripe 0")
	}
	var lbn int64 = -1
	for j := 0; j < a.Width()-1; j++ {
		spans := a.SplitForTest(device.Request{LBN: a.TrackBoundaries()[j], Sectors: 1})
		if spans[0].Child == 0 {
			lbn = a.TrackBoundaries()[j] + 4
			break
		}
	}
	if lbn < 0 {
		t.Fatal("no unit of stripe 0 lives on child 0")
	}
	res, err := a.Serve(0, device.Request{LBN: lbn, Sectors: 8})
	if err != nil {
		t.Fatalf("read over the bad range: %v", err)
	}
	if res.Done <= 0 {
		t.Fatalf("repair read returned %+v", res)
	}
	if st := a.DegradedStats(); st.Repairs != 1 || st.Reconstructs != 1 {
		t.Fatalf("DegradedStats = %+v, want one reconstruct and one repair", st)
	}
	if a.LostChild() != -1 {
		t.Fatalf("medium error degraded the array (lost %d)", a.LostChild())
	}
	if got := inj.LatentRanges(); len(got) != 0 {
		t.Fatalf("bad range not healed: %v", got)
	}
	if inj.Stats().Healed != 1 {
		t.Fatalf("injector stats %+v, want one heal", inj.Stats())
	}
	// The same read now serves clean, directly from the child.
	if _, err := a.Serve(a.Now(), device.Request{LBN: lbn, Sectors: 8}); err != nil {
		t.Fatalf("read after repair: %v", err)
	}
}

// TestTransientRetry: a timing-out child is retried in place; the
// request succeeds and the retries are counted.
func TestTransientRetry(t *testing.T) {
	devs, _ := disks(t, 3)
	inj, err := faults.New(devs[2], faults.WithSeed(3), faults.WithTimeoutProb(0.4))
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	a, err := striped.New([]device.Device{devs[0], devs[1], inj}, striped.WithParity())
	if err != nil {
		t.Fatalf("striped.New: %v", err)
	}
	at := 0.0
	for i := 0; i < 64; i++ {
		res, err := a.Serve(at, device.Request{LBN: int64(i) * 700 % (a.Capacity() - 64), Sectors: 48, Write: i%4 == 0})
		if err != nil {
			t.Fatalf("Serve %d: %v", i, err)
		}
		at = res.Done
	}
	if a.DegradedStats().Retries == 0 {
		t.Fatal("no transient retries recorded at 40% timeout probability")
	}
}

// TestReplaceRestoresHealth: after Replace the array serves from the
// replacement child again and RebuildUnits empties.
func TestReplaceRestoresHealth(t *testing.T) {
	a, recs := parityArray(t, 3)
	if got := a.RebuildUnits(); got != nil {
		t.Fatalf("healthy array has rebuild units: %d", len(got))
	}
	if err := a.Lose(2); err != nil {
		t.Fatalf("Lose: %v", err)
	}
	units := a.RebuildUnits()
	if len(units) == 0 {
		t.Fatal("no rebuild units for the lost child")
	}
	// Every unit regenerates onto a distinct, ascending child extent.
	for i := 1; i < len(units); i++ {
		if units[i].SpareLBN < units[i-1].SpareLBN+units[i-1].SpareSectors {
			t.Fatalf("rebuild units overlap: %+v then %+v", units[i-1], units[i])
		}
	}
	if err := a.Replace(1, recs[1]); err == nil {
		t.Fatal("Replace of a healthy child accepted")
	}
	spares, _ := disks(t, 3)
	if err := a.Replace(2, spares[2]); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	if a.LostChild() != -1 || a.RebuildUnits() != nil {
		t.Fatalf("array still degraded after Replace (lost %d)", a.LostChild())
	}
	if _, err := a.Serve(a.Now(), device.Request{LBN: 0, Sectors: 32}); err != nil {
		t.Fatalf("Serve after Replace: %v", err)
	}
}

// resized overrides a device's reported geometry, for Replace's
// validation.
type resized struct {
	device.Device
	capacity   int64
	sectorSize int
}

func (r resized) Capacity() int64 { return r.capacity }
func (r resized) SectorSize() int { return r.sectorSize }

// TestReplaceValidation: Replace refuses a replacement that cannot
// stand in for the lost child, and a refusal leaves the array degraded.
func TestReplaceValidation(t *testing.T) {
	devs, _ := disks(t, 2)
	plain, err := striped.New(devs)
	if err != nil {
		t.Fatalf("striped.New: %v", err)
	}
	if err := plain.Replace(0, plain.Children()[0]); err == nil {
		t.Fatal("Replace on a non-parity array accepted")
	}
	a, recs := parityArray(t, 3)
	if err := a.Lose(1); err != nil {
		t.Fatalf("Lose: %v", err)
	}
	size, ss := recs[1].Capacity(), recs[1].SectorSize()
	for name, d := range map[string]device.Device{
		"nil":         nil,
		"sector size": resized{recs[1], size, 2 * ss},
		"capacity":    resized{recs[1], 1, ss},
	} {
		if err := a.Replace(1, d); err == nil {
			t.Fatalf("Replace with a bad replacement (%s) accepted", name)
		}
		if a.LostChild() != 1 {
			t.Fatalf("refused Replace (%s) left lost child %d", name, a.LostChild())
		}
	}
}

// TestReplaceQueuedChild: on a parity array of queued children, a
// fresh *sched.Queue installed by Replace serves the lost child's units
// on the Submit/DrainEach path, and the queue it replaced dispatches
// nothing more.
func TestReplaceQueuedChild(t *testing.T) {
	qopts := []sched.Option{sched.WithDepth(4), sched.WithScheduler(sched.CLOOK())}
	a, recs := parityArray(t, 3, striped.WithQueuedChildren(qopts...))
	const lost = 2
	old, ok := a.Children()[lost].(*sched.Queue)
	if !ok {
		t.Fatalf("child %d is %T, want *sched.Queue", lost, a.Children()[lost])
	}
	// Healthy traffic first, so the old queue has dispatch history.
	for i := 0; i < 8; i++ {
		if _, err := a.Submit(0, device.Request{LBN: int64(i) * 300, Sectors: 64}); err != nil {
			t.Fatalf("healthy Submit %d: %v", i, err)
		}
	}
	if got, err := drainAll(a); err != nil || len(got) != 8 {
		t.Fatalf("healthy DrainEach: %d results, err %v", len(got), err)
	}
	if old.Stats().Dispatched == 0 {
		t.Fatal("old queue dispatched nothing while healthy")
	}

	if err := a.Lose(lost); err != nil {
		t.Fatalf("Lose: %v", err)
	}
	// The lost child's data units: reading one after Replace is a
	// healthy single-child read, landing on the spare at SpareLBN.
	want := map[int64]int{}
	var reqs []device.Request
	for _, u := range a.RebuildUnits() {
		if a.ParityChildForTest(u.Stripe) == lost {
			continue
		}
		want[u.SpareLBN] = int(u.SpareSectors)
		reqs = append(reqs, device.Request{LBN: u.LBN, Sectors: int(u.Sectors)})
		if len(reqs) == 24 {
			break
		}
	}
	spareDisks, _ := disks(t, 3)
	spareRec := trace.NewRecorder(spareDisks[lost])
	spare, err := sched.New(spareRec, qopts...)
	if err != nil {
		t.Fatalf("sched.New: %v", err)
	}
	if err := a.Replace(lost, spare); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	oldDispatched := old.Stats().Dispatched
	base := baselines(recs)

	at := a.Now()
	for i, req := range reqs {
		if _, err := a.Submit(at, req); err != nil {
			t.Fatalf("Submit %d after Replace: %v", i, err)
		}
	}
	got, err := drainAll(a)
	if err != nil {
		t.Fatalf("DrainEach after Replace: %v", err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("DrainEach returned %d results, want %d", len(got), len(reqs))
	}
	if n := old.Stats().Dispatched; n != oldDispatched {
		t.Fatalf("replaced queue dispatched %d more after Replace", n-oldDispatched)
	}
	for c := range recs {
		if extra := records(recs[c], base[c]); len(extra) != 0 {
			t.Fatalf("child %d (old devices) saw %d requests after Replace: %+v", c, len(extra), extra)
		}
	}
	if n := spare.Stats().Dispatched; n != len(reqs) {
		t.Fatalf("spare queue dispatched %d, want %d", n, len(reqs))
	}
	for _, r := range spareRec.Trace().Records {
		if r.Write || want[r.LBN] != r.Sectors {
			t.Fatalf("spare served %+v, not one of the lost child's data units", r)
		}
		delete(want, r.LBN)
	}
	if len(want) != 0 {
		t.Fatalf("%d lost-child units never reached the spare", len(want))
	}
}

// TestParitySubmitDrain: the Submit/Drain path on a parity array is
// pinned bit-identical to Serve on a twin, healthy and degraded.
func TestParitySubmitDrain(t *testing.T) {
	for _, degraded := range []bool{false, true} {
		devs, _ := disks(t, 3)
		a, err := striped.New(devs, striped.WithParity())
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		twinDevs, _ := disks(t, 3)
		twin, err := striped.New(twinDevs, striped.WithParity())
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if degraded {
			if err := a.Lose(0); err != nil {
				t.Fatalf("Lose: %v", err)
			}
			if err := twin.Lose(0); err != nil {
				t.Fatalf("Lose: %v", err)
			}
		}
		rng := rand.New(rand.NewSource(17))
		var want []device.Result
		at := 0.0
		for i := 0; i < 32; i++ {
			sectors := 1 + rng.Intn(512)
			req := device.Request{
				LBN:     rng.Int63n(a.Capacity() - int64(sectors)),
				Sectors: sectors,
				Write:   rng.Intn(3) == 0,
			}
			if _, err := a.Submit(at, req); err != nil {
				t.Fatalf("Submit %d: %v", i, err)
			}
			res, err := twin.Serve(at, req)
			if err != nil {
				t.Fatalf("twin Serve %d: %v", i, err)
			}
			want = append(want, res)
			at += rng.Float64() * 2
		}
		got, err := drainAll(a)
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("Drain returned %d results, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Issue != want[i].Issue || got[i].Done != want[i].Done || got[i].Start != want[i].Start {
				t.Fatalf("degraded=%v result %d: Submit/Drain %+v != Serve %+v", degraded, i, got[i], want[i])
			}
		}
	}
}

// TestTypedErrors: child failures surface as *device.Error with the
// failing child request identified; a double fault is unrecoverable.
func TestTypedErrors(t *testing.T) {
	devs, _ := disks(t, 3)
	inj0, _ := faults.New(devs[0])
	inj1, _ := faults.New(devs[1])
	a, err := striped.New([]device.Device{inj0, inj1, devs[2]}, striped.WithParity())
	if err != nil {
		t.Fatalf("striped.New: %v", err)
	}
	inj0.FailNow()
	inj1.FailNow()
	_, err = a.Serve(0, device.Request{LBN: 0, Sectors: int(a.Capacity())})
	if err == nil {
		t.Fatal("double-fault read succeeded")
	}
	if !device.IsFault(err) {
		t.Fatalf("double-fault error %v is not a fault class", err)
	}
	var de *device.Error
	if !errors.As(err, &de) || de.Req.Sectors <= 0 {
		t.Fatalf("double-fault error %v does not identify the failing request", err)
	}
}

// TestArrayAccessors: the uniform-children identity methods.
func TestArrayAccessors(t *testing.T) {
	devs, raw := disks(t, 3)
	a, err := striped.New(devs)
	if err != nil {
		t.Fatalf("striped.New: %v", err)
	}
	if a.SectorSize() != raw[0].SectorSize() {
		t.Fatalf("SectorSize = %d, want the children's %d", a.SectorSize(), raw[0].SectorSize())
	}
	if a.RotationPeriod() != raw[0].RotationPeriod() {
		t.Fatalf("RotationPeriod = %g, want %g", a.RotationPeriod(), raw[0].RotationPeriod())
	}
	if a.Name() == "" {
		t.Fatal("array has no name")
	}
	if a.Stripes() != 0 {
		t.Fatalf("RAID-0 array reports %d parity stripes", a.Stripes())
	}
	if _, _, err := a.ScrubStripe(0, 0); err == nil {
		t.Fatal("scrub of a non-parity array accepted")
	}
}

// TestScrubStripe: a scrub pass reads every surviving child's unit —
// parity units included — repairs latent errors in place, respects the
// issue-time discipline, and degrades cleanly when a child dies under
// its hands.
func TestScrubStripe(t *testing.T) {
	devs, _ := disks(t, 3)
	// Bad range inside child 1's unit 0 — whether that unit is data or
	// parity, only a scrub is guaranteed to find it.
	inj, err := faults.New(devs[1], faults.WithBadRange(4, 8))
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	a, err := striped.New([]device.Device{devs[0], inj, devs[2]}, striped.WithParity())
	if err != nil {
		t.Fatalf("striped.New: %v", err)
	}
	if a.Stripes() <= 1 {
		t.Fatalf("parity array has %d stripes", a.Stripes())
	}
	if _, _, err := a.ScrubStripe(0, -1); err == nil {
		t.Fatal("negative stripe accepted")
	}
	if _, _, err := a.ScrubStripe(0, a.Stripes()); err == nil {
		t.Fatal("out-of-range stripe accepted")
	}

	at, reads, err := a.ScrubStripe(0, 0)
	if err != nil {
		t.Fatalf("ScrubStripe(0): %v", err)
	}
	if reads != a.Width() || at <= 0 {
		t.Fatalf("stripe 0 scrub: %d reads to t=%g, want %d reads", reads, at, a.Width())
	}
	if st := a.DegradedStats(); st.Repairs != 1 || st.Reconstructs != 1 {
		t.Fatalf("DegradedStats = %+v, want one reconstruct + one repair", st)
	}
	if got := inj.LatentRanges(); len(got) != 0 {
		t.Fatalf("latent range survived the scrub: %v", got)
	}

	// Issue-time discipline: a scrub cannot start before the last issue.
	if _, _, err := a.ScrubStripe(0, 1); err == nil {
		t.Fatal("scrub issued before the previous operation accepted")
	}
	// A clean stripe scrubs with no further repairs.
	at2, reads2, err := a.ScrubStripe(at, 1)
	if err != nil {
		t.Fatalf("ScrubStripe(1): %v", err)
	}
	if reads2 != a.Width() || at2 <= at {
		t.Fatalf("stripe 1 scrub: %d reads, t %g -> %g", reads2, at, at2)
	}
	if st := a.DegradedStats(); st.Repairs != 1 {
		t.Fatalf("clean stripe repaired something: %+v", st)
	}

	// A child dying mid-scrub degrades the array; the pass continues
	// over the survivors.
	devs2, _ := disks(t, 3)
	dead, err := faults.New(devs2[2], faults.WithFailAt(0))
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	b, err := striped.New([]device.Device{devs2[0], devs2[1], dead}, striped.WithParity())
	if err != nil {
		t.Fatalf("striped.New: %v", err)
	}
	bt, _, err := b.ScrubStripe(0, 0)
	if err != nil {
		t.Fatalf("scrub over a dying child: %v", err)
	}
	if b.LostChild() != 2 {
		t.Fatalf("LostChild = %d after the child failed, want 2", b.LostChild())
	}
	if _, reads, err := b.ScrubStripe(bt, 1); err != nil || reads != b.Width()-1 {
		t.Fatalf("degraded scrub: %d reads, err %v; want %d survivor reads", reads, err, b.Width()-1)
	}
}

// TestWriteOverBadRangeRewrites: a write whose read-modify-write phase
// finds the old contents unreadable falls back to reconstruct-write —
// parity is recomputed from the other data units and the write repairs
// the bad sectors in place.
func TestWriteOverBadRangeRewrites(t *testing.T) {
	devs, _ := disks(t, 3)
	inj, err := faults.New(devs[0], faults.WithBadRange(4, 8))
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	a, err := striped.New([]device.Device{inj, devs[1], devs[2]}, striped.WithParity())
	if err != nil {
		t.Fatalf("striped.New: %v", err)
	}
	if a.ParityChildForTest(0) == 0 {
		t.Fatal("test assumes child 0 is a data child of stripe 0")
	}
	var lbn int64 = -1
	for j := 0; j < a.Width()-1; j++ {
		spans := a.SplitForTest(device.Request{LBN: a.TrackBoundaries()[j], Sectors: 1})
		if spans[0].Child == 0 {
			lbn = a.TrackBoundaries()[j] + 4
			break
		}
	}
	if lbn < 0 {
		t.Fatal("no unit of stripe 0 lives on child 0")
	}
	if _, err := a.Serve(0, device.Request{LBN: lbn, Sectors: 8, Write: true}); err != nil {
		t.Fatalf("write over the bad range: %v", err)
	}
	if got := inj.LatentRanges(); len(got) != 0 {
		t.Fatalf("bad range not repaired by the rewrite: %v", got)
	}
	if a.LostChild() != -1 {
		t.Fatalf("rewrite degraded the array (lost %d)", a.LostChild())
	}
	// The rewritten stripe is consistent: losing the written child
	// still reconstructs, and the direct read serves clean.
	if _, err := a.Serve(a.Now(), device.Request{LBN: lbn, Sectors: 8}); err != nil {
		t.Fatalf("read after rewrite: %v", err)
	}
}
