package device

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"traxtents/internal/disk/mech"
)

// TestRoutesLedger: routes hand each added number back once, refuse
// gaps, numbers out of the batch's range, and numbers already taken,
// and start afresh after Reset.
func TestRoutesLedger(t *testing.T) {
	var r Routes[string]
	r.Add(3, "a")
	r.Add(5, "b") // 4 is a gap: another client's number
	r.Add(6, "c")
	if r.Live() != 3 || r.End() != 7 {
		t.Fatalf("live %d end %d, want 3 and 7", r.Live(), r.End())
	}
	if got := *r.At(5); got != "b" {
		t.Fatalf("At(5) = %q, want b", got)
	}
	for _, seq := range []int{2, 4, 7, -1} {
		if _, err := r.Take(seq); !errors.Is(err, errNoOwner) || err.Error() != "has no owner" {
			t.Fatalf("Take(%d) err = %v, want has no owner", seq, err)
		}
	}
	if v, err := r.Take(5); err != nil || *v != "b" {
		t.Fatalf("Take(5) = %v, %v", v, err)
	}
	if _, err := r.Take(5); err == nil {
		t.Fatal("Take(5) twice succeeded")
	}
	if r.Live() != 2 {
		t.Fatalf("live %d after one take, want 2", r.Live())
	}
	r.Reset()
	if r.Live() != 0 || r.End() != 7 {
		t.Fatalf("after Reset live %d end %d, want 0 and 7", r.Live(), r.End())
	}
	if _, err := r.Take(3); err == nil {
		t.Fatal("Take of a previous batch's number succeeded")
	}
	r.Add(9, "d")
	if v, err := r.Take(9); err != nil || *v != "d" {
		t.Fatalf("Take(9) in the next batch = %v, %v", v, err)
	}
}

// span returns a span result with distinct fields, so a merge that
// keeps or drops the wrong one shows.
func span(rng *rand.Rand) Result {
	start := rng.Float64() * 10
	media := start + rng.Float64()*10
	return Result{
		Req:   Request{LBN: rng.Int63n(1000), Sectors: 1 + rng.Intn(64)},
		Issue: rng.Float64(), Start: start, MediaEnd: media, Done: media + rng.Float64(),
		Timing:     mech.Breakdown{Seek: 1, Latency: 2, Transfer: 3},
		BusTime:    rng.Float64() * math.Pow(10, float64(rng.Intn(12)-6)),
		CacheHit:   rng.Intn(3) != 0,
		Prefetched: rng.Intn(8),
	}
}

// TestJoinsBusTimeOrder: a join's result, BusTime included, is
// bit-identical whichever order its spans fold in — split, reverse, or
// shuffled — because BusTime is re-summed in split order at completion.
func TestJoinsBusTimeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	req := Request{LBN: 42, Sectors: 300}
	sumsDiffer := false
	for trial := 0; trial < 200; trial++ {
		spans := make([]Result, 2+rng.Intn(6))
		for i := range spans {
			spans[i] = span(rng)
		}
		orders := [][]int{make([]int, len(spans)), make([]int, len(spans)), rng.Perm(len(spans))}
		for i := range spans {
			orders[0][i], orders[1][i] = i, len(spans)-1-i
		}
		var want Result
		for oi, order := range orders {
			var js Joins
			ji := js.Open(req, 1.5)
			slots := make([]int, len(spans))
			for i := range spans {
				slots[i] = js.Span(ji)
			}
			if js.Seal(ji) {
				t.Fatal("join with spans in flight completed at Seal")
			}
			folded := 0.0
			for k, i := range order {
				r := spans[i]
				got, done := js.Fold(slots[i], &r)
				if got != ji || done != (k == len(order)-1) {
					t.Fatalf("fold %d of %d: join %d done %v", k, len(order), got, done)
				}
				folded += r.BusTime
			}
			res := js.At(ji).Res
			if oi == 0 {
				want = res
			} else if res != want {
				t.Fatalf("trial %d order %v:\n got %+v\nwant %+v", trial, order, res, want)
			}
			if folded != want.BusTime {
				sumsDiffer = true
			}
		}
		// The merge rule itself, checked against the split-order result.
		bus, start, media, done, pre, hit := 0.0, math.Inf(1), 0.0, 0.0, 0, true
		for _, r := range spans {
			bus += r.BusTime
			start, media, done = min(start, r.Start), max(media, r.MediaEnd), max(done, r.Done)
			pre += r.Prefetched
			hit = hit && r.CacheHit
		}
		wantRes := Result{Req: req, Issue: 1.5, Start: start, MediaEnd: media, Done: done,
			BusTime: bus, CacheHit: hit, Prefetched: pre}
		if want != wantRes {
			t.Fatalf("trial %d merged\n got %+v\nwant %+v", trial, want, wantRes)
		}
	}
	if !sumsDiffer {
		t.Fatal("no fold order changed the plain BusTime sum: the spans are too tame")
	}
}

// TestJoinsSingleSpan: a join of one span is that span's full record
// under the join's own Req and Issue, media-phase breakdown included.
func TestJoinsSingleSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := span(rng)
	var js Joins
	req := Request{LBN: 7, Sectors: 8}
	ji := js.Open(req, 2)
	slot := js.Span(ji)
	if _, done := js.Fold(slot, &r); done {
		t.Fatal("unsealed join completed")
	}
	if !js.Seal(ji) {
		t.Fatal("sealed join with every span folded did not complete")
	}
	want := r
	want.Req, want.Issue = req, 2
	if got := js.At(ji).Res; got != want {
		t.Fatalf("single span\n got %+v\nwant %+v", got, want)
	}
}

// TestJoinsFailAndMissing: a failed join with spans in flight stays
// until they fold but never completes and is never reported missing;
// one with none in flight is dropped at once; a sealed join whose span
// never folds is reported missing.
func TestJoinsFailAndMissing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var js Joins
	ok := js.Open(Request{LBN: 1, Sectors: 1}, 0)
	okSlot := js.Span(ok)
	js.Seal(ok)

	failed := js.Open(Request{LBN: 2, Sectors: 2}, 0)
	inFlight := js.Span(failed)
	if js.Fail(failed); js.Len() != 2 {
		t.Fatal("failed join with a span in flight was dropped")
	}
	r := span(rng)
	if _, done := js.Fold(inFlight, &r); done {
		t.Fatal("failed join completed")
	}
	if !js.At(failed).Failed() {
		t.Fatal("failed join not marked failed")
	}

	dropped := js.Open(Request{LBN: 3, Sectors: 3}, 0)
	if js.Fail(dropped); js.Len() != 2 {
		t.Fatalf("failed join with nothing in flight kept: %d joins", js.Len())
	}

	// The first join's span never folded: it is the one missing.
	ji, err := js.Missing()
	if ji != ok || err == nil || !strings.Contains(err.Error(), "still missing 1 spans") {
		t.Fatalf("Missing() = %d, %v; want join %d missing 1 span", ji, err, ok)
	}
	if _, done := js.Fold(okSlot, &r); !done {
		t.Fatal("last span of a sealed join did not complete it")
	}
	if ji, err := js.Missing(); ji != -1 || err != nil {
		t.Fatalf("Missing() = %d, %v after every live join completed", ji, err)
	}
	js.Reset()
	if js.Len() != 0 {
		t.Fatalf("%d joins after Reset", js.Len())
	}
}
