package device

import (
	"errors"
	"fmt"
	"slices"

	"traxtents/internal/disk/mech"
)

// errNoOwner is Routes.Take's failure: a completion nobody owns.
var errNoOwner = errors.New("has no owner")

// Routes maps the sequence numbers an inner Batch hands out in the
// current batch back to the caller's records. Take refuses a number
// never added (a gap), out of range, or already taken, so a completion
// nobody owns is an error, not a misattributed result.
type Routes[T any] struct {
	base, live int
	recs       []T
	owned      []bool // recs[i] added and not yet taken
}

// Add records v as the owner of seq; numbers increase within a batch.
func (r *Routes[T]) Add(seq int, v T) {
	if len(r.recs) == 0 {
		r.base = seq
	}
	for r.End() < seq { // a gap: its record is never read
		r.recs, r.owned = append(r.recs, v), append(r.owned, false)
	}
	r.recs, r.owned = append(r.recs, v), append(r.owned, true)
	r.live++
}

// At returns the record of seq, added in the current batch.
func (r *Routes[T]) At(seq int) *T { return &r.recs[seq-r.base] }

// Take claims the record of seq, valid until the next Add or Reset.
// Its error reads "has no owner"; callers prefix the number.
func (r *Routes[T]) Take(seq int) (*T, error) {
	i := seq - r.base
	if i < 0 || i >= len(r.recs) || !r.owned[i] {
		return nil, errNoOwner // a constant, so Take inlines
	}
	r.owned[i] = false
	r.live--
	return &r.recs[i], nil
}

// Live returns the number of records added and not yet taken.
func (r *Routes[T]) Live() int { return r.live }

// End returns the number after the last one added.
func (r *Routes[T]) End() int { return r.base + len(r.recs) }

// Reset empties the routes for the next batch.
func (r *Routes[T]) Reset() { r.base, r.recs, r.owned, r.live = r.End(), r.recs[:0], r.owned[:0], 0 }

// Join is one request being reassembled from its spans into Res.
type Join struct {
	Res             Result
	span0, spans    int32 // 144-byte joins: bulk runs regrow them per batch
	remaining       int32 // spans in flight, plus one until sealed or failed
	started, failed bool
}

// Merge folds one span's result into the join, by the one merge rule
// of every fan-out layer: the first span is copied whole under the
// join's Req and Issue; each later one drops the media-phase
// breakdown, widens Start..Done, and adds BusTime and Prefetched; the
// join is a cache hit only if every span was.
func (j *Join) Merge(r *Result) {
	d := &j.Res
	if !j.started {
		req, issue := d.Req, d.Issue
		*d = *r
		d.Req, d.Issue, j.started = req, issue, true
		return
	}
	d.Timing = mech.Breakdown{}
	if r.Start < d.Start {
		d.Start = r.Start
	}
	if r.MediaEnd > d.MediaEnd {
		d.MediaEnd = r.MediaEnd
	}
	if r.Done > d.Done {
		d.Done = r.Done
	}
	d.BusTime += r.BusTime
	d.Prefetched += r.Prefetched
	d.CacheHit = d.CacheHit && r.CacheHit
}

// Failed reports whether the join failed; it never completes.
func (j *Join) Failed() bool { return j.failed }

// Joins reassembles a batch's split requests: open a join, add a slot
// per span in split order, fold the spans in any order, and seal the
// join once every span is added. Fold or Seal returns true, once, when
// it completes; a join of several spans then re-sums BusTime from its
// slots in split order, so no fold order changes it. Per-join extras
// stay with the caller, indexed like the joins.
type Joins struct {
	js  []Join
	of  []int     // span slot -> its join
	bus []float64 // span slot -> its BusTime, once folded
}

// Open starts the join of req issued at issue and returns its index.
func (s *Joins) Open(req Request, issue float64) int {
	ji := len(s.js)
	s.js = slices.Grow(s.js, 1)[:ji+1] // in place: the first merge fills Res
	j := &s.js[ji]
	j.Res.Req, j.Res.Issue = req, issue
	j.span0, j.spans, j.remaining, j.started, j.failed = int32(len(s.of)), 0, 1, false, false
	return ji
}

// Span adds a span to join ji, the last opened, and returns its slot.
func (s *Joins) Span(ji int) int {
	s.js[ji].spans++
	s.js[ji].remaining++
	s.of, s.bus = append(s.of, ji), append(s.bus, 0)
	return len(s.of) - 1
}

// Fold merges the result of the span in slot into its join and
// returns the join and whether it just completed.
func (s *Joins) Fold(slot int, r *Result) (int, bool) {
	ji := s.of[slot]
	s.bus[slot] = r.BusTime
	s.js[ji].Merge(r)
	return ji, s.Seal(ji)
}

// Seal releases one hold on join ji — the opener's once every span is
// added, or a folded span's — and reports whether it just completed.
func (s *Joins) Seal(ji int) bool {
	j := &s.js[ji]
	if j.remaining--; j.remaining != 0 || j.failed {
		return false
	}
	if j.spans > 1 {
		j.Res.BusTime = s.bus[j.span0]
		for _, b := range s.bus[j.span0+1 : j.span0+j.spans] {
			j.Res.BusTime += b
		}
	}
	return true
}

// Fail fails join ji, the last opened and not yet sealed: spans in
// flight still fold into it, but it never completes. With none in
// flight it is dropped at once, and Len shrinks.
func (s *Joins) Fail(ji int) {
	j := &s.js[ji]
	if j.failed, j.remaining = true, j.remaining-1; j.remaining == 0 {
		s.Drop(ji)
	}
}

// Drop removes join ji, the last opened, with its span slots.
func (s *Joins) Drop(ji int) {
	s.js, s.of, s.bus = s.js[:ji], s.of[:s.js[ji].span0], s.bus[:s.js[ji].span0]
}

// At returns join ji.
func (s *Joins) At(ji int) *Join { return &s.js[ji] }

// Len returns the number of joins in the batch.
func (s *Joins) Len() int { return len(s.js) }

// Missing returns the first join neither failed nor complete — its
// inner device dropped a span — and an error naming it, or -1 and nil.
func (s *Joins) Missing() (int, error) {
	for i := range s.js {
		if j := &s.js[i]; j.remaining != 0 && !j.failed {
			return i, fmt.Errorf("request %+v still missing %d spans after drain", j.Res.Req, j.remaining)
		}
	}
	return -1, nil
}

// Reset empties the joins for the next batch.
func (s *Joins) Reset() { s.js, s.of, s.bus = s.js[:0], s.of[:0], s.bus[:0] }
