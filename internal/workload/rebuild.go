package workload

import (
	"fmt"
	"math/rand"

	"traxtents/internal/device"
	"traxtents/internal/device/event"
	"traxtents/internal/device/sched"
	"traxtents/internal/device/striped"
	"traxtents/internal/stats"
	"traxtents/internal/workload/driver"
)

// RebuildConfig paces the regeneration of a lost parity-array child.
type RebuildConfig struct {
	// TrackAligned reads one whole stripe unit per rebuild request —
	// and parity units are laid out on track boundaries, so each read
	// is a zero-latency whole-track access. When false the rebuild
	// walks the same units in BlockSectors-sized reads, the
	// block-granular strategy of a layout-blind rebuilder.
	TrackAligned bool
	// BlockSectors sizes block-granular rebuild reads; ignored when
	// TrackAligned.
	BlockSectors int
	// MaxUnits caps how many stripe units are regenerated (0 = the
	// whole lost child), bounding study cells.
	MaxUnits int
}

// ForegroundLoad is the open-arrival tenant traffic a rebuild competes
// with: Requests drawn from the Workload stream at seeded-Poisson
// instants of RatePerSec.
type ForegroundLoad struct {
	Workload   driver.Workload
	RatePerSec float64
}

// RebuildMetrics summarizes one rebuild-under-load run.
type RebuildMetrics struct {
	Units    int // stripe units regenerated
	Requests int // rebuild reads issued (== Units when track-aligned)
	// RebuildMs spans the first rebuild read (t=0) to the last spare
	// write completing; RebuildMBPerSec is regenerated data over that
	// span.
	RebuiltMB       float64
	RebuildMs       float64
	RebuildMBPerSec float64
	// Foreground response statistics over the full run — the p99.99
	// tail is the study's degradation headline.
	ForegroundRequests int
	ForegroundMeanMs   float64
	ForegroundP99Ms    float64
	ForegroundP9999Ms  float64
	ForegroundMaxMs    float64
	// Reconstructs counts survivor-set reconstructions the array
	// performed during the run (rebuild reads of lost data units, plus
	// any degraded foreground reads).
	Reconstructs int
}

// rbEngine runs a rebuild-under-load as a citizen of the global event
// core: every issue instant — foreground arrival or rebuild read — is
// a wake event, and the queue's dispatch decisions are fleet events on
// the same clock. The legacy bespoke heap ordered wakes by (time,
// rebuild-last, arrival index) and committed queue decisions only when
// strictly earlier than the next wake; the core reproduces that total
// order through sequence numbers alone:
//
//   - foreground arrivals are prefilled in one batch, so they hold the
//     lowest sequence numbers and win every same-instant tie (against
//     rebuild wakes and queue decisions alike), in arrival order;
//   - rebuild wakes are scheduled mid-fold, before the queue's
//     decision event is refreshed, so a decision at the same instant
//     fires after the wake — the legacy strict t-before-wake cut;
//   - each wake ends by force-rescheduling the queue's event (Update,
//     not Touch), so a decision event issued before the wake can never
//     outrank a same-instant wake scheduled after it.
type rbEngine struct {
	core  *event.Core
	fleet *event.Queues
	wake  event.HandlerID
	q     *sched.Queue
	spare device.Device

	chunks    []rbChunk
	fgReqs    []device.Request
	isRebuild map[int]int // queue seq -> chunk index
	fgResp    []float64

	rebuiltSectors                  int64
	rebuildEnd                      float64
	submitted, completed, nextChunk int

	foldFn  func(*sched.Completion)
	foldErr error
}

// fire handles one wake: submit the tagged request at its instant,
// fold any completions the submission's internal advance surfaced, and
// refresh the queue's decision event. Tags below len(fgReqs) are
// foreground arrival indices; the rest are offset rebuild chunk
// indices.
func (e *rbEngine) fire(now float64, tag int64) error {
	var req device.Request
	if int(tag) < len(e.fgReqs) {
		req = e.fgReqs[tag]
	} else {
		k := int(tag) - len(e.fgReqs)
		req = e.chunks[k].req
		e.isRebuild[e.q.Stats().Submitted] = k
		e.nextChunk = k + 1
	}
	if _, err := e.q.Submit(now, req); err != nil {
		return err
	}
	e.submitted++
	if err := e.fold(); err != nil {
		return err
	}
	return e.fleet.Update(0, e.q)
}

// fold consumes the queue's buffered completions in dispatch order.
func (e *rbEngine) fold() error {
	e.q.ConsumeCompleted(e.foldFn)
	err := e.foldErr
	e.foldErr = nil
	return err
}

// foldOne settles one completion: a rebuild read feeds its spare write
// and wakes the next chunk at its completion instant; a foreground
// completion records its response time.
func (e *rbEngine) foldOne(c *sched.Completion) {
	if e.foldErr != nil {
		return
	}
	e.completed++
	if k, ok := e.isRebuild[c.Seq]; ok {
		ch := e.chunks[k]
		if ch.sectors > 0 {
			// The regenerated span lands on the spare as the read
			// completes; the spare's clock orders its writes,
			// overlapping the next read.
			res, err := e.spare.Serve(c.Res.Done, device.Request{
				LBN: ch.spareLBN, Sectors: ch.sectors, Write: true,
			})
			if err != nil {
				e.foldErr = fmt.Errorf("workload: spare write for chunk %d: %w", k, err)
				return
			}
			e.rebuiltSectors += int64(ch.sectors)
			if res.Done > e.rebuildEnd {
				e.rebuildEnd = res.Done
			}
		}
		if c.Res.Done > e.rebuildEnd {
			e.rebuildEnd = c.Res.Done
		}
		if e.nextChunk < len(e.chunks) {
			if err := e.core.Schedule(c.Res.Done, e.wake, int64(len(e.fgReqs)+e.nextChunk)); err != nil {
				e.foldErr = err
			}
		}
		return
	}
	e.fgResp = append(e.fgResp, c.Res.Response())
}

// rbChunk is one rebuild read and the spare write it feeds.
type rbChunk struct {
	req      device.Request
	spareLBN int64
	sectors  int
}

// rebuildChunks expands the array's rebuild schedule into the read
// stream of the chosen granularity.
func rebuildChunks(units []striped.RebuildUnit, rc RebuildConfig) []rbChunk {
	var chunks []rbChunk
	for _, u := range units {
		if rc.TrackAligned {
			chunks = append(chunks, rbChunk{
				req:      device.Request{LBN: u.LBN, Sectors: int(u.Sectors)},
				spareLBN: u.SpareLBN,
				sectors:  int(u.SpareSectors),
			})
			continue
		}
		b := int64(rc.BlockSectors)
		// Walk the unit's logical span in blocks; the spare write
		// advances at the unit's own (possibly shorter) extent, clipped
		// at its tail. A parity-unit stripe reads the whole data span
		// but regenerates only SpareSectors, so the two walks differ.
		for off := int64(0); off < u.Sectors; off += b {
			n := b
			if u.Sectors-off < n {
				n = u.Sectors - off
			}
			c := rbChunk{req: device.Request{LBN: u.LBN + off, Sectors: int(n)}}
			if off < u.SpareSectors {
				c.spareLBN = u.SpareLBN + off
				c.sectors = int(min64(n, u.SpareSectors-off))
			}
			chunks = append(chunks, c)
		}
	}
	return chunks
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// RebuildUnderLoad regenerates the lost child of the degraded parity
// array behind q while the foreground load runs against the same
// queue, so the scheduler arbitrates rebuild and tenant traffic in one
// place. Each rebuild read covers lost-unit logical spans, which the
// degraded array resolves into exactly the survivor reads
// reconstruction needs; the regenerated unit is written to the spare
// at the read's completion instant, and the next read issues as soon
// as the previous completes (writes pipeline on the spare's own
// clock). When the schedule is exhausted the spare is spliced in via
// Replace, restoring the array to health. The whole loop runs in
// virtual time on the caller's goroutine: fixed seeds give
// bit-identical metrics at any GOMAXPROCS.
//
// q must wrap arr (directly or through intermediate layers) — rebuild
// reads are expressed in arr's logical space.
func RebuildUnderLoad(q *sched.Queue, arr *striped.Array, spare device.Device, fg ForegroundLoad, rc RebuildConfig) (RebuildMetrics, error) {
	if arr.LostChild() < 0 {
		return RebuildMetrics{}, fmt.Errorf("workload: rebuild needs a degraded array")
	}
	if !rc.TrackAligned && rc.BlockSectors <= 0 {
		return RebuildMetrics{}, fmt.Errorf("workload: block-granular rebuild needs BlockSectors > 0, got %d", rc.BlockSectors)
	}
	if fg.Workload.Requests <= 0 || fg.RatePerSec <= 0 {
		return RebuildMetrics{}, fmt.Errorf("workload: foreground load needs Requests and RatePerSec > 0")
	}
	if s := q.Stats(); s.Submitted != 0 {
		return RebuildMetrics{}, fmt.Errorf("workload: queue already carries %d requests; rebuilds need a fresh queue", s.Submitted)
	}
	units := arr.RebuildUnits()
	if rc.MaxUnits > 0 && rc.MaxUnits < len(units) {
		units = units[:rc.MaxUnits]
	}
	chunks := rebuildChunks(units, rc)
	if len(chunks) == 0 {
		return RebuildMetrics{}, fmt.Errorf("workload: nothing to rebuild")
	}

	// Foreground arrivals are open — independent of completions — so
	// the whole seeded Poisson sequence is known up front.
	stream, err := driver.NewStream(q, fg.Workload)
	if err != nil {
		return RebuildMetrics{}, err
	}
	arrivals := make([]float64, fg.Workload.Requests)
	fgReqs := make([]device.Request, fg.Workload.Requests)
	{
		// The arrival process uses its own derived source so the
		// request-content stream stays identical across load levels.
		iat := newExpStream(fg.Workload.Seed^0x7265626c, 1000.0/fg.RatePerSec)
		at := 0.0
		for i := range arrivals {
			arrivals[i] = at
			fgReqs[i] = stream.Next()
			at += iat.next()
		}
	}

	recon0 := arr.DegradedStats().Reconstructs
	eng := &rbEngine{
		q:         q,
		spare:     spare,
		chunks:    chunks,
		fgReqs:    fgReqs,
		isRebuild: make(map[int]int),
		fgResp:    make([]float64, 0, len(fgReqs)),
	}
	eng.foldFn = eng.foldOne
	eng.core = event.New()
	eng.wake = eng.core.Register(event.HandlerFunc(eng.fire))
	// Prefill every arrival in one batch (lowest sequence numbers: see
	// rbEngine's ordering notes), then the first rebuild read at t=0,
	// then register the queue as a single-slot fleet. Its decision
	// events are scheduled last at any instant, so wakes submit first.
	if err := eng.core.ScheduleBatch(arrivals, eng.wake, 0); err != nil {
		return RebuildMetrics{}, err
	}
	if err := eng.core.Schedule(0, eng.wake, int64(len(fgReqs))); err != nil {
		return RebuildMetrics{}, err
	}
	eng.fleet = event.NewQueues(eng.core, []*sched.Queue{q}, func(int) error { return eng.fold() })

	total := len(fgReqs) + len(chunks)
	if err := eng.core.Drain(); err != nil {
		return RebuildMetrics{}, err
	}
	if eng.completed < total {
		if err := q.Err(); err != nil {
			return RebuildMetrics{}, err
		}
		return RebuildMetrics{}, fmt.Errorf("workload: rebuild loop stalled with %d of %d complete", eng.completed, total)
	}
	if eng.submitted != total {
		return RebuildMetrics{}, fmt.Errorf("workload: submitted %d of %d requests", eng.submitted, total)
	}
	if err := q.Flush(); err != nil {
		return RebuildMetrics{}, err
	}
	if err := eng.fold(); err != nil {
		return RebuildMetrics{}, err
	}
	if rc.MaxUnits == 0 || rc.MaxUnits >= len(arr.RebuildUnits()) {
		if err := arr.Replace(arr.LostChild(), spare); err != nil {
			return RebuildMetrics{}, fmt.Errorf("workload: splicing spare in: %w", err)
		}
	}

	m := RebuildMetrics{
		Units:              len(units),
		Requests:           len(chunks),
		RebuiltMB:          float64(eng.rebuiltSectors) * float64(arr.SectorSize()) / (1 << 20),
		RebuildMs:          eng.rebuildEnd,
		ForegroundRequests: len(eng.fgResp),
		Reconstructs:       arr.DegradedStats().Reconstructs - recon0,
	}
	if eng.rebuildEnd > 0 {
		m.RebuildMBPerSec = m.RebuiltMB / (eng.rebuildEnd / 1000)
	}
	if len(eng.fgResp) > 0 {
		m.ForegroundMeanMs = stats.Mean(eng.fgResp)
		m.ForegroundP99Ms = stats.Percentile(eng.fgResp, 99)
		m.ForegroundP9999Ms = stats.Percentile(eng.fgResp, 99.99)
		m.ForegroundMaxMs = stats.Max(eng.fgResp)
	}
	return m, nil
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	Requests  int     // unit reads issued
	ElapsedMs float64 // first issue (t=at) to last completion
	// Repairs counts latent sector errors found and rewritten in
	// place; Reconstructs counts the survivor-set reconstructions that
	// regenerated their contents (one per repair).
	Repairs      int
	Reconstructs int
}

// Scrub walks every stripe of the parity array starting at virtual
// time at, reading all units — data and parity alike, which the
// logical read path never exercises — and surfacing latent sector
// errors while the array can still reconstruct them: each medium
// error is rebuilt from the peers and rewritten in place (counted in
// Repairs), converting silent corruption into repaired sectors before
// a disk loss makes it unrecoverable.
func Scrub(arr *striped.Array, at float64) (ScrubReport, error) {
	if !arr.Parity() {
		return ScrubReport{}, fmt.Errorf("workload: scrub needs a parity array")
	}
	d0 := arr.DegradedStats()
	var r ScrubReport
	t0 := at
	for s := 0; s < arr.Stripes(); s++ {
		done, reads, err := arr.ScrubStripe(at, s)
		if err != nil {
			return ScrubReport{}, fmt.Errorf("workload: scrub stripe %d: %w", s, err)
		}
		r.Requests += reads
		at = done
	}
	d1 := arr.DegradedStats()
	r.ElapsedMs = at - t0
	r.Repairs = d1.Repairs - d0.Repairs
	r.Reconstructs = d1.Reconstructs - d0.Reconstructs
	return r, nil
}

// expStream is a seeded exponential-variate stream (inter-arrival
// times), isolated from the request-content stream.
type expStream struct {
	rng  *rand.Rand
	mean float64
}

func newExpStream(seed int64, mean float64) *expStream {
	return &expStream{rng: rand.New(rand.NewSource(seed)), mean: mean}
}

func (e *expStream) next() float64 { return e.rng.ExpFloat64() * e.mean }
