package repro

import (
	"fmt"
	"math/rand"

	"traxtents/internal/device"
	"traxtents/internal/device/ftl"
	"traxtents/internal/device/sched"
	"traxtents/internal/device/zoned"
	"traxtents/internal/stats"
)

// Zoned-study parameters: an FTL over a flash device (512-sector erase
// blocks, 8-sector pages), behind a depth-8 queue running the
// zone-aware scheduler built from the FTL's erase-block boundaries.
// Both layouts issue identical block-sized overwrites under the same
// open Poisson arrivals; the only variable is the address lattice.
// The aligned layout draws from the erase-block lattice — every
// overwrite kills exactly one old block, GC victims are fully dead,
// and collection is a bare erase. The straddling layout draws the same
// block-sized requests from the half-block lattice, so writes sit
// astride erase-block tiles, physical blocks mix pages with different
// death times, and GC must copy live pages before erasing — the copy
// bursts land in the write tail. This is the paper's track-aligned
// thesis replayed on flash-era boundaries: respect the medium's
// natural extent and the tail collapses.
const (
	zonedFlashSectors = 64 * 1024
	zonedEraseSectors = 512
	zonedPageSectors  = 8
	zonedReserve      = 4
	zonedQueueDepth   = 8
	zonedWarmupPasses = 3
	zonedReqPerN      = 40
)

// zonedRates are the offered open-arrival rates (writes/second) swept
// by the study, all below the straddling layout's saturation so both
// layouts achieve the offered rate and the comparison is tail vs tail
// at equal throughput.
var zonedRates = []float64{60, 100, 140}

// zonedCellResult is one (rate, layout) cell's measurement.
type zonedCellResult struct {
	achievedIOPS float64
	mean         float64
	p99          float64
	p9999        float64
	writeAmp     float64
}

// zonedCell runs one layout at one offered rate: build the FTL stack,
// warm it into GC steady state with sequential fills, then measure n
// Poisson-arriving block-sized overwrites through the zoned-scheduler
// queue.
func zonedCell(n int, seed int64, rate float64, aligned bool) (zonedCellResult, error) {
	fl, err := zoned.NewFlash(zonedFlashSectors, zoned.WithEraseSectors(zonedEraseSectors))
	if err != nil {
		return zonedCellResult{}, err
	}
	f, err := ftl.New(fl, ftl.WithPageSectors(zonedPageSectors), ftl.WithReserveBlocks(zonedReserve))
	if err != nil {
		return zonedCellResult{}, err
	}
	// Warm up: sequential whole-block passes over the full logical
	// space bring the FTL to full utilization and steady-state GC
	// before the first measured arrival.
	at := 0.0
	for pass := 0; pass < zonedWarmupPasses; pass++ {
		for lbn := int64(0); lbn+zonedEraseSectors <= f.Capacity(); lbn += zonedEraseSectors {
			res, err := f.Serve(at, device.Request{LBN: lbn, Sectors: zonedEraseSectors, Write: true})
			if err != nil {
				return zonedCellResult{}, err
			}
			at = res.Done
		}
	}
	warmStats := f.Stats()

	s, err := sched.ByName("zoned", f)
	if err != nil {
		return zonedCellResult{}, err
	}
	q, err := sched.New(f, sched.WithDepth(zonedQueueDepth), sched.WithScheduler(s))
	if err != nil {
		return zonedCellResult{}, err
	}

	grain := int64(zonedEraseSectors)
	if !aligned {
		grain = zonedEraseSectors / 2
	}
	positions := (f.Capacity() - zonedEraseSectors) / grain
	rng := rand.New(rand.NewSource(seed))
	t := at
	first := 0.0
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64() * 1000 / rate
		if i == 0 {
			first = t
		}
		req := device.Request{LBN: rng.Int63n(positions) * grain, Sectors: zonedEraseSectors, Write: true}
		if _, err := q.Submit(t, req); err != nil {
			return zonedCellResult{}, err
		}
	}
	comps, err := q.Drain()
	if err != nil {
		return zonedCellResult{}, err
	}
	if len(comps) != n {
		return zonedCellResult{}, fmt.Errorf("repro: zoned cell drained %d of %d", len(comps), n)
	}
	resp := make([]float64, n)
	last := 0.0
	for i, c := range comps {
		resp[i] = c.Res.Done - c.Res.Issue
		if c.Res.Done > last {
			last = c.Res.Done
		}
	}
	var sum float64
	for _, r := range resp {
		sum += r
	}
	st := f.Stats()
	measured := ftl.Stats{
		DemandPages: st.DemandPages - warmStats.DemandPages,
		CopiedPages: st.CopiedPages - warmStats.CopiedPages,
		Erases:      st.Erases - warmStats.Erases,
		GCRuns:      st.GCRuns - warmStats.GCRuns,
	}
	return zonedCellResult{
		achievedIOPS: float64(n) / (last - first) * 1000,
		mean:         sum / float64(n),
		p99:          stats.Percentile(resp, 99),
		p9999:        stats.Percentile(resp, 99.99),
		writeAmp:     measured.WriteAmp(),
	}, nil
}

// ZonedStudy sweeps offered write rate and reports, per rate, both
// layouts' achieved throughput, mean, p99 and p99.99 response, and
// measured write amplification. Its golden pin is the PR's acceptance
// artifact: at every rate the erase-block-aligned layout achieves the
// offered rate with write amplification exactly 1 and a strictly lower
// p99.99 than the straddling layout. Cells follow the engine's
// per-cell-seed discipline, so the study is bit-identical at any
// GOMAXPROCS.
func ZonedStudy(n int, seed int64) ([]Point, error) {
	if n <= 0 {
		return nil, fmt.Errorf("repro: zoned study n %d", n)
	}
	reqs := zonedReqPerN * n
	res := make([][2]zonedCellResult, len(zonedRates)) // [aligned, straddling]
	var cells []Cell
	for i, rate := range zonedRates {
		for a, aligned := range []bool{true, false} {
			i, a, rate, aligned := i, a, rate, aligned
			cellSeed := seed + int64(1000*i+a)
			cells = append(cells, Cell{
				Name: fmt.Sprintf("zoned/rate=%g/aligned=%v", rate, aligned),
				Run: func() error {
					r, err := zonedCell(reqs, cellSeed, rate, aligned)
					if err != nil {
						return err
					}
					res[i][a] = r
					return nil
				},
			})
		}
	}
	if err := RunCells(cells); err != nil {
		return nil, err
	}
	out := make([]Point, len(zonedRates))
	for i, rate := range zonedRates {
		out[i] = Point{X: rate, Values: map[string]float64{
			"aligned iops":      res[i][0].achievedIOPS,
			"aligned mean":      res[i][0].mean,
			"aligned p99":       res[i][0].p99,
			"aligned p99.99":    res[i][0].p9999,
			"aligned amp":       res[i][0].writeAmp,
			"straddling iops":   res[i][1].achievedIOPS,
			"straddling mean":   res[i][1].mean,
			"straddling p99":    res[i][1].p99,
			"straddling p99.99": res[i][1].p9999,
			"straddling amp":    res[i][1].writeAmp,
		}}
	}
	return out, nil
}
