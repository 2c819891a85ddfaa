// Benchmarks regenerating every table and figure of the paper's
// evaluation (one per experiment, as indexed in DESIGN.md §9), plus
// micro-benchmarks of the library's hot paths. Key reproduced values are
// attached to each benchmark via ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the paper-comparable numbers alongside the usual timings.
package traxtents_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"traxtents"
	"traxtents/internal/device/sched"
	"traxtents/internal/disk/mech"
	"traxtents/internal/disk/model"
	"traxtents/internal/ffs"
	"traxtents/internal/lfs"
	"traxtents/internal/repro"
	"traxtents/internal/workload/driver"
)

// writeBench writes one BENCH_*.json report into the directory named
// by BENCH_OUT, and nowhere when it is unset: the gates that produce
// each report run on every test run, but only a run that asks for the
// snapshots writes them, so go test leaves the source tree alone.
func writeBench(t *testing.T, name string, report any) {
	t.Helper()
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	dir := os.Getenv("BENCH_OUT")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkTable1Models builds every Table 1 disk model (geometry walk,
// layout table, seek calibration).
func BenchmarkTable1Models(b *testing.B) {
	rows := repro.Table1()
	if len(rows) != 8 {
		b.Fatalf("Table 1 has %d rows", len(rows))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := traxtents.MustDiskModel("Quantum-Atlas10KII")
		if _, err := traxtents.NewDisk(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1Efficiency reproduces Figure 1; reported metrics are the
// efficiencies at point A (264 KB: paper 0.73 aligned, ~0.51 unaligned).
func BenchmarkFig1Efficiency(b *testing.B) {
	skipShort(b)
	for i := 0; i < b.N; i++ {
		pts, err := repro.Fig1Efficiency(2000, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.X == 264 {
				b.ReportMetric(p.Values["aligned"], "alignedEff@264KB")
				b.ReportMetric(p.Values["unaligned"], "unalignedEff@264KB")
				b.ReportMetric(p.Values["maxstream"], "maxStreamEff")
				break
			}
		}
	}
}

// BenchmarkFig3RotationalLatency regenerates the analytic Figure 3.
func BenchmarkFig3RotationalLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := repro.Fig3RotationalLatency()
		b.ReportMetric(pts[0].Values["zero-latency"], "zlLat@0%ms")
		b.ReportMetric(pts[len(pts)-1].Values["zero-latency"], "zlLat@100%ms")
		b.ReportMetric(pts[0].Values["ordinary"], "ordinaryLatMs")
	}
}

// BenchmarkFig6HeadTime reproduces Figure 6; metrics are the track-sized
// head times (paper: onereq 11.2→9.2 ms, tworeq 12.2→8.3 ms).
func BenchmarkFig6HeadTime(b *testing.B) {
	skipShort(b)
	for i := 0; i < b.N; i++ {
		series, err := repro.Fig6HeadTime(2000, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			last := s.Times[len(s.Times)-1]
			switch s.Label {
			case "onereq aligned":
				b.ReportMetric(last, "onereqAlignedMs")
			case "onereq unaligned":
				b.ReportMetric(last, "onereqUnalignedMs")
			case "tworeq aligned":
				b.ReportMetric(last, "tworeqAlignedMs")
			case "tworeq unaligned":
				b.ReportMetric(last, "tworeqUnalignedMs")
			}
		}
	}
}

// BenchmarkFig7Breakdown reproduces Figure 7 (out-of-order bus delivery).
func BenchmarkFig7Breakdown(b *testing.B) {
	skipShort(b)
	for i := 0; i < b.N; i++ {
		bk, err := repro.Fig7Breakdown(2000, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bk["track-aligned"]["response"], "alignedRespMs")
		b.ReportMetric(bk["track-aligned out-of-order"]["response"], "oooRespMs")
		b.ReportMetric(bk["normal (unaligned)"]["response"], "normalRespMs")
	}
}

// BenchmarkWriteHeadTime reproduces the §5.2 write results (paper:
// onereq 13.9 → 10.0 ms).
func BenchmarkWriteHeadTime(b *testing.B) {
	skipShort(b)
	for i := 0; i < b.N; i++ {
		wr, err := repro.WriteHeadTimes(2000, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(wr["onereq aligned"], "onereqAlignedMs")
		b.ReportMetric(wr["onereq unaligned"], "onereqUnalignedMs")
	}
}

// BenchmarkOtherDisks reproduces the §5.2 cross-disk comparison: large
// reductions only on zero-latency disks.
func BenchmarkOtherDisks(b *testing.B) {
	skipShort(b)
	for i := 0; i < b.N; i++ {
		red, err := repro.OtherDisksReadReduction(1200, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(red["Quantum-Atlas10K"][1]*100, "atlas10kTworeqPct")
		b.ReportMetric(red["Seagate-CheetahX15"][1]*100, "cheetahTworeqPct")
		b.ReportMetric(red["IBM-Ultrastar18ES"][1]*100, "ultrastarTworeqPct")
	}
}

// BenchmarkFig8Variance reproduces Figure 8 (paper: sd 0.4 vs 1.5 ms at
// track size).
func BenchmarkFig8Variance(b *testing.B) {
	skipShort(b)
	for i := 0; i < b.N; i++ {
		pts, err := repro.Fig8Variance(2000, 1)
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		b.ReportMetric(last.Values["aligned sd"], "alignedSdMs")
		b.ReportMetric(last.Values["unaligned sd"], "unalignedSdMs")
	}
}

// BenchmarkTable2FFS reproduces Table 2 at the quick sizes; metrics are
// the traxtent-vs-unmodified ratios (paper: scan +5%, diff -19%,
// copy -20%, head* +45%). Both variants' benchmark cells run on one
// worker pool.
func BenchmarkTable2FFS(b *testing.B) {
	skipShort(b)
	for i := 0; i < b.N; i++ {
		sz := repro.QuickTable2Sizes()
		rows, err := repro.RunTable2Variants([]ffs.Variant{ffs.Unmodified, ffs.Traxtent}, sz)
		if err != nil {
			b.Fatal(err)
		}
		un, tx := rows[0], rows[1]
		b.ReportMetric((tx.ScanS/un.ScanS-1)*100, "scanPenaltyPct")
		b.ReportMetric((1-tx.DiffS/un.DiffS)*100, "diffSavingPct")
		b.ReportMetric((1-tx.CopyS/un.CopyS)*100, "copySavingPct")
		b.ReportMetric((tx.HeadS/un.HeadS-1)*100, "headStarPenaltyPct")
	}
}

// BenchmarkFig9Video reproduces the soft-real-time admission behind
// Figure 9 (paper: 70 vs 45 streams per disk).
func BenchmarkFig9Video(b *testing.B) {
	skipShort(b)
	for i := 0; i < b.N; i++ {
		s, err := traxtents.NewVideoServer(traxtents.VideoConfig{Rounds: 200, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		ts := s.TrackSectors()
		al, err := s.MaxStreamsSoft(ts, true, 90)
		if err != nil {
			b.Fatal(err)
		}
		un, err := s.MaxStreamsSoft(ts, false, 90)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(al), "alignedStreams")
		b.ReportMetric(float64(un), "unalignedStreams")
	}
}

// BenchmarkHardRealTime reproduces §5.4.2 (paper: 67 vs 36 at 264 KB).
func BenchmarkHardRealTime(b *testing.B) {
	s, err := traxtents.NewVideoServer(traxtents.VideoConfig{Rounds: 10, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	ts := s.TrackSectors()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al, _, err := s.HardRealTime(ts, true)
		if err != nil {
			b.Fatal(err)
		}
		un, _, err := s.HardRealTime(ts, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(al), "alignedStreams")
		b.ReportMetric(float64(un), "unalignedStreams")
	}
}

// BenchmarkFig10LFS reproduces Figure 10 (paper: aligned minimum at the
// track size, 44% below the unaligned minimum).
func BenchmarkFig10LFS(b *testing.B) {
	skipShort(b)
	m := model.MustGet("Quantum-Atlas10KII")
	sizes := []float64{32, 64, 128, 264, 528, 1056, 2112, 4096}
	for i := 0; i < b.N; i++ {
		al, err := lfs.OWCCurve(m, sizes, true, 100, 2)
		if err != nil {
			b.Fatal(err)
		}
		un, err := lfs.OWCCurve(m, sizes, false, 100, 2)
		if err != nil {
			b.Fatal(err)
		}
		alMin, unMin := al[0].OWC, un[0].OWC
		for _, p := range al[1:] {
			if p.OWC < alMin {
				alMin = p.OWC
			}
		}
		for _, p := range un[1:] {
			if p.OWC < unMin {
				unMin = p.OWC
			}
		}
		b.ReportMetric(alMin, "alignedMinOWC")
		b.ReportMetric(unMin, "unalignedMinOWC")
		b.ReportMetric((1-alMin/unMin)*100, "savingPct")
	}
}

// BenchmarkExtractSCSI runs the DIXtrac five-step characterization on a
// full-size disk (§4.1.2: under 30,000 translations).
func BenchmarkExtractSCSI(b *testing.B) {
	skipShort(b)
	m := traxtents.MustDiskModel("Quantum-Atlas10K")
	for i := 0; i < b.N; i++ {
		d, err := traxtents.NewDisk(m, traxtents.WithConfig(traxtents.DiskConfig{}))
		if err != nil {
			b.Fatal(err)
		}
		res, err := traxtents.Characterize(traxtents.NewSCSITarget(d))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Translations), "translations")
	}
}

// BenchmarkExtractGeneral runs the timing-based extraction on a
// full-size disk (the paper's took four hours of disk time).
func BenchmarkExtractGeneral(b *testing.B) {
	skipShort(b)
	m := traxtents.MustDiskModel("Quantum-Atlas10K")
	for i := 0; i < b.N; i++ {
		d, err := traxtents.NewDisk(m)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := traxtents.ExtractGeneral(d, traxtents.ExtractOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.SimulatedMs/60000, "simulatedMinutes")
		b.ReportMetric(float64(rep.Reads), "reads")
	}
}

// ---- Micro-benchmarks of library hot paths ----

// BenchmarkLBNToPhys measures the core mapping lookup.
func BenchmarkLBNToPhys(b *testing.B) {
	m := traxtents.MustDiskModel("Quantum-Atlas10KII")
	l, err := m.Layout()
	if err != nil {
		b.Fatal(err)
	}
	total := l.NumLBNs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.LBNToPhys(int64(i) * 7919 % total); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiskService measures one simulated request end to end.
func BenchmarkDiskService(b *testing.B) {
	m := traxtents.MustDiskModel("Quantum-Atlas10KII")
	d, err := traxtents.NewDisk(m)
	if err != nil {
		b.Fatal(err)
	}
	total := d.Lay.NumLBNs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lbn := int64(i) * 104729 % (total - 1024)
		if _, err := d.Submit(traxtents.Request{LBN: lbn, Sectors: 528}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableFind measures boundary lookup in the traxtent table.
func BenchmarkTableFind(b *testing.B) {
	m := traxtents.MustDiskModel("Quantum-Atlas10KII")
	d, err := traxtents.NewDisk(m, traxtents.WithConfig(traxtents.DiskConfig{}))
	if err != nil {
		b.Fatal(err)
	}
	table, err := traxtents.GroundTruthTable(d)
	if err != nil {
		b.Fatal(err)
	}
	_, end := table.Range()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := table.Find(int64(i) * 6151 % end); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableEncode measures the on-disk encoding round trip.
func BenchmarkTableEncode(b *testing.B) {
	m := traxtents.MustDiskModel("Quantum-Atlas10KII")
	d, err := traxtents.NewDisk(m, traxtents.WithConfig(traxtents.DiskConfig{}))
	if err != nil {
		b.Fatal(err)
	}
	table, err := traxtents.GroundTruthTable(d)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := table.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := traxtents.DecodeTable(data); err != nil {
			b.Fatal(err)
		}
	}
}

// skipShort keeps CI fast: the paper-reproduction benchmarks regenerate
// whole figures per iteration and are skipped under -short (and can be
// bounded with -benchtime as usual).
func skipShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("paper-scale benchmark skipped in -short mode")
	}
}

// ---- Device-backend comparison (sim vs striped array) ----

// deviceBackends builds the two backends the BENCH_device.json report
// compares: one simulated Atlas 10K II, and a 4-wide traxtent-striped
// array of them.
func deviceBackends(tb testing.TB) map[string]traxtents.Device {
	tb.Helper()
	m := traxtents.MustDiskModel("Quantum-Atlas10KII")
	one, err := traxtents.NewDisk(m)
	if err != nil {
		tb.Fatal(err)
	}
	var children []traxtents.Device
	for i := 0; i < 4; i++ {
		d, err := traxtents.NewDisk(m, traxtents.WithSeed(int64(i)))
		if err != nil {
			tb.Fatal(err)
		}
		children = append(children, d)
	}
	arr, err := traxtents.NewStripedDevice(children)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]traxtents.Device{"sim": one, "striped-4": arr}
}

// driveDevice issues n traxtent-aligned, traxtent-sized reads back to
// back (onereq) and returns the mean simulated service and response
// times in ms. The caller supplies the traxtent table so the one-time
// table construction stays out of any per-request wall-clock window.
func driveDevice(tb testing.TB, d traxtents.Device, table *traxtents.Table, n int) (service, response float64) {
	tb.Helper()
	at := d.Now()
	for i := 0; i < n; i++ {
		e := table.Index(i * 127 % table.NumTracks())
		res, err := d.Serve(at, traxtents.Request{LBN: e.Start, Sectors: int(e.Len)})
		if err != nil {
			tb.Fatal(err)
		}
		service += res.Done - res.Start
		response += res.Response()
		at = res.Done
	}
	return service / float64(n), response / float64(n)
}

// BenchmarkDeviceServe measures one traxtent-aligned read per backend.
func BenchmarkDeviceServe(b *testing.B) {
	for _, name := range []string{"sim", "striped-4"} {
		b.Run(name, func(b *testing.B) {
			d := deviceBackends(b)[name]
			table, err := traxtents.GroundTruthTable(d)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			at := 0.0
			for i := 0; i < b.N; i++ {
				e := table.Index(i * 127 % table.NumTracks())
				res, err := d.Serve(at, traxtents.Request{LBN: e.Start, Sectors: int(e.Len)})
				if err != nil {
					b.Fatal(err)
				}
				at = res.Done
			}
		})
	}
}

// TestBenchDeviceJSON emits BENCH_device.json: a small machine-readable
// comparison of simulated service times on the sim and striped-array
// backends (virtual-time measurement, so it is cheap enough for CI).
func TestBenchDeviceJSON(t *testing.T) {
	const n = 512
	type row struct {
		Backend       string  `json:"backend"`
		Requests      int     `json:"requests"`
		MeanServiceMs float64 `json:"mean_service_ms"`
		MeanRespMs    float64 `json:"mean_response_ms"`
		WallNsPerReq  float64 `json:"wall_ns_per_req"`
	}
	report := struct {
		Benchmark string `json:"benchmark"`
		Rows      []row  `json:"rows"`
	}{Benchmark: "traxtent-aligned track-sized reads, onereq"}

	backends := deviceBackends(t)
	for _, name := range []string{"sim", "striped-4"} {
		d := backends[name]
		table, err := traxtents.GroundTruthTable(d)
		if err != nil {
			t.Fatal(err)
		}
		driveDevice(t, d, table, 64) // fault in tables and pooled buffers
		start := time.Now()
		svc, resp := driveDevice(t, d, table, n)
		wall := time.Since(start)
		if svc <= 0 || resp < svc {
			t.Fatalf("%s: implausible times svc=%g resp=%g", name, svc, resp)
		}
		report.Rows = append(report.Rows, row{
			Backend: name, Requests: n,
			MeanServiceMs: svc, MeanRespMs: resp,
			WallNsPerReq: float64(wall.Nanoseconds()) / n,
		})
	}
	// The array serves its chunk reads at single-child service times, so
	// its mean must stay in the same ballpark as one disk's.
	if a, b := report.Rows[0].MeanServiceMs, report.Rows[1].MeanServiceMs; b > 3*a {
		t.Errorf("striped mean service %.2f ms vs sim %.2f ms", b, a)
	}
	writeBench(t, "BENCH_device.json", report)
}

// ---- Hot-path microbench suite (BENCH_sim.json) ----
//
// BenchmarkServe and BenchmarkAccess are the per-PR perf trajectory of
// the request hot path; TestBenchSimJSON snapshots the same
// measurements (plus allocation counts) into BENCH_sim.json so CI
// tracks them machine-readably.
//
// Two PR-1 baselines, measured before the closed-form bus drain, the
// pooled media access, and the O(1) LBN mapping: the number
// BENCH_device.json recorded at PR 1 (2376 ns/req — a cold single
// pass whose window included the one-time GroundTruthTable build,
// ~70% of the total), and the steady-state per-request cost of the
// same loop (1403 ns/req, BenchmarkDeviceServe at commit c25015b),
// which is the like-for-like comparison for today's warmed-up
// measurement. The enforced gate is the recorded-baseline criterion;
// the warm speedup is reported alongside so the trajectory stays
// honest.
const (
	baselinePR1RecordedNsPerReq = 2376.0
	baselinePR1WarmNsPerReq     = 1403.0
)

// serveLoop issues n traxtent-aligned, traxtent-sized onereq reads —
// the same drive pattern as driveDevice — returning the summed service
// time; the JSON emitter uses it both to warm the pooled buffers and
// as its timed pass.
func serveLoop(tb testing.TB, d traxtents.Device, table *traxtents.Table, n int) float64 {
	tb.Helper()
	var svc float64
	at := d.Now()
	for i := 0; i < n; i++ {
		e := table.Index(i * 127 % table.NumTracks())
		res, err := d.Serve(at, traxtents.Request{LBN: e.Start, Sectors: int(e.Len)})
		if err != nil {
			tb.Fatal(err)
		}
		svc += res.Done - res.Start
		at = res.Done
	}
	return svc
}

// BenchmarkServe measures one track-sized, track-aligned read per
// backend through the device interface — the end-to-end request hot
// path (geometry lookup, media sweep, closed-form bus drain).
func BenchmarkServe(b *testing.B) {
	for _, name := range []string{"sim", "striped-4"} {
		b.Run(name, func(b *testing.B) {
			d := deviceBackends(b)[name]
			table, err := traxtents.GroundTruthTable(d)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			at := 0.0
			for i := 0; i < b.N; i++ {
				e := table.Index(i * 127 % table.NumTracks())
				res, err := d.Serve(at, traxtents.Request{LBN: e.Start, Sectors: int(e.Len)})
				if err != nil {
					b.Fatal(err)
				}
				at = res.Done
			}
		})
	}
}

// BenchmarkAccess measures the raw media-phase computation: a pooled
// mech.AccessInto per track-sized request, no bus or cache modelling.
func BenchmarkAccess(b *testing.B) {
	m := traxtents.MustDiskModel("Quantum-Atlas10KII")
	l, err := m.Layout()
	if err != nil {
		b.Fatal(err)
	}
	mm, err := m.Mechanism()
	if err != nil {
		b.Fatal(err)
	}
	var tm mech.Timing
	var pos mech.Pos
	_, trackSec := l.TrackRange(0)
	total := l.NumLBNs() - int64(trackSec)
	b.ReportAllocs()
	b.ResetTimer()
	at := 0.0
	for i := 0; i < b.N; i++ {
		lbn := int64(i) * 104729 % total
		if err := mm.AccessInto(&tm, l, at, pos, lbn, trackSec, false); err != nil {
			b.Fatal(err)
		}
		pos = tm.EndPos
		at = tm.EndTime
	}
}

// TestBenchSimJSON emits BENCH_sim.json: wall ns/request and allocs/
// request for steady-state track-aligned reads on the sim and striped
// backends, compared against the PR-1 baselines. Each backend is timed
// over several passes and the fastest pass is kept, so one scheduler
// preemption or GC pause on a busy CI runner cannot fail the speedup
// gate.
func TestBenchSimJSON(t *testing.T) {
	const (
		n      = 2048
		passes = 3
	)
	type row struct {
		Backend       string  `json:"backend"`
		Requests      int     `json:"requests"`
		WallNsPerReq  float64 `json:"wall_ns_per_req"`
		AllocsPerReq  float64 `json:"allocs_per_req"`
		MeanServiceMs float64 `json:"mean_service_ms"`
	}
	report := struct {
		Benchmark            string  `json:"benchmark"`
		BaselineRecNsPerReq  float64 `json:"baseline_pr1_ns_per_req"`
		BaselineWarmNsPerReq float64 `json:"baseline_pr1_warm_ns_per_req"`
		SimSpeedup           float64 `json:"sim_speedup_vs_pr1"`
		SimSpeedupWarm       float64 `json:"sim_speedup_vs_pr1_warm"`
		Rows                 []row   `json:"rows"`
	}{
		Benchmark:            "traxtent-aligned track-sized reads, onereq, steady state",
		BaselineRecNsPerReq:  baselinePR1RecordedNsPerReq,
		BaselineWarmNsPerReq: baselinePR1WarmNsPerReq,
	}

	backends := deviceBackends(t)
	for _, name := range []string{"sim", "striped-4"} {
		d := backends[name]
		table, err := traxtents.GroundTruthTable(d)
		if err != nil {
			t.Fatal(err)
		}
		serveLoop(t, d, table, 64) // warm pooled buffers out of the measurement

		at := d.Now()
		i := 0
		serveOne := func() {
			e := table.Index(i * 127 % table.NumTracks())
			res, err := d.Serve(at, traxtents.Request{LBN: e.Start, Sectors: int(e.Len)})
			if err != nil {
				t.Fatal(err)
			}
			at = res.Done
			i++
		}
		allocs := testing.AllocsPerRun(n, serveOne)
		var svc float64
		best := math.Inf(1)
		for p := 0; p < passes; p++ { // timed passes after AllocsPerRun's GC churn
			start := time.Now()
			svc = serveLoop(t, d, table, n)
			if ns := float64(time.Since(start).Nanoseconds()) / n; ns < best {
				best = ns
			}
		}
		report.Rows = append(report.Rows, row{
			Backend: name, Requests: n,
			WallNsPerReq:  best,
			AllocsPerReq:  allocs,
			MeanServiceMs: svc / n,
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state Serve allocates %.1f per request, want 0", name, allocs)
		}
	}
	report.SimSpeedup = baselinePR1RecordedNsPerReq / report.Rows[0].WallNsPerReq
	report.SimSpeedupWarm = baselinePR1WarmNsPerReq / report.Rows[0].WallNsPerReq
	// The allocs gate above is hardware-independent and always hard; the
	// wall-clock speedup compares against ns/req constants recorded on
	// one machine, so by default it is a logged metric and only
	// BENCH_SIM_ENFORCE_SPEEDUP=1 (for perf-calibrated runners) turns it
	// into a failure.
	t.Logf("sim hot path %.0f ns/req: %.1fx below the recorded PR-1 baseline, %.1fx below its warm loop",
		report.Rows[0].WallNsPerReq, report.SimSpeedup, report.SimSpeedupWarm)
	if report.SimSpeedup < 3 && !raceEnabled && os.Getenv("BENCH_SIM_ENFORCE_SPEEDUP") != "" {
		t.Errorf("sim hot path %.0f ns/req, want >= 3x below the PR-1 baseline (%.0f ns/req)",
			report.Rows[0].WallNsPerReq, baselinePR1RecordedNsPerReq)
	}
	writeBench(t, "BENCH_sim.json", report)
}

// ---- Multi-tenant volume server (BENCH_volume.json) ----

// volumeBench builds a 128-tenant volume manager over two simulated
// spindles with the given tier: every tenant owns one whole-traxtent
// extent, so a whole-extent read is a single zero-latency track access
// on one shard. The returned requests are each tenant's full extent.
func volumeBench(tb testing.TB, tier string, depth int) (*traxtents.VolumeManager, []string, []traxtents.Request) {
	tb.Helper()
	const tenants = 128
	m := traxtents.MustDiskModel("Quantum-Atlas10KII")
	var shards []traxtents.Device
	for i := 0; i < 2; i++ {
		d, err := traxtents.NewDisk(m, traxtents.WithSeed(int64(i)))
		if err != nil {
			tb.Fatal(err)
		}
		shards = append(shards, d)
	}
	table, err := traxtents.GroundTruthTable(shards[0])
	if err != nil {
		tb.Fatal(err)
	}
	meanExtent := shards[0].Capacity() / int64(table.NumTracks())
	mgr, err := traxtents.NewVolumeManager(shards,
		traxtents.WithVolumeTier(tier), traxtents.WithVolumeTierDepth(depth))
	if err != nil {
		tb.Fatal(err)
	}
	names := make([]string, tenants)
	reqs := make([]traxtents.Request, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("t%04d", i)
		v, err := mgr.AddVolume(names[i], meanExtent)
		if err != nil {
			tb.Fatal(err)
		}
		reqs[i] = traxtents.Request{LBN: 0, Sectors: int(v.ExtentTable()[0].Sectors)}
	}
	return mgr, names, reqs
}

// serveVolumeLoop drives n whole-extent reads round-robin over the
// tenants through ServeTenant — the synchronous steady-state path — and
// returns the final virtual time.
func serveVolumeLoop(tb testing.TB, mgr *traxtents.VolumeManager, names []string, reqs []traxtents.Request, n int) float64 {
	tb.Helper()
	at := mgr.Now()
	for i := 0; i < n; i++ {
		t := i % len(names)
		res, err := mgr.ServeTenant(names[t], at, reqs[t])
		if err != nil {
			tb.Fatal(err)
		}
		at = res.Done
	}
	return at
}

// BenchmarkVolumeServe measures one whole-extent tenant read through
// the 128-tenant manager per iteration (round-robin tenants).
func BenchmarkVolumeServe(b *testing.B) {
	for _, tier := range []struct {
		name  string
		tier  string
		depth int
	}{{"fcfs-d1", "fcfs", 1}, {"fair-d8", "fair", 8}, {"edf-d8", "edf", 8}} {
		b.Run(tier.name, func(b *testing.B) {
			mgr, names, reqs := volumeBench(b, tier.tier, tier.depth)
			serveVolumeLoop(b, mgr, names, reqs, 256) // warm pooled buffers
			b.ReportAllocs()
			b.ResetTimer()
			at := mgr.Now()
			for i := 0; i < b.N; i++ {
				t := i % len(names)
				res, err := mgr.ServeTenant(names[t], at, reqs[t])
				if err != nil {
					b.Fatal(err)
				}
				at = res.Done
			}
		})
	}
}

// TestBenchVolumeJSON emits BENCH_volume.json: wall-clock requests/sec
// and allocs and bytes per request for steady-state whole-extent reads
// through the 128-tenant volume manager, on the passthrough tier (fcfs,
// depth 1 — the manager's pure routing overhead) and the tenant tiers
// (sfq tagging or edf deadlines, and reordering, on top). Every tier is
// gated at zero allocations and under one allocated byte per request:
// steady-state memory must stay flat however long a server runs. Like
// the other JSON gates this is a virtual-time measurement, cheap
// enough for every CI run.
func TestBenchVolumeJSON(t *testing.T) {
	const (
		n      = 2048
		passes = 3
		steady = 1 << 16 // requests the bytes/request gate averages over
	)
	type row struct {
		Tier         string  `json:"tier"`
		Tenants      int     `json:"tenants"`
		Requests     int     `json:"requests"`
		WallNsPerReq float64 `json:"wall_ns_per_req"`
		ReqPerSec    float64 `json:"req_per_sec"`
		AllocsPerReq float64 `json:"allocs_per_req"`
		BytesPerReq  float64 `json:"bytes_per_req"`
	}
	report := struct {
		Benchmark string `json:"benchmark"`
		Rows      []row  `json:"rows"`
	}{Benchmark: "whole-extent tenant reads, 128 tenants round-robin, steady state"}

	for _, tier := range []struct {
		name  string
		tier  string
		depth int
	}{{"fcfs-d1", "fcfs", 1}, {"fair-d8", "fair", 8}, {"edf-d8", "edf", 8}} {
		mgr, names, reqs := volumeBench(t, tier.tier, tier.depth)
		serveVolumeLoop(t, mgr, names, reqs, 256) // warm pooled buffers

		at := mgr.Now()
		i := 0
		serveOne := func() {
			ti := i % len(names)
			res, err := mgr.ServeTenant(names[ti], at, reqs[ti])
			if err != nil {
				t.Fatal(err)
			}
			at = res.Done
			i++
		}
		allocs := testing.AllocsPerRun(n, serveOne)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		serveVolumeLoop(t, mgr, names, reqs, steady)
		runtime.ReadMemStats(&after)
		bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / steady
		best := math.Inf(1)
		for p := 0; p < passes; p++ { // timed passes after AllocsPerRun's GC churn
			start := time.Now()
			serveVolumeLoop(t, mgr, names, reqs, n)
			if ns := float64(time.Since(start).Nanoseconds()) / n; ns < best {
				best = ns
			}
		}
		report.Rows = append(report.Rows, row{
			Tier: tier.name, Tenants: len(names), Requests: n,
			WallNsPerReq: best,
			ReqPerSec:    1e9 / best,
			AllocsPerReq: allocs,
			BytesPerReq:  bytesPer,
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state ServeTenant allocates %.1f per request, want 0", tier.name, allocs)
		}
		if bytesPer >= 1 {
			t.Errorf("%s: steady-state ServeTenant allocates %.2f B per request over %d requests, want < 1",
				tier.name, bytesPer, steady)
		}
	}
	writeBench(t, "BENCH_volume.json", report)
}

// ---- Global event core at fleet scale (BENCH_events.json) ----

// eventFleetSpindles is the scale the event-core gate runs at: one
// discrete-event heap advancing this many queued spindles on one
// clock.
const (
	eventFleetSpindles   = 1024
	eventFleetPerSpindle = 16
	eventFleetRate       = 120.0 // per-spindle arrivals/sec (light load: the metric is core overhead, not queueing)
)

// eventFleet builds a fleet of queued Atlas 10K II spindles over one
// event core, each fed a sequential 8-sector read stream — the
// cheapest request the media model serves, so the measurement weights
// the event machinery, not seek arithmetic.
func eventFleet(tb testing.TB, depth int, clook bool) *driver.Fleet {
	tb.Helper()
	m := traxtents.MustDiskModel("Quantum-Atlas10KII")
	qs := make([]*sched.Queue, eventFleetSpindles)
	for i := range qs {
		d, err := traxtents.NewDisk(m, traxtents.WithSeed(int64(i)))
		if err != nil {
			tb.Fatal(err)
		}
		opts := []sched.Option{sched.WithDepth(depth)}
		if clook {
			opts = append(opts, sched.WithScheduler(sched.CLOOK()))
		}
		q, err := sched.New(d, opts...)
		if err != nil {
			tb.Fatal(err)
		}
		qs[i] = q
	}
	f, err := driver.NewFleet(qs, driver.Workload{
		Requests: eventFleetPerSpindle, IOSectors: 8, Sequential: true, Seed: 11,
	}, eventFleetRate)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// BenchmarkEventFleet measures one full fleet run — every spindle's
// arrivals and dispatch decisions through the shared event heap — per
// iteration.
func BenchmarkEventFleet(b *testing.B) {
	f := eventFleet(b, 1, false)
	if _, err := f.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var m driver.FleetMetrics
	for i := 0; i < b.N; i++ {
		var err error
		if m, err = f.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Requests), "req/run")
	b.ReportMetric(float64(m.Events), "events/run")
}

// TestBenchEventsJSON emits BENCH_events.json: wall ns/request,
// events/sec, and allocs/request for 1024 queued spindles advanced by
// the one global event core, against the single-disk sim hot path
// measured in the same run (the BENCH_sim stride loop). The gates: at
// least 1k spindles in one event-core run, zero allocations per
// request steady-state, and — since an event-core request is a
// sequential 8-sector read plus all scheduling machinery — cheaper
// per request than the raw stride hot path, so the core's bookkeeping
// costs less than the seek arithmetic it amortizes. Baseline and
// gated-fleet passes interleave so a machine-noise window lands on
// both sides of the comparison, not just one.
func TestBenchEventsJSON(t *testing.T) {
	const passes = 3
	type row struct {
		Config       string  `json:"config"`
		Spindles     int     `json:"spindles"`
		Requests     int     `json:"requests_per_run"`
		Events       uint64  `json:"events_per_run"`
		WallNsPerReq float64 `json:"wall_ns_per_req"`
		EventsPerSec float64 `json:"events_per_sec"`
		AllocsPerReq float64 `json:"allocs_per_req"`
		MakespanMs   float64 `json:"makespan_ms"`
		MeanRespMs   float64 `json:"mean_resp_ms"`
	}
	report := struct {
		Benchmark           string  `json:"benchmark"`
		SimBaselineNsPerReq float64 `json:"sim_baseline_ns_per_req"`
		Rows                []row   `json:"rows"`
	}{Benchmark: "1024-spindle fleet on one event core, sequential 8-sector reads"}

	// Same-run sim baseline: the BENCH_sim stride loop on one disk.
	// Warm here, timed pass-by-pass alongside the fleet below.
	base := deviceBackends(t)["sim"]
	table, err := traxtents.GroundTruthTable(base)
	if err != nil {
		t.Fatal(err)
	}
	serveLoop(t, base, table, 64) // warm pooled buffers
	report.SimBaselineNsPerReq = math.Inf(1)
	baselinePass := func() {
		start := time.Now()
		serveLoop(t, base, table, 2048)
		if ns := float64(time.Since(start).Nanoseconds()) / 2048; ns < report.SimBaselineNsPerReq {
			report.SimBaselineNsPerReq = ns
		}
	}

	for _, cfg := range []struct {
		name  string
		depth int
		clook bool
	}{{"fcfs-d1", 1, false}, {"clook-d4", 4, true}} {
		f := eventFleet(t, cfg.depth, cfg.clook)
		warm, err := f.Run() // heap + arena high-water marks
		if err != nil {
			t.Fatal(err)
		}
		if warm.Spindles < 1000 {
			t.Fatalf("%s: %d spindles in one event-core run, want >= 1000", cfg.name, warm.Spindles)
		}
		var runErr error
		allocs := testing.AllocsPerRun(2, func() {
			if _, err := f.Run(); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		var m driver.FleetMetrics
		best, bestEvs := math.Inf(1), 0.0
		for p := 0; p < passes; p++ { // timed passes after AllocsPerRun's GC churn
			if cfg.depth == 1 {
				baselinePass() // interleave with the gated config's passes
			}
			start := time.Now()
			if m, err = f.Run(); err != nil {
				t.Fatal(err)
			}
			wall := float64(time.Since(start).Nanoseconds())
			if ns := wall / float64(m.Requests); ns < best {
				best = ns
				bestEvs = float64(m.Events) / (wall / 1e9)
			}
		}
		report.Rows = append(report.Rows, row{
			Config: cfg.name, Spindles: m.Spindles, Requests: m.Requests,
			Events:       m.Events,
			WallNsPerReq: best,
			EventsPerSec: bestEvs,
			AllocsPerReq: allocs / float64(m.Requests),
			MakespanMs:   m.MakespanMs,
			MeanRespMs:   m.MeanRespMs,
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state run allocates %.1f (%.4f/request), want 0",
				cfg.name, allocs, allocs/float64(m.Requests))
		}
	}
	// The ns/req gate compares two same-run wall measurements, so it is
	// machine-independent; race instrumentation distorts both sides
	// unevenly, so it stays a logged metric there.
	fcfs := report.Rows[0]
	t.Logf("event fleet %.0f ns/req at %d spindles (%.0f events/sec) vs sim stride baseline %.0f ns/req",
		fcfs.WallNsPerReq, fcfs.Spindles, fcfs.EventsPerSec, report.SimBaselineNsPerReq)
	if !raceEnabled && fcfs.WallNsPerReq >= report.SimBaselineNsPerReq {
		t.Errorf("event fleet %.0f ns/req, want strictly below the same-run sim baseline %.0f ns/req",
			fcfs.WallNsPerReq, report.SimBaselineNsPerReq)
	}
	writeBench(t, "BENCH_events.json", report)
}

// ---- Trace pipeline at capture scale (BENCH_replay.json) ----

// replayBenchRecords is the capture size the trace-pipeline gate runs
// at: a million records through codec and replay in one test.
const replayBenchRecords = 1_000_000

// replayBenchTrace synthesizes a million-record capture with the
// statistics of a real block trace: locality-heavy LBN deltas,
// power-of-two sizes, correlated service times, Poisson arrivals.
func replayBenchTrace() traxtents.Trace {
	rng := rand.New(rand.NewSource(17))
	tr := traxtents.Trace{
		Name:       "replay-bench",
		Capacity:   17938986,
		SectorSize: 512,
		Records:    make([]traxtents.TraceRecord, replayBenchRecords),
	}
	lbn := int64(9000)
	at := 0.0
	for i := range tr.Records {
		lbn += int64(rng.Intn(4096) - 2048)
		if lbn < 0 {
			lbn = 0
		}
		if lbn > tr.Capacity-256 {
			lbn = tr.Capacity - 256
		}
		at += rng.ExpFloat64() * 0.5
		tr.Records[i] = traxtents.TraceRecord{
			LBN:     lbn,
			Sectors: 8 << uint(rng.Intn(4)),
			Write:   rng.Intn(4) == 0,
			Issue:   at,
			Service: 2 + rng.Float64()*8,
		}
	}
	return tr
}

// BenchmarkTraceDecode measures decoding a 1M-record trace from the
// binary format.
func BenchmarkTraceDecode(b *testing.B) {
	skipShort(b)
	data, err := traxtents.EncodeTraceBinary(replayBenchTrace())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := traxtents.DecodeTraceBinary(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data))/replayBenchRecords, "bytes/record")
}

// BenchmarkTraceReplay measures one full million-request replay
// (strict player under a passthrough stack) per iteration.
func BenchmarkTraceReplay(b *testing.B) {
	skipShort(b)
	tr := replayBenchTrace()
	p, err := traxtents.NewTraceDevice(tr, traxtents.StrictReplay())
	if err != nil {
		b.Fatal(err)
	}
	st, err := traxtents.NewDeviceStack(p, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	r, err := traxtents.NewTraceReplay(st, tr, traxtents.ReplayConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Reset()
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(replayBenchRecords, "req/run")
}

// BenchmarkNewPlayer measures building a strict player over the
// million-record capture: validating every record and indexing each
// one by key.
func BenchmarkNewPlayer(b *testing.B) {
	tr := replayBenchTrace()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := traxtents.NewTraceDevice(tr, traxtents.StrictReplay()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	records := float64(b.N) * replayBenchRecords
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/records, "ns/record")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/records, "B/record")
}

// TestBenchReplayJSON emits BENCH_replay.json: the trace pipeline at
// capture scale, all in one run over one million-record trace. The
// gates:
//
//   - lossless and canonical: the trace survives binary → JSON →
//     binary bit-exactly (bytes.Equal on the two binary encodings);
//   - the binary decode is strictly faster than the JSON decode of
//     the same capture, measured back to back in this run;
//   - the bulk replay driver streams the million requests through
//     cache → queue → strict player at ≥ 1M requests/sec wall clock;
//   - a steady-state replay run allocates nothing.
//
// The allocation and round-trip gates are hardware-independent and
// always hard; the two timing gates compare same-run measurements and
// are suspended only under the race detector, whose instrumentation
// distorts the sides unevenly.
func TestBenchReplayJSON(t *testing.T) {
	const passes = 3
	report := struct {
		Benchmark         string  `json:"benchmark"`
		Records           int     `json:"records"`
		BinaryBytes       int     `json:"binary_bytes"`
		JSONBytes         int     `json:"json_bytes"`
		BytesPerRecord    float64 `json:"binary_bytes_per_record"`
		CompressionVsJSON float64 `json:"json_to_binary_ratio"`
		BinaryDecodeMs    float64 `json:"binary_decode_ms"`
		JSONDecodeMs      float64 `json:"json_decode_ms"`
		DecodeSpeedup     float64 `json:"binary_decode_speedup"`
		RoundTripExact    bool    `json:"round_trip_bit_exact"`
		NewPlayerMs       float64 `json:"new_player_ms"`
		ReplayReqPerSec   float64 `json:"replay_req_per_sec"`
		ReplayNsPerReq    float64 `json:"replay_ns_per_req"`
		ReplayAllocsPer   float64 `json:"replay_allocs_per_req"`
		ReplayP99Ms       float64 `json:"replay_p99_response_ms"`
		WindowBarriers    int     `json:"window_barriers"`
	}{Benchmark: "1M-record trace: codec round trip + bulk replay", Records: replayBenchRecords}

	tr := replayBenchTrace()

	// Codec round trip: binary → JSON → binary must be bit-exact.
	bin, err := traxtents.EncodeTraceBinary(tr)
	if err != nil {
		t.Fatal(err)
	}
	report.BinaryBytes = len(bin)
	report.BytesPerRecord = float64(len(bin)) / replayBenchRecords

	var fromBin traxtents.Trace
	report.BinaryDecodeMs = math.Inf(1)
	for p := 0; p < passes; p++ {
		start := time.Now()
		fromBin, err = traxtents.DecodeTraceBinary(bin)
		if err != nil {
			t.Fatal(err)
		}
		if ms := float64(time.Since(start).Nanoseconds()) / 1e6; ms < report.BinaryDecodeMs {
			report.BinaryDecodeMs = ms
		}
	}
	js, err := fromBin.Encode()
	if err != nil {
		t.Fatal(err)
	}
	report.JSONBytes = len(js)
	report.CompressionVsJSON = float64(len(js)) / float64(len(bin))
	var fromJSON traxtents.Trace
	report.JSONDecodeMs = math.Inf(1)
	for p := 0; p < passes; p++ {
		start := time.Now()
		fromJSON, err = traxtents.DecodeTrace(js)
		if err != nil {
			t.Fatal(err)
		}
		if ms := float64(time.Since(start).Nanoseconds()) / 1e6; ms < report.JSONDecodeMs {
			report.JSONDecodeMs = ms
		}
	}
	bin2, err := traxtents.EncodeTraceBinary(fromJSON)
	if err != nil {
		t.Fatal(err)
	}
	report.RoundTripExact = bytes.Equal(bin, bin2)
	if !report.RoundTripExact {
		t.Errorf("binary -> JSON -> binary round trip of %d records is not bit-exact", replayBenchRecords)
	}
	report.DecodeSpeedup = report.JSONDecodeMs / report.BinaryDecodeMs
	t.Logf("decode %d records: binary %.0f ms (%d bytes), JSON %.0f ms (%d bytes): %.1fx",
		replayBenchRecords, report.BinaryDecodeMs, report.BinaryBytes,
		report.JSONDecodeMs, report.JSONBytes, report.DecodeSpeedup)
	if !raceEnabled && report.BinaryDecodeMs >= report.JSONDecodeMs {
		t.Errorf("binary decode %.1f ms, want strictly below same-run JSON decode %.1f ms",
			report.BinaryDecodeMs, report.JSONDecodeMs)
	}

	// Player set-up: validating and indexing every record. Reported,
	// not gated.
	var player *traxtents.TraceDevice
	report.NewPlayerMs = math.Inf(1)
	for p := 0; p < passes; p++ {
		start := time.Now()
		if player, err = traxtents.NewTraceDevice(fromBin, traxtents.StrictReplay()); err != nil {
			t.Fatal(err)
		}
		if ms := float64(time.Since(start).Nanoseconds()) / 1e6; ms < report.NewPlayerMs {
			report.NewPlayerMs = ms
		}
	}
	t.Logf("new player over %d records: %.0f ms", replayBenchRecords, report.NewPlayerMs)

	// Bulk replay: the decoded capture through cache → queue → strict
	// player, windowed submit/drain, streaming statistics only.
	st, err := traxtents.NewDeviceStack(player, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := traxtents.NewTraceReplay(st, fromBin, traxtents.ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil { // warm: window buffers, quantile state
		t.Fatal(err)
	}
	var m traxtents.ReplayMetrics
	var runErr error
	allocs := testing.AllocsPerRun(2, func() {
		player.Reset()
		m, runErr = r.Run()
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	report.ReplayAllocsPer = allocs / replayBenchRecords
	if allocs != 0 {
		t.Errorf("steady-state replay run allocates %.1f (%.6f/request), want 0",
			allocs, allocs/replayBenchRecords)
	}
	best := math.Inf(1)
	for p := 0; p < passes; p++ {
		player.Reset()
		start := time.Now()
		if m, err = r.Run(); err != nil {
			t.Fatal(err)
		}
		if ns := float64(time.Since(start).Nanoseconds()) / replayBenchRecords; ns < best {
			best = ns
		}
	}
	if m.Requests != replayBenchRecords {
		t.Fatalf("replay resolved %d of %d requests", m.Requests, replayBenchRecords)
	}
	if player.Misses() != 0 {
		t.Fatalf("strict replay missed %d requests", player.Misses())
	}
	report.ReplayNsPerReq = best
	report.ReplayReqPerSec = 1e9 / best
	report.ReplayP99Ms = m.P99ResponseMs
	report.WindowBarriers = m.WindowBarriers
	t.Logf("replay %d requests: %.0f ns/req (%.2fM req/s), %d window barriers",
		replayBenchRecords, best, report.ReplayReqPerSec/1e6, m.WindowBarriers)
	if !raceEnabled && report.ReplayReqPerSec < 1e6 {
		t.Errorf("replay %.0f req/s, want >= 1M req/s steady state", report.ReplayReqPerSec)
	}

	writeBench(t, "BENCH_replay.json", report)
}

// ---- Degraded-mode rebuild (BENCH_rebuild.json) ----

// TestBenchRebuildJSON emits BENCH_rebuild.json: the rebuild study's
// headline numbers at a CI-sized cell (rebuild MB/s and the foreground
// p99.99 it inflicts, track-aligned vs block-granular), plus the
// fault-free hot-path gates — a passthrough fault injector and a
// healthy parity array must both serve steady-state track-aligned
// reads at zero allocations per request, so the failure subsystem
// costs nothing until something actually fails.
func TestBenchRebuildJSON(t *testing.T) {
	const n = 1024
	type strategyRow struct {
		Strategy          string  `json:"strategy"`
		RebuildMs         float64 `json:"rebuild_ms"`
		RebuildMBPerSec   float64 `json:"rebuild_mb_per_sec"`
		ForegroundP99Ms   float64 `json:"foreground_p99_ms"`
		ForegroundP9999Ms float64 `json:"foreground_p9999_ms"`
		Reconstructs      int     `json:"reconstructs"`
	}
	type pathRow struct {
		Path         string  `json:"path"`
		Requests     int     `json:"requests"`
		WallNsPerReq float64 `json:"wall_ns_per_req"`
		AllocsPerReq float64 `json:"allocs_per_req"`
	}
	report := struct {
		Benchmark string        `json:"benchmark"`
		Rows      []strategyRow `json:"rows"`
		FaultFree []pathRow     `json:"fault_free"`
	}{Benchmark: "degraded rebuild under foreground load, 3-wide parity, 1 lost"}

	res, err := repro.RebuildStudy(5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		report.Rows = append(report.Rows, strategyRow{
			Strategy:          r.Strategy,
			RebuildMs:         r.Metrics.RebuildMs,
			RebuildMBPerSec:   r.Metrics.RebuildMBPerSec,
			ForegroundP99Ms:   r.Metrics.ForegroundP99Ms,
			ForegroundP9999Ms: r.Metrics.ForegroundP9999Ms,
			Reconstructs:      r.Metrics.Reconstructs,
		})
	}

	// Fault-free hot paths: the failure machinery must be invisible
	// until a fault fires.
	m := traxtents.MustDiskModel("Quantum-Atlas10KII")
	newDisk := func(seed int64) traxtents.Device {
		d, err := traxtents.NewDisk(m, traxtents.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	inj, err := traxtents.NewFaultyDevice(newDisk(1))
	if err != nil {
		t.Fatal(err)
	}
	var children []traxtents.Device
	for i := int64(2); i < 5; i++ {
		children = append(children, newDisk(i))
	}
	parr, err := traxtents.NewStripedDevice(children, traxtents.WithParity())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct {
		name string
		d    traxtents.Device
	}{{"faults-passthrough", inj}, {"parity-3-healthy", parr}} {
		table, err := traxtents.GroundTruthTable(p.d)
		if err != nil {
			t.Fatal(err)
		}
		serveLoop(t, p.d, table, 64) // warm pooled buffers
		at := p.d.Now()
		i := 0
		serveOne := func() {
			e := table.Index(i * 127 % table.NumTracks())
			res, err := p.d.Serve(at, traxtents.Request{LBN: e.Start, Sectors: int(e.Len)})
			if err != nil {
				t.Fatal(err)
			}
			at = res.Done
			i++
		}
		allocs := testing.AllocsPerRun(n, serveOne)
		start := time.Now()
		serveLoop(t, p.d, table, n)
		wall := float64(time.Since(start).Nanoseconds()) / n
		report.FaultFree = append(report.FaultFree, pathRow{
			Path: p.name, Requests: n, WallNsPerReq: wall, AllocsPerReq: allocs,
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state Serve allocates %.1f per request, want 0", p.name, allocs)
		}
	}

	writeBench(t, "BENCH_rebuild.json", report)
}

// ---- Zoned and flash backends (BENCH_zoned.json) ----

// zonedBenchDevice builds the zoned-over-flash backend the gate
// drives: 16 zones of 4096 sectors over a 64K-sector flash device.
func zonedBenchDevice(tb testing.TB) *traxtents.ZonedDevice {
	tb.Helper()
	f, err := traxtents.NewFlashDevice(64 * 1024)
	if err != nil {
		tb.Fatal(err)
	}
	z, err := traxtents.NewZonedDevice(f, traxtents.WithZones(16))
	if err != nil {
		tb.Fatal(err)
	}
	return z
}

// ftlBenchDevice builds the FTL backend the gate drives: 32 erase
// blocks of 512 sectors, 4 in reserve — small enough that random
// half-block-grain overwrites keep the garbage collector busy.
func ftlBenchDevice(tb testing.TB) *traxtents.FTLDevice {
	tb.Helper()
	f, err := traxtents.NewFlashDevice(16*1024, traxtents.WithEraseSectors(512))
	if err != nil {
		tb.Fatal(err)
	}
	l, err := traxtents.NewFTLDevice(f, traxtents.WithPageSectors(8), traxtents.WithReserveBlocks(4))
	if err != nil {
		tb.Fatal(err)
	}
	return l
}

// BenchmarkZonedWrite measures one in-protocol 64-sector zone write
// (with the zone reset folded in at each zone fill) per iteration.
func BenchmarkZonedWrite(b *testing.B) {
	z := zonedBenchDevice(b)
	bounds := z.ZoneBoundaries()
	zi := 0
	at := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := z.Serve(at, traxtents.Request{LBN: z.WritePointer(zi), Sectors: 64, Write: true})
		if err != nil {
			b.Fatal(err)
		}
		at = res.Done
		if z.WritePointer(zi) == bounds[zi+1] {
			if at, err = z.ResetZoneAt(at, zi); err != nil {
				b.Fatal(err)
			}
			zi = (zi + 1) % (len(bounds) - 1)
		}
	}
}

// BenchmarkFTLWrite measures one steady-state 512-sector overwrite on
// the half-block grain — the straddling pattern that keeps garbage
// collection running — per iteration.
func BenchmarkFTLWrite(b *testing.B) {
	l := ftlBenchDevice(b)
	rng := rand.New(rand.NewSource(9))
	const block = 512
	positions := (l.Capacity()-block)/256 + 1
	at := 0.0
	write := func() {
		res, err := l.Serve(at, traxtents.Request{LBN: rng.Int63n(positions) * 256, Sectors: block, Write: true})
		if err != nil {
			b.Fatal(err)
		}
		at = res.Done
	}
	for i := 0; i < 200; i++ { // warm until GC is in steady state
		write()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write()
	}
}

// TestBenchZonedJSON emits BENCH_zoned.json: wall ns/request and
// allocs/request for the two flash-era hot paths — in-protocol zone
// writes (resets folded in) on the zoned wrapper, and steady-state
// GC-heavy overwrites through the FTL. Both are gated at zero
// allocations per request: the zone-protocol bookkeeping and the FTL's
// mapping and garbage collection must stay allocation-free once warm,
// like every other steady-state path in the repo. The FTL row also
// proves the measured window really ran the collector (gc_runs > 0),
// so the zero-alloc claim covers relocation and erase, not just the
// mapping fast path.
func TestBenchZonedJSON(t *testing.T) {
	const (
		n      = 2048
		passes = 3
	)
	type row struct {
		Path         string  `json:"path"`
		Requests     int     `json:"requests"`
		WallNsPerReq float64 `json:"wall_ns_per_req"`
		AllocsPerReq float64 `json:"allocs_per_req"`
		MeanSvcMs    float64 `json:"mean_service_ms"`
		GCRuns       int64   `json:"gc_runs,omitempty"`
		WriteAmp     float64 `json:"write_amp,omitempty"`
	}
	report := struct {
		Benchmark string `json:"benchmark"`
		Rows      []row  `json:"rows"`
	}{Benchmark: "flash-era hot paths: zone-protocol writes and GC-heavy FTL overwrites, steady state"}

	// Zone-protocol writes: sequential 64-sector writes at the pointer,
	// one reset per zone fill, cycling the zone table forever.
	{
		z := zonedBenchDevice(t)
		bounds := z.ZoneBoundaries()
		zi := 0
		at := 0.0
		var svc float64
		serveOne := func() {
			res, err := z.Serve(at, traxtents.Request{LBN: z.WritePointer(zi), Sectors: 64, Write: true})
			if err != nil {
				t.Fatal(err)
			}
			svc += res.Done - res.Start
			at = res.Done
			if z.WritePointer(zi) == bounds[zi+1] {
				if at, err = z.ResetZoneAt(at, zi); err != nil {
					t.Fatal(err)
				}
				zi = (zi + 1) % (len(bounds) - 1)
			}
		}
		for i := 0; i < 256; i++ { // warm: fault in the zone table memo
			serveOne()
		}
		allocs := testing.AllocsPerRun(n, serveOne)
		best := math.Inf(1)
		for p := 0; p < passes; p++ {
			svc = 0
			start := time.Now()
			for i := 0; i < n; i++ {
				serveOne()
			}
			if ns := float64(time.Since(start).Nanoseconds()) / n; ns < best {
				best = ns
			}
		}
		report.Rows = append(report.Rows, row{
			Path: "zoned-seq-write", Requests: n,
			WallNsPerReq: best, AllocsPerReq: allocs, MeanSvcMs: svc / n,
		})
		if allocs != 0 {
			t.Errorf("zoned-seq-write: steady-state Serve allocates %.1f per request, want 0", allocs)
		}
	}

	// GC-heavy FTL overwrites: random 512-sector writes on the
	// half-block grain, so every victim block is half live and garbage
	// collection copies pages continuously.
	{
		l := ftlBenchDevice(t)
		rng := rand.New(rand.NewSource(9))
		const block = 512
		positions := (l.Capacity()-block)/256 + 1
		at := 0.0
		var svc float64
		serveOne := func() {
			res, err := l.Serve(at, traxtents.Request{LBN: rng.Int63n(positions) * 256, Sectors: block, Write: true})
			if err != nil {
				t.Fatal(err)
			}
			svc += res.Done - res.Start
			at = res.Done
		}
		for i := 0; i < 200; i++ { // warm until GC is in steady state
			serveOne()
		}
		if l.Stats().GCRuns == 0 {
			t.Fatal("ftl-gc-write: warmup never triggered garbage collection")
		}
		pre := l.Stats()
		allocs := testing.AllocsPerRun(n, serveOne)
		best := math.Inf(1)
		for p := 0; p < passes; p++ {
			svc = 0
			start := time.Now()
			for i := 0; i < n; i++ {
				serveOne()
			}
			if ns := float64(time.Since(start).Nanoseconds()) / n; ns < best {
				best = ns
			}
		}
		post := l.Stats()
		window := traxtents.FTLStats{
			DemandPages: post.DemandPages - pre.DemandPages,
			CopiedPages: post.CopiedPages - pre.CopiedPages,
			Erases:      post.Erases - pre.Erases,
			GCRuns:      post.GCRuns - pre.GCRuns,
		}
		report.Rows = append(report.Rows, row{
			Path: "ftl-gc-write", Requests: n,
			WallNsPerReq: best, AllocsPerReq: allocs, MeanSvcMs: svc / n,
			GCRuns: window.GCRuns, WriteAmp: window.WriteAmp(),
		})
		if allocs != 0 {
			t.Errorf("ftl-gc-write: steady-state Serve allocates %.1f per request, want 0", allocs)
		}
		if window.GCRuns == 0 || window.CopiedPages == 0 {
			t.Errorf("ftl-gc-write: measured window ran no GC (%d runs, %d copies) — the gate measured only the fast path",
				window.GCRuns, window.CopiedPages)
		}
	}

	writeBench(t, "BENCH_zoned.json", report)
}
