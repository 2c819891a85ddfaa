// Command perfbench is the repository's benchmark: it drives one of
// three seeded workloads through the traxtent stack, measures host
// time and simulated latency end to end, checks the outputs, and on a
// traced run reports what each layer costs.
//
//	perfbench --workload replay-player --seed 1 --seconds 10 --trace 0
//
// Each repetition builds the system from the seeded inputs (timed as
// set-up), then measures one fixed window of requests. Repetitions
// continue until --seconds have passed; host figures are medians over
// them. Sim figures and per-layer counts are deterministic for a seed
// and must repeat bit for bit across repetitions and between traced
// and untraced ones. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"
)

// rep is one set-up-and-window repetition.
type rep struct {
	traced bool
	w      window
	parts  setupParts
	setupS float64
	hostS  float64
	heapMB float64
	allocB float64 // bytes allocated per request in the window
	layers [numLayers]layerTotals
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

const minReps = 3

func main() {
	name := flag.String("workload", "", "replay-player, replay-array or tenants-flash")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "how long to keep repeating the measurement")
	traceOn := flag.Int("trace", 0, "1: add traced repetitions and report per-layer metrics")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the repetitions to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken at the end of the last window to this file")
	out := flag.String("out", ".bench_build", "directory for the span log of the last traced window")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok || (*traceOn != 0 && *traceOn != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --trace 0|1 and --seconds > 0\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	spans := filepath.Join(*out, "spans-"+*name+".jsonl")
	res, err := run(mk(), *name, *seed, *seconds, *traceOn == 1, *cpuProfile, *memProfile, spans)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run makes the inputs, repeats set-up and window until the time is
// used, checks every repetition, and assembles the result.
func run(wl workload, name string, seed int64, seconds float64, traced bool,
	cpuProfile, memProfile, spansOut string) (result, error) {
	res := result{Metrics: map[string]metric{}}
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
	printMachine(name, seed)
	if err := wl.prepare(seed); err != nil {
		return res, fmt.Errorf("making inputs: %w", err)
	}
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return res, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return res, err
		}
		defer pprof.StopCPUProfile()
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var reps []rep
	untraced, tracedReps := 0, 0
	start := time.Now()
	budget := time.Duration(seconds * float64(time.Second))
	for time.Since(start) < budget || untraced < minReps || (traced && tracedReps < minReps) {
		// Traced runs alternate untraced and traced repetitions, so both
		// see the same drift in machine load.
		var t *tracer
		if traced && untraced > tracedReps {
			t = tr
		}
		r, err := repeat(wl, t, memProfile)
		res.Attempted += r.w.requests
		res.Failed += r.w.failed
		if err != nil {
			return res, err
		}
		if r.traced {
			tracedReps++
		} else {
			untraced++
		}
		reps = append(reps, r)
	}
	if err := check(reps, wl.requests()); err != nil {
		return res, err
	}
	if traced {
		if err := tr.writeSpans(spansOut); err != nil {
			return res, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), spansOut)
	}
	res.Correct = true
	report(&res, reps, traced)
	return res, nil
}

// repeat builds a fresh system (timed as set-up) and measures one
// window. tr is non-nil for a traced repetition. A non-empty
// memProfile is overwritten with the heap as the window left it.
func repeat(wl workload, tr *tracer, memProfile string) (rep, error) {
	r := rep{traced: tr != nil}
	runtime.GC()
	t := time.Now()
	sys, err := wl.setup(tr, &r.parts)
	if err != nil {
		return r, fmt.Errorf("set-up: %w", err)
	}
	r.setupS = time.Since(t).Seconds()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if tr != nil {
		tr.reset()
	}
	t = time.Now()
	r.w, err = sys.measure(tr)
	r.hostS = time.Since(t).Seconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return r, fmt.Errorf("window: %w", err)
	}
	r.allocB = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(r.w.requests)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.heapMB = float64(m1.HeapInuse) / (1 << 20)
	if memProfile != "" {
		if err := writeHeapProfile(memProfile); err != nil {
			return r, err
		}
	}
	runtime.KeepAlive(sys)
	if tr != nil {
		r.layers = tr.totals
	}
	return r, nil
}

// check is the correctness gate over every repetition: all requests
// resolved without failure, the sim backlog did not grow across the
// window, and the sim figures and every count repeat bit for bit
// across repetitions, traced or not.
func check(reps []rep, want int) error {
	first := reps[0].w
	for i, r := range reps {
		w := r.w
		if w.requests != want || w.samples != want || w.failed != 0 {
			return fmt.Errorf("repetition %d: %d of %d requests resolved, %d failed", i, w.samples, want, w.failed)
		}
		// An over-offered workload measures queue length: its last
		// completion trails its last arrival by a share of the window
		// that grows with the window. A stable one ends within a few
		// response times of its last arrival.
		if backlog := w.lastDone - w.lastArrival; backlog > 1e-3*w.lastArrival {
			return fmt.Errorf("repetition %d: sim backlog grew: last completion %.1f ms after the last arrival (window %.0f ms)",
				i, backlog, w.lastArrival)
		}
		if w.p50 != first.p50 || w.p99 != first.p99 || w.p9999 != first.p9999 || w.lastDone != first.lastDone {
			return fmt.Errorf("repetition %d (traced %v): sim figures differ from repetition 0", i, r.traced)
		}
		for k, v := range first.counts {
			if w.counts[k] != v {
				return fmt.Errorf("repetition %d (traced %v): count %s = %v, repetition 0 had %v", i, r.traced, k, w.counts[k], v)
			}
		}
		if len(w.counts) != len(first.counts) {
			return fmt.Errorf("repetition %d: count set differs from repetition 0", i)
		}
	}
	return nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf is the median of f over the repetitions that pass keep.
func medianOf(reps []rep, keep func(rep) bool, f func(rep) float64) float64 {
	var xs []float64
	for _, r := range reps {
		if keep(r) {
			xs = append(xs, f(r))
		}
	}
	return median(xs)
}

func untracedRep(r rep) bool { return !r.traced }
func tracedRep(r rep) bool   { return r.traced }
func anyRep(rep) bool        { return true }

// report prints every metric by name with its unit and fills the
// result: end-to-end metrics on untraced runs, per-layer metrics on
// traced ones.
func report(res *result, reps []rep, traced bool) {
	w := reps[0].w
	n := float64(w.requests)
	set := func(name string, v float64, unit string) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	hostRate := func(keep func(rep) bool) float64 {
		return medianOf(reps, keep, func(r rep) float64 { return n / r.hostS })
	}
	nu := 0
	for _, r := range reps {
		if !r.traced {
			nu++
		}
	}
	fmt.Printf("window: %d requests, %d sim samples, %d untraced + %d traced repetitions\n",
		w.requests, w.samples, nu, len(reps)-nu)
	fmt.Printf("sim: last arrival %.1f ms, last completion %.1f ms\n", w.lastArrival, w.lastDone)
	for i, r := range reps {
		fmt.Printf("repetition %d: traced %v, set-up %.4f s, window %.4f s (%.0f req/s)\n", i, r.traced, r.setupS, r.hostS, n/r.hostS)
	}

	if !traced {
		set("host_req_per_s", hostRate(untracedRep), "1/s")
		set("setup_s", medianOf(reps, anyRep, func(r rep) float64 { return r.setupS }), "s")
		set("heap_mb", medianOf(reps, untracedRep, func(r rep) float64 { return r.heapMB }), "MB")
		set("alloc_b_per_req", medianOf(reps, untracedRep, func(r rep) float64 { return r.allocB }), "B")
		set("sim_p50_ms", w.p50, "ms")
		set("sim_p99_ms", w.p99, "ms")
		set("sim_p9999_ms", w.p9999, "ms")
	} else {
		layer := func(l int, self bool) float64 {
			return medianOf(reps, tracedRep, func(r rep) float64 {
				if self {
					return float64(r.layers[l].selfNs) / n
				}
				return float64(r.layers[l].totalNs) / n
			})
		}
		set("trace.decode_ms", medianOf(reps, anyRep, func(r rep) float64 { return r.parts.decodeMs }), "ms")
		set("trace.new_player_ms", medianOf(reps, anyRep, func(r rep) float64 { return r.parts.newPlayerMs }), "ms")
		set("replay.new_ms", medianOf(reps, anyRep, func(r rep) float64 { return r.parts.replayNewMs }), "ms")
		set("trace.player_ns_per_req", layer(layerTrace, false), "ns")
		set("stack.self_ns_per_req", layer(layerStack, true), "ns")
		set("striped.self_ns_per_req", layer(layerStriped, true), "ns")
		set("faults.self_ns_per_req", layer(layerFaults, true), "ns")
		set("sim.self_ns_per_req", layer(layerSim, true), "ns")
		set("volume.self_ns_per_req", layer(layerVolume, true), "ns")
		set("ftl.self_ns_per_req", layer(layerFTL, true), "ns")
		set("zoned.flash_ns_per_req", layer(layerZoned, false), "ns")
		set("trace.overhead_frac", hostRate(untracedRep)/hostRate(tracedRep)-1, "frac")
		for _, c := range countMetrics {
			set(c.name, w.counts[c.name], c.unit)
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

// countMetrics are the per-layer counts: exact for a seed, absent (0)
// on workloads that do not use the layer.
var countMetrics = []struct{ name, unit string }{
	{"trace.player_misses", "count"},
	{"replay.window_barriers", "count"},
	{"striped.child_calls_per_req", "1/req"},
	{"sim.calls_per_req", "1/req"},
	{"cache.hit_rate", "frac"},
	{"cache.fill_sectors_per_req", "sectors/req"},
	{"cache.readahead_sectors_per_req", "sectors/req"},
	{"cache.evictions_per_kreq", "1/kreq"},
	{"sched.mean_pending", "count"},
	{"sched.max_pending", "count"},
	{"sim.efficiency", "frac"},
	{"sim.fw_hit_rate", "frac"},
	{"volume.rejected", "count"},
	{"volume.deferred", "count"},
	{"ftl.write_amp", "ratio"},
	{"ftl.gc_runs_per_kreq", "1/kreq"},
	{"ftl.erases_per_kreq", "1/kreq"},
}

// printMachine records where and how the run was made.
func printMachine(name string, seed int64) {
	fmt.Printf("machine: cpu %q, nproc %d, GOMAXPROCS %d, %s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("workload: %s, seed %d\n", name, seed)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return err
	}
	return f.Close()
}
