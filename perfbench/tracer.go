package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"traxtents/internal/device"
	"traxtents/internal/disk/geom"
)

// Layers the tracer times, named after the Go package that implements
// each one. The replay driver, the host cache, the scheduling queue
// and the event core all sit under the "stack" span: the cache takes
// its lazy path only over a concrete *sched.Queue, so no wrapper may
// stand between them, and they are reported as one combined span.
const (
	layerStack = iota
	layerTrace
	layerStriped
	layerFaults
	layerSim
	layerVolume
	layerFTL
	layerZoned
	numLayers
)

var layerNames = [numLayers]string{"stack", "trace", "striped", "faults", "sim", "volume", "ftl", "zoned"}

// maxSpans bounds the in-memory span log; totals keep accumulating
// after it fills.
const maxSpans = 1 << 16

// span is one timed call into a layer: times are ns since the traced
// window began, parent is the index of the innermost span open when it
// began (-1 at the root).
type span struct {
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
}

// layerTotals sums one layer's spans: calls, wall time, and self time
// (wall time minus the time its child spans cover).
type layerTotals struct {
	calls   int64
	totalNs int64
	selfNs  int64
}

type openSpan struct {
	layer   int
	start   int64
	childNs int64
	idx     int32 // index in the span log, -1 when the log was full
}

// tracer records spans around calls into each layer. Every call path
// the benchmark drives is synchronous, so the parent of a span is the
// innermost span open when it begins. A nil tracer records nothing.
type tracer struct {
	origin time.Time
	open   []openSpan
	spans  []span
	totals [numLayers]layerTotals
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, maxSpans)}
}

// reset clears the totals and the span log and restarts the clock.
func (t *tracer) reset() {
	t.origin = time.Now()
	t.open = t.open[:0]
	t.spans = t.spans[:0]
	t.totals = [numLayers]layerTotals{}
}

func (t *tracer) begin(layer int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.origin))
	idx := int32(-1)
	if len(t.spans) < maxSpans {
		parent := int32(-1)
		if n := len(t.open); n > 0 {
			parent = t.open[n-1].idx
		}
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{Layer: layerNames[layer], Start: now, Parent: parent})
	}
	t.open = append(t.open, openSpan{layer: layer, start: now, idx: idx})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	now := int64(time.Since(t.origin))
	n := len(t.open) - 1
	o := t.open[n]
	t.open = t.open[:n]
	d := now - o.start
	tot := &t.totals[o.layer]
	tot.calls++
	tot.totalNs += d
	tot.selfNs += d - o.childNs
	if n > 0 {
		t.open[n-1].childNs += d
	}
	if o.idx >= 0 {
		t.spans[o.idx].End = now
	}
}

// writeSpans writes the span log as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// timed wraps one layer's device so that every Serve into it is a
// span. It forwards the capabilities the layers above probe for
// (rotation, boundaries, layout, name, Inner), reporting "none" the
// way every wrapper in the stack does when the wrapped device lacks
// one, so composing it changes no routing decision.
type timed struct {
	inner device.Device
	t     *tracer
	layer int
}

func (w *timed) Serve(at float64, req device.Request) (device.Result, error) {
	w.t.begin(w.layer)
	res, err := w.inner.Serve(at, req)
	w.t.end()
	return res, err
}

func (w *timed) Now() float64         { return w.inner.Now() }
func (w *timed) Capacity() int64      { return w.inner.Capacity() }
func (w *timed) SectorSize() int      { return w.inner.SectorSize() }
func (w *timed) Inner() device.Device { return w.inner }
func (w *timed) RotationPeriod() float64 {
	if r, ok := w.inner.(device.Rotational); ok {
		return r.RotationPeriod()
	}
	return 0
}

func (w *timed) TrackBoundaries() []int64 {
	if bp, ok := w.inner.(device.BoundaryProvider); ok {
		return bp.TrackBoundaries()
	}
	return nil
}

func (w *timed) Layout() *geom.Layout {
	if m, ok := w.inner.(device.Mapped); ok {
		return m.Layout()
	}
	return nil
}

func (w *timed) Name() string {
	if n, ok := w.inner.(device.Named); ok {
		return n.Name()
	}
	return ""
}

// flash is the device an FTL programs and erases: it offers erases
// and reports its erase-block size.
type flash interface {
	device.Device
	EraseAt(at float64, lbn int64, sectors int) (float64, error)
	EraseSectors() int64
}

// timedFlash is timed plus the erase capability the FTL's garbage
// collector calls through; erases are spans of the same layer.
type timedFlash struct {
	timed
	f flash
}

func (w *timedFlash) EraseAt(at float64, lbn int64, sectors int) (float64, error) {
	w.t.begin(w.layer)
	done, err := w.f.EraseAt(at, lbn, sectors)
	w.t.end()
	return done, err
}

func (w *timedFlash) EraseSectors() int64 { return w.f.EraseSectors() }
