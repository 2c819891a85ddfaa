package trace_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"traxtents/internal/device"
	"traxtents/internal/device/trace"
)

func testTrace() trace.Trace {
	return trace.Trace{
		Name:       "unit",
		Capacity:   10000,
		SectorSize: 512,
		Records: []trace.Record{
			{LBN: 0, Sectors: 8, Service: 5},
			{LBN: 0, Sectors: 8, Service: 3}, // same key, queued behind the first
			{LBN: 100, Sectors: 16, Write: true, Service: 7},
		},
	}
}

func TestPlayerValidation(t *testing.T) {
	bad := []trace.Trace{
		{Capacity: 0, SectorSize: 512},
		{Capacity: 100, SectorSize: 0},
		{Capacity: 100, SectorSize: 512, Records: []trace.Record{{LBN: 99, Sectors: 2, Service: 1}}},
		{Capacity: 100, SectorSize: 512, Records: []trace.Record{{LBN: 0, Sectors: 0, Service: 1}}},
		{Capacity: 100, SectorSize: 512, Records: []trace.Record{{LBN: 0, Sectors: 1, Service: -2}}},
	}
	for i, tr := range bad {
		if _, err := trace.NewPlayer(tr); err == nil {
			t.Errorf("trace %d accepted: %+v", i, tr)
		}
	}
}

func TestReplayFIFOAndQueueing(t *testing.T) {
	p, err := trace.NewPlayer(testTrace())
	if err != nil {
		t.Fatalf("NewPlayer: %v", err)
	}
	// Records with the same key replay in trace order.
	r1, err := p.Serve(0, device.Request{LBN: 0, Sectors: 8})
	if err != nil || r1.Done-r1.Start != 5 {
		t.Fatalf("first replay: %+v, %v", r1, err)
	}
	// Issued before the device frees up: queued behind r1.
	r2, err := p.Serve(1, device.Request{LBN: 0, Sectors: 8})
	if err != nil {
		t.Fatalf("second replay: %v", err)
	}
	if r2.Start != r1.Done || r2.Done != r2.Start+3 {
		t.Fatalf("second replay queued wrong: %+v after %+v", r2, r1)
	}
	// Issued after an idle gap: starts at its issue time.
	r3, err := p.Serve(r2.Done+10, device.Request{LBN: 100, Sectors: 16, Write: true})
	if err != nil {
		t.Fatalf("third replay: %v", err)
	}
	if r3.Start != r2.Done+10 || r3.Done-r3.Start != 7 {
		t.Fatalf("idle replay wrong: %+v", r3)
	}
	if p.Misses() != 0 {
		t.Fatalf("misses = %d, want 0", p.Misses())
	}
}

func TestReplayFallbackAndStrict(t *testing.T) {
	p, err := trace.NewPlayer(testTrace())
	if err != nil {
		t.Fatalf("NewPlayer: %v", err)
	}
	// Mean service of the trace is (5+3+7)/3 = 5.
	r, err := p.Serve(0, device.Request{LBN: 500, Sectors: 4})
	if err != nil {
		t.Fatalf("fallback Serve: %v", err)
	}
	if got := r.Done - r.Start; got != 5 {
		t.Fatalf("fallback service %g, want trace mean 5", got)
	}
	if p.Misses() != 1 {
		t.Fatalf("misses = %d, want 1", p.Misses())
	}

	strict, err := trace.NewPlayer(testTrace(), trace.Strict())
	if err != nil {
		t.Fatalf("NewPlayer(strict): %v", err)
	}
	if _, err := strict.Serve(0, device.Request{LBN: 500, Sectors: 4}); err == nil {
		t.Fatal("strict player served an untraced request")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := testTrace()
	tr.RotationPeriod = 6
	tr.Boundaries = []int64{0, 5000, 10000}
	data, err := tr.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	back, err := trace.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if back.Name != tr.Name || back.Capacity != tr.Capacity ||
		back.SectorSize != tr.SectorSize || back.RotationPeriod != tr.RotationPeriod ||
		len(back.Records) != len(tr.Records) || len(back.Boundaries) != 3 {
		t.Fatalf("round trip mangled the trace: %+v", back)
	}
	for i := range tr.Records {
		if back.Records[i] != tr.Records[i] {
			t.Fatalf("record %d: %+v != %+v", i, back.Records[i], tr.Records[i])
		}
	}

	if _, err := trace.Decode([]byte("not json")); err == nil {
		t.Error("garbage decoded")
	}
	if _, err := trace.Decode([]byte(`{"capacity":0,"sector_size":512}`)); err == nil {
		t.Error("headerless trace decoded")
	}
	if !strings.Contains(string(data), "service_ms") {
		t.Error("encoding does not carry service times")
	}
}

// fakeDev is a minimal Device (no optional capabilities) for Recorder
// identity tests.
type fakeDev struct{ now float64 }

func (f *fakeDev) Serve(at float64, req device.Request) (device.Result, error) {
	if err := device.CheckRequest(f, req); err != nil {
		return device.Result{}, err
	}
	start := at
	if f.now > start {
		start = f.now
	}
	done := start + 2.5
	f.now = done
	return device.Result{Req: req, Issue: at, Start: start, MediaEnd: done, Done: done}, nil
}
func (f *fakeDev) Now() float64    { return f.now }
func (f *fakeDev) Capacity() int64 { return 4096 }
func (f *fakeDev) SectorSize() int { return 512 }

// boundedDev is fakeDev plus track boundaries, for the Trace()
// deep-copy regression test.
type boundedDev struct {
	fakeDev
	bounds []int64
}

func (b *boundedDev) TrackBoundaries() []int64 { return b.bounds }

// Regression: Trace() used to copy Records but alias Boundaries, so a
// caller mutating the snapshot (or the device reusing its slice)
// corrupted every later snapshot.
func TestRecorderTraceCopiesBoundaries(t *testing.T) {
	dev := &boundedDev{bounds: []int64{0, 1000, 4096}}
	rec := trace.NewRecorder(dev)
	tr := rec.Trace()
	if len(tr.Boundaries) != 3 {
		t.Fatalf("boundaries not captured: %+v", tr.Boundaries)
	}
	tr.Boundaries[1] = 777
	if got := rec.Trace().Boundaries[1]; got != 1000 {
		t.Fatalf("snapshot mutation reached the recorder: boundary[1] = %d", got)
	}
	// And the recorder's own copy is independent of the device's slice.
	dev.bounds[2] = 1
	if got := rec.Trace().Boundaries[2]; got != 4096 {
		t.Fatalf("device mutation reached the recorder: boundary[2] = %d", got)
	}
}

// Decode validates records at decode time with the record's index, so
// a damaged trace file fails at load, not mid-replay.
func TestDecodeValidatesRecords(t *testing.T) {
	for _, tc := range []struct {
		name, body, want string
	}{
		{"out of bounds", `{"capacity":100,"sector_size":512,"records":[{"lbn":0,"sectors":8,"service_ms":1},{"lbn":99,"sectors":8,"service_ms":1}]}`, "record 1"},
		{"zero sectors", `{"capacity":100,"sector_size":512,"records":[{"lbn":0,"sectors":0,"service_ms":1}]}`, "record 0"},
		{"negative service", `{"capacity":100,"sector_size":512,"records":[{"lbn":0,"sectors":8,"service_ms":-1}]}`, "record 0"},
		{"negative issue", `{"capacity":100,"sector_size":512,"records":[{"lbn":0,"sectors":8,"service_ms":1,"issue_ms":-3}]}`, "record 0"},
	} {
		_, err := trace.Decode([]byte(tc.body))
		if err == nil {
			t.Errorf("%s: decoded", tc.name)
			continue
		}
		if !errors.Is(err, device.ErrInvalidRequest) {
			t.Errorf("%s: untyped error %v", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}
}

// A strict-mode miss is a typed ErrNoRecord carrying the request, and
// the misses counter advances even though no fallback was served.
func TestStrictMissIsTyped(t *testing.T) {
	p, err := trace.NewPlayer(testTrace(), trace.Strict())
	if err != nil {
		t.Fatalf("NewPlayer: %v", err)
	}
	_, err = p.Serve(0, device.Request{LBN: 500, Sectors: 4})
	if !errors.Is(err, trace.ErrNoRecord) {
		t.Fatalf("strict miss error = %v, want ErrNoRecord", err)
	}
	var de *device.Error
	if !errors.As(err, &de) || de.Req.LBN != 500 {
		t.Fatalf("strict miss does not carry the request: %v", err)
	}
	if p.Misses() != 1 {
		t.Fatalf("misses = %d, want 1", p.Misses())
	}
	// A traced request still replays after the miss.
	if _, err := p.Serve(0, device.Request{LBN: 0, Sectors: 8}); err != nil {
		t.Fatalf("hit after miss: %v", err)
	}
}

// modelKey is a player key in full: records match requests on all
// three fields.
type modelKey struct {
	lbn     int64
	sectors int
	write   bool
}

func keyOfRecord(rec trace.Record) modelKey { return modelKey{rec.LBN, rec.Sectors, rec.Write} }

// recordRequests returns one request per record, in trace order.
func recordRequests(tr trace.Trace) []device.Request {
	reqs := make([]device.Request, len(tr.Records))
	for i, rec := range tr.Records {
		reqs[i] = device.Request{LBN: rec.LBN, Sectors: rec.Sectors, Write: rec.Write}
	}
	return reqs
}

// absentRequests returns in-bounds requests whose keys no record of tr
// carries: each differs from some record's key in one field only.
func absentRequests(tr trace.Trace) []device.Request {
	present := map[modelKey]bool{}
	for _, rec := range tr.Records {
		present[keyOfRecord(rec)] = true
	}
	seen := map[modelKey]bool{}
	var reqs []device.Request
	add := func(k modelKey) {
		if present[k] || seen[k] || device.CheckBounds(k.lbn, k.sectors, tr.Capacity) != nil {
			return
		}
		seen[k] = true
		reqs = append(reqs, device.Request{LBN: k.lbn, Sectors: k.sectors, Write: k.write})
	}
	add(modelKey{0, 1, false})
	for _, rec := range tr.Records {
		k := keyOfRecord(rec)
		add(modelKey{k.lbn, k.sectors + 1, k.write})
		add(modelKey{k.lbn, k.sectors, !k.write})
		add(modelKey{k.lbn + 1, k.sectors, k.write})
		if len(reqs) >= 16 {
			break
		}
	}
	return reqs
}

// checkPlayerModel serves reqs through a strict player over tr, twice
// with a Reset between, and checks every result against a per-key
// FIFO model: a request whose key still has unconsumed records gets
// the oldest one's service time; any other fails with ErrNoRecord and
// counts as a miss. Record services must be distinct small integers,
// so the served time names the record exactly.
func checkPlayerModel(t testing.TB, tr trace.Trace, reqs []device.Request) {
	t.Helper()
	p, err := trace.NewPlayer(tr, trace.Strict())
	if err != nil {
		t.Fatal(err)
	}
	misses := 0
	for run := 0; run < 2; run++ {
		fifo := map[modelKey][]float64{}
		for _, rec := range tr.Records {
			k := keyOfRecord(rec)
			fifo[k] = append(fifo[k], rec.Service)
		}
		for j, req := range reqs {
			k := modelKey{req.LBN, req.Sectors, req.Write}
			res, err := p.Serve(p.Now(), req)
			if q := fifo[k]; len(q) > 0 {
				if err != nil {
					t.Fatalf("run %d: request %d %+v: %v", run, j, req, err)
				}
				if got := res.Done - res.Start; got != q[0] {
					t.Fatalf("run %d: request %d %+v served %g, want FIFO head %g", run, j, req, got, q[0])
				}
				fifo[k] = q[1:]
				continue
			}
			if !errors.Is(err, trace.ErrNoRecord) {
				t.Fatalf("run %d: request %d %+v has no record left but got %v, want ErrNoRecord", run, j, req, err)
			}
			misses++
		}
		if p.Misses() != misses {
			t.Fatalf("run %d: player counted %d misses, model %d", run, p.Misses(), misses)
		}
		p.Reset()
	}
}

// Whatever order requests arrive in — trace order, locally shuffled
// as a scheduler would, fully shuffled, or mixed with requests for
// keys the trace lacks — each consumes the oldest unconsumed record
// with its key, as a per-key FIFO model says.
func TestPlayerMatchesKeyFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const big = int64(1) << 31
	// random builds n records over a small key space, so keys repeat.
	random := func(n int, capacity int64) trace.Trace {
		tr := trace.Trace{Capacity: capacity, SectorSize: 512}
		for i := 0; i < n; i++ {
			tr.Records = append(tr.Records, trace.Record{
				LBN: int64(rng.Intn(n/4+1)) * 8, Sectors: 8 << uint(rng.Intn(2)), Write: rng.Intn(3) == 0,
				Service: float64(i + 1),
			})
		}
		return tr
	}
	// keyed builds n records whose keys cycle through keys.
	keyed := func(n int, capacity int64, keys ...modelKey) trace.Trace {
		tr := trace.Trace{Capacity: capacity, SectorSize: 512}
		for i := 0; i < n; i++ {
			k := keys[rng.Intn(len(keys))]
			tr.Records = append(tr.Records, trace.Record{LBN: k.lbn, Sectors: k.sectors, Write: k.write, Service: float64(i + 1)})
		}
		return tr
	}
	mixed := trace.Trace{Name: "fifo", Capacity: 1000, SectorSize: 512}
	for i := 0; i < 400; i++ {
		mixed.Records = append(mixed.Records, trace.Record{
			LBN: int64(rng.Intn(12)) * 8, Sectors: 8, Write: rng.Intn(3) == 0,
			Service: float64(i + 1),
		})
	}
	cases := map[string]trace.Trace{
		"":             mixed,
		"sectors-only": keyed(64, 1000, modelKey{0, 8, false}, modelKey{0, 16, false}, modelKey{0, 24, false}),
		"write-only":   keyed(64, 1000, modelKey{40, 8, false}, modelKey{40, 8, true}),
		"same-key":     keyed(100, 1000, modelKey{16, 8, true}),
	}
	if strconv.IntSize == 64 {
		// A JSON trace on a large device may carry sectors >= 2^31; keys
		// whose lengths differ by exactly 2^31 or 2^32 stay distinct.
		cases["sectors-2^31"] = keyed(64, 8*big, modelKey{8, 8, false}, modelKey{8, int(big + 8), false}, modelKey{8, int(2*big + 8), false})
	}
	for _, n := range []int{0, 1, 2, 15, 16, 17, 4096} {
		cases[fmt.Sprintf("n=%d", n)] = random(n, 1<<20)
	}
	shuffle := func(o []device.Request) { rng.Shuffle(len(o), func(i, j int) { o[i], o[j] = o[j], o[i] }) }
	orders := []struct {
		name    string
		reorder func(tr trace.Trace, o []device.Request) []device.Request
	}{
		{"trace", func(_ trace.Trace, o []device.Request) []device.Request { return o }},
		{"windowed", func(_ trace.Trace, o []device.Request) []device.Request {
			for w := 0; w < len(o); w += 8 {
				shuffle(o[w:min(w+8, len(o))])
			}
			return o
		}},
		{"shuffled", func(_ trace.Trace, o []device.Request) []device.Request { shuffle(o); return o }},
		{"absent", func(tr trace.Trace, o []device.Request) []device.Request {
			o = append(o, absentRequests(tr)...)
			shuffle(o)
			return o
		}},
	}
	for cname, tr := range cases {
		for _, o := range orders {
			name := o.name
			if cname != "" {
				name = cname + "/" + o.name
			}
			t.Run(name, func(t *testing.T) {
				reqs := o.reorder(tr, recordRequests(tr))
				// Once every record is consumed, repeating a request
				// finds its key exhausted (or absent): a miss.
				if len(tr.Records) > 0 {
					reqs = append(reqs, reqs[0])
				}
				checkPlayerModel(t, tr, reqs)
			})
		}
	}
}

// Reset restores consumed records without allocating; misses and the
// clock deliberately survive it.
func TestPlayerReset(t *testing.T) {
	p, err := trace.NewPlayer(testTrace(), trace.Strict())
	if err != nil {
		t.Fatalf("NewPlayer: %v", err)
	}
	run := func() float64 {
		var last float64
		for _, req := range []device.Request{
			{LBN: 0, Sectors: 8}, {LBN: 0, Sectors: 8}, {LBN: 100, Sectors: 16, Write: true},
		} {
			res, err := p.Serve(p.Now(), req)
			if err != nil {
				t.Fatalf("Serve: %v", err)
			}
			last = res.Done
		}
		return last
	}
	end1 := run()
	// Everything is consumed now: a repeat is a strict miss.
	if _, err := p.Serve(p.Now(), device.Request{LBN: 0, Sectors: 8}); !errors.Is(err, trace.ErrNoRecord) {
		t.Fatalf("exhausted player served: %v", err)
	}
	if allocs := testing.AllocsPerRun(10, p.Reset); allocs != 0 {
		t.Fatalf("Reset allocates %.0f times", allocs)
	}
	end2 := run()
	if end2 <= end1 {
		t.Fatalf("second run did not advance the clock: %g then %g", end1, end2)
	}
	if p.Misses() != 1 {
		t.Fatalf("misses reset with the records: %d", p.Misses())
	}
}

// Recorder and Player both forward the traced identity through the
// optional device capabilities.
func TestIdentityForwarding(t *testing.T) {
	dev := &boundedDev{bounds: []int64{0, 4096}}
	rec := trace.NewRecorder(dev)
	if rec.Now() != 0 || rec.RotationPeriod() != 0 || rec.Layout() != nil {
		t.Fatalf("recorder identity: now %g rot %g", rec.Now(), rec.RotationPeriod())
	}
	if got := rec.TrackBoundaries(); len(got) != 2 {
		t.Fatalf("recorder boundaries %v", got)
	}
	if rec.Name() != "recorder" {
		t.Fatalf("recorder name %q", rec.Name())
	}

	tr := testTrace()
	tr.RotationPeriod = 6
	tr.Boundaries = []int64{0, 10000}
	p, err := trace.NewPlayer(tr)
	if err != nil {
		t.Fatal(err)
	}
	if p.SectorSize() != 512 || p.RotationPeriod() != 6 || len(p.TrackBoundaries()) != 2 {
		t.Fatalf("player identity: %d/%g/%v", p.SectorSize(), p.RotationPeriod(), p.TrackBoundaries())
	}
	if p.Name() != "trace:unit" {
		t.Fatalf("player name %q", p.Name())
	}
	anon := testTrace()
	anon.Name = ""
	q, err := trace.NewPlayer(anon)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name() != "trace-replay" {
		t.Fatalf("anonymous player name %q", q.Name())
	}
}

// The issue_ms field round-trips through JSON and is omitted when
// zero, so pre-existing captures still decode byte-for-byte.
func TestIssueFieldRoundTrip(t *testing.T) {
	tr := testTrace()
	tr.Records[1].Issue = 4.25
	data, err := tr.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if strings.Count(string(data), "issue_ms") != 1 {
		t.Fatalf("issue_ms not omitted when zero:\n%s", data)
	}
	back, err := trace.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if back.Records[1].Issue != 4.25 || back.Records[0].Issue != 0 {
		t.Fatalf("issue times mangled: %+v", back.Records)
	}
}

func TestRecorderSnapshotsIdentity(t *testing.T) {
	rec := trace.NewRecorder(&fakeDev{})
	if rec.Capacity() != 4096 || rec.SectorSize() != 512 {
		t.Fatalf("recorder identity %d/%d", rec.Capacity(), rec.SectorSize())
	}
	if _, err := rec.Serve(0, device.Request{LBN: 0, Sectors: 8}); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	// Failed requests are not recorded.
	if _, err := rec.Serve(0, device.Request{LBN: 5000, Sectors: 8}); err == nil {
		t.Fatal("out-of-range request accepted")
	}
	tr := rec.Trace()
	if len(tr.Records) != 1 || tr.Records[0].Service != 2.5 {
		t.Fatalf("trace records: %+v", tr.Records)
	}
	if tr.RotationPeriod != 0 || tr.Boundaries != nil || tr.Name != "" {
		t.Fatalf("capability-free device leaked identity: %+v", tr)
	}
	// The snapshot is a copy: appending to it must not affect the
	// recorder.
	_ = append(tr.Records, trace.Record{})
	if got := len(rec.Trace().Records); got != 1 {
		t.Fatalf("recorder trace grew to %d records", got)
	}
}
