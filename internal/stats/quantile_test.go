package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// rankBand asserts the streaming estimate lies between the exact
// sample quantiles at p-delta and p+delta (with a small absolute
// slack for flat regions) — a rank-based accuracy check that does not
// depend on the distribution's scale.
func rankBand(t *testing.T, name string, xs []float64, p, delta, slack float64, got float64) {
	t.Helper()
	lo := Percentile(xs, math.Max(0, p-delta)*100) - slack
	hi := Percentile(xs, math.Min(1, p+delta)*100) + slack
	if got < lo || got > hi {
		t.Errorf("%s: p=%g estimate %g outside sample band [%g, %g]", name, p, got, lo, hi)
	}
}

// TestQuantileAccuracy runs the P² estimator over seeded draws from
// several shapes and checks each estimate against the sorted-sample
// percentile band.
func TestQuantileAccuracy(t *testing.T) {
	const n = 20000
	dists := []struct {
		name string
		gen  func(r *rand.Rand) float64
	}{
		{"uniform", func(r *rand.Rand) float64 { return r.Float64() * 100 }},
		{"exponential", func(r *rand.Rand) float64 { return r.ExpFloat64() * 8 }},
		{"lognormal", func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64()) }},
		{"bimodal", func(r *rand.Rand) float64 {
			if r.Intn(4) == 0 {
				return 50 + r.Float64()*5 // slow mode (queueing tail)
			}
			return 1 + r.Float64()
		}},
	}
	targets := []struct{ p, delta float64 }{
		{0.50, 0.02},
		{0.90, 0.02},
		{0.99, 0.006},
		{0.9999, 0.0008},
	}
	for di, d := range dists {
		rng := rand.New(rand.NewSource(int64(42 + di)))
		xs := make([]float64, n)
		qs := make([]*Quantile, len(targets))
		for i := range targets {
			qs[i] = NewQuantile(targets[i].p)
		}
		for i := range xs {
			x := d.gen(rng)
			xs[i] = x
			for _, q := range qs {
				q.Add(x)
			}
		}
		for i, tg := range targets {
			if qs[i].Count() != n {
				t.Fatalf("%s: Count = %d, want %d", d.name, qs[i].Count(), n)
			}
			// Slack scales with the distribution's spread so the flat
			// bimodal plateau doesn't demand sub-ulp agreement.
			slack := (Max(xs) - Min(xs)) * 0.01
			rankBand(t, d.name, xs, tg.p, tg.delta, slack, qs[i].Value())
		}
	}
}

// TestQuantileSmall pins the exact small-sample behaviour: fewer than
// five observations fall back to the exact sorted-sample quantile.
func TestQuantileSmall(t *testing.T) {
	q := NewQuantile(0.5)
	if q.Value() != 0 {
		t.Fatalf("empty Value = %g, want 0", q.Value())
	}
	q.Add(7)
	if q.Value() != 7 {
		t.Fatalf("single-sample Value = %g, want 7", q.Value())
	}
	q.Add(3)
	if got := q.Value(); got != 5 {
		t.Fatalf("two-sample median = %g, want 5", got)
	}
	q.Add(5)
	if got := q.Value(); got != 5 {
		t.Fatalf("three-sample median = %g, want 5", got)
	}
	max := NewQuantile(0.9999)
	for _, x := range []float64{1, 9, 4} {
		max.Add(x)
	}
	if got := max.Value(); math.Abs(got-9) > 1e-2 {
		t.Fatalf("small-sample p99.99 = %g, want ~9", got)
	}
}

// TestQuantileMonotoneStream feeds a strictly increasing stream: the
// median estimate must land inside the observed range and track the
// middle, and the extreme markers must pin the true min/max.
func TestQuantileMonotoneStream(t *testing.T) {
	q := NewQuantile(0.5)
	const n = 10001
	for i := 0; i < n; i++ {
		q.Add(float64(i))
	}
	got := q.Value()
	if got < float64(n)*0.45 || got > float64(n)*0.55 {
		t.Fatalf("median of 0..%d = %g, want ~%d", n-1, got, n/2)
	}
	if q.q[0] != 0 || q.q[4] != float64(n-1) {
		t.Fatalf("extreme markers [%g, %g], want [0, %d]", q.q[0], q.q[4], n-1)
	}
}

// TestQuantileDeterministic: the estimate is a pure function of the
// observation sequence.
func TestQuantileDeterministic(t *testing.T) {
	run := func() float64 {
		rng := rand.New(rand.NewSource(99))
		q := NewQuantile(0.99)
		for i := 0; i < 5000; i++ {
			q.Add(rng.ExpFloat64())
		}
		return q.Value()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("estimates differ across identical runs: %g vs %g", a, b)
	}
}

// TestQuantileClamp: out-of-range targets clamp into (0, 1) instead of
// producing NaNs.
func TestQuantileClamp(t *testing.T) {
	for _, p := range []float64{-1, 0, 1, 2} {
		q := NewQuantile(p)
		for i := 0; i < 100; i++ {
			q.Add(float64(i % 13))
		}
		if v := q.Value(); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("NewQuantile(%g).Value() = %g", p, v)
		}
	}
}

// refAdd is the reference P² update: Add as first written, with a
// linear cell scan, a loop over the shifted markers, and every desired
// position advanced. Add must match it bit for bit.
func refAdd(q *Quantile, x float64) {
	if q.n < 5 {
		i := q.n
		for i > 0 && q.q[i-1] > x {
			q.q[i] = q.q[i-1]
			i--
		}
		q.q[i] = x
		q.n++
		if q.n == 5 {
			p := q.p
			q.pos = [5]float64{1, 2, 3, 4, 5}
			q.want = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
		}
		return
	}
	q.n++

	var k int
	switch {
	case x < q.q[0]:
		q.q[0] = x
		k = 0
	case x >= q.q[4]:
		q.q[4] = x
		k = 3
	default:
		k = 0
		for k < 3 && x >= q.q[k+1] {
			k++
		}
	}
	for i := k + 1; i < 5; i++ {
		q.pos[i]++
	}
	for i := range q.want {
		q.want[i] += q.inc[i]
	}

	for i := 1; i <= 3; i++ {
		d := q.want[i] - q.pos[i]
		if !(d >= 1 && q.pos[i+1]-q.pos[i] > 1) && !(d <= -1 && q.pos[i-1]-q.pos[i] < -1) {
			continue
		}
		s := 1.0
		if d < 0 {
			s = -1.0
		}
		np, nm, ni := q.pos[i+1], q.pos[i-1], q.pos[i]
		h := q.q[i] + s/(np-nm)*((ni-nm+s)*(q.q[i+1]-q.q[i])/(np-ni)+(np-ni-s)*(q.q[i]-q.q[i-1])/(ni-nm))
		if h <= q.q[i-1] || h >= q.q[i+1] {
			if s > 0 {
				h = q.q[i] + (q.q[i+1]-q.q[i])/(np-ni)
			} else {
				h = q.q[i] - (q.q[i-1]-q.q[i])/(nm-ni)
			}
		}
		q.q[i] = h
		q.pos[i] += s
	}
}

// sameBits reports whether two marker arrays agree bit for bit (any
// NaN matches any NaN).
func sameBits(a, b [5]float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// checkAgainstRef feeds xs through Add and refAdd for every reported
// target and compares the whole estimator state after each sample.
func checkAgainstRef(t testing.TB, name string, xs []float64) {
	t.Helper()
	for _, p := range []float64{0.5, 0.99, 0.9999, 0.1} {
		got, want := NewQuantile(p), NewQuantile(p)
		for i, x := range xs {
			got.Add(x)
			refAdd(want, x)
			if got.n != want.n || !sameBits(got.q, want.q) || !sameBits(got.pos, want.pos) || !sameBits(got.want, want.want) {
				t.Fatalf("%s p=%g: state diverges at sample %d (x=%g):\ngot  %+v\nwant %+v", name, p, i, x, *got, *want)
			}
		}
	}
}

// TestQuantileAddMatchesReference is the differential test for the
// trimmed Add: estimator state after every sample equals refAdd's on
// heavy-tailed, bimodal, tied, and monotone streams.
func TestQuantileAddMatchesReference(t *testing.T) {
	const n = 50000
	streams := []struct {
		name string
		gen  func(r *rand.Rand, i int) float64
	}{
		{"exponential", func(r *rand.Rand, _ int) float64 { return r.ExpFloat64() * 8 }},
		{"lognormal", func(r *rand.Rand, _ int) float64 { return math.Exp(2 * r.NormFloat64()) }},
		{"bimodal", func(r *rand.Rand, _ int) float64 {
			if r.Intn(50) == 0 {
				return 40 + r.Float64()*10
			}
			return 0.1 + r.Float64()*0.05
		}},
		{"tied", func(r *rand.Rand, _ int) float64 { return float64(r.Intn(4)) * 0.25 }},
		{"increasing", func(_ *rand.Rand, i int) float64 { return float64(i) }},
		{"decreasing", func(_ *rand.Rand, i int) float64 { return float64(n - i) }},
	}
	for si, s := range streams {
		rng := rand.New(rand.NewSource(int64(7 + si)))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = s.gen(rng, i)
		}
		checkAgainstRef(t, s.name, xs)
	}
}

// FuzzQuantile decodes the input as a stream of float64s (NaN, ±Inf
// and subnormals included) and checks Add against refAdd after every
// sample.
func FuzzQuantile(f *testing.F) {
	seed := func(xs ...float64) []byte {
		b := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(seed(1, 2, 3, 4, 5, 6, 7, 8, 9, 10))
	f.Add(seed(5, 5, 5, 5, 5, 5, 1, 9, 5, 5, 5))
	f.Add(seed(3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4))
	f.Add(seed(1, math.Inf(1), 2, math.NaN(), 0, -1, math.Inf(-1), 1e-310, 7, 7, 7))
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]float64, 0, len(data)/8)
		for len(data) >= 8 {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
		checkAgainstRef(t, "fuzz", xs)
	})
}

// BenchmarkQuantileAdd measures one response time folded into the
// p50/p99/p99.99 estimators, the per-completion cost of accounting,
// for Add and for the reference update it replaced.
func BenchmarkQuantileAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1<<16)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 8
	}
	for _, c := range []struct {
		name string
		add  func(*Quantile, float64)
	}{{"add", (*Quantile).Add}, {"ref", refAdd}} {
		b.Run(c.name, func(b *testing.B) {
			q50, q99, q9999 := NewQuantile(0.5), NewQuantile(0.99), NewQuantile(0.9999)
			for i := 0; i < b.N; i++ {
				x := xs[i&(len(xs)-1)]
				c.add(q50, x)
				c.add(q99, x)
				c.add(q9999, x)
			}
		})
	}
}
