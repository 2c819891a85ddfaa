package stats

// Quantile is an online estimator of a single quantile using the P²
// (piecewise-parabolic) algorithm of Jain and Chlamtac (1985): five
// markers track the minimum, the target quantile, the maximum, and the
// two midpoints, adjusting their heights with parabolic interpolation
// as observations stream in. Memory is O(1) and Add never allocates,
// so p99/p99.99 response accounting needs no stored samples. The
// volume manager and the bulk replay driver apply their estimators in
// batches through a Feed, off the request path.
//
// The zero value is not usable; construct with NewQuantile (or
// NewTails for a p50/p99/p99.99 set). Results are
// deterministic: the estimate is a pure function of the observation
// sequence.
type Quantile struct {
	p    float64
	n    int        // observations seen
	q    [5]float64 // marker heights
	pos  [5]float64 // marker positions (1-based)
	want [5]float64 // desired marker positions
	inc  [5]float64 // desired-position increments per observation
}

// NewQuantile creates an estimator for the p-th quantile, 0 < p < 1
// (e.g. 0.99, 0.9999). Out-of-range targets are clamped into (0, 1).
func NewQuantile(p float64) *Quantile {
	if p <= 0 {
		p = 1e-9
	}
	if p >= 1 {
		p = 1 - 1e-9
	}
	q := makeQuantile(p)
	return &q
}

// makeQuantile builds an estimator by value, for owners that embed
// their estimators (Tails); p is already in range.
func makeQuantile(p float64) Quantile {
	return Quantile{p: p, inc: [5]float64{0, p / 2, p, (1 + p) / 2, 1}}
}

// P returns the target quantile.
func (q *Quantile) P() float64 { return q.p }

// Reset discards every observation, returning the estimator to its
// just-constructed state (the target quantile is kept). It never
// allocates, so steady-state replay loops reset their quantiles
// between runs without touching the heap.
func (q *Quantile) Reset() {
	q.n = 0
	q.q = [5]float64{}
	q.pos = [5]float64{}
	q.want = [5]float64{}
}

// Count returns the number of observations.
func (q *Quantile) Count() int { return q.n }

// Add records one observation.
func (q *Quantile) Add(x float64) {
	if q.n < 5 {
		// Insertion-sort the first five observations into the marker
		// heights; they seed the estimator exactly.
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

	// Find the cell k with q[k] <= x < q[k+1], extending the extremes,
	// and shift every marker above it one position up. The interior
	// cell is found by nested comparisons in marker order — the first
	// marker x falls below ends the search — so a marker left one ulp
	// out of order by the parabola yields the same k as a linear scan,
	// and NaN lands in cell 0 as it always has.
	switch {
	case x < q.q[0]:
		q.q[0] = x
		q.pos[1]++
		q.pos[2]++
		q.pos[3]++
	case x >= q.q[4]:
		q.q[4] = x
	case !(x >= q.q[1]):
		q.pos[1]++
		q.pos[2]++
		q.pos[3]++
	case !(x >= q.q[2]):
		q.pos[2]++
		q.pos[3]++
	case !(x >= q.q[3]):
		q.pos[3]++
	}
	// The maximum marker always moves up; the minimum never moves, and
	// its desired position stays 1 (inc[0] is 0).
	q.pos[4]++
	q.want[1] += q.inc[1]
	q.want[2] += q.inc[2]
	q.want[3] += q.inc[3]
	q.want[4] += q.inc[4]

	// Nudge the interior markers toward their desired positions. nm is
	// the position of the marker below, already nudged.
	nm := 1.0
	for i := 1; i <= 3; i++ {
		ni, np := q.pos[i], q.pos[i+1]
		d := q.want[i] - ni
		if !(d >= 1 && np-ni > 1) && !(d <= -1 && nm-ni < -1) {
			nm = ni
			continue
		}
		s := 1.0
		if d < 0 {
			s = -1.0
		}
		// Parabolic adjustment; fall back to linear when it would push
		// the marker height out of order.
		h := q.q[i] + s/(np-nm)*((ni-nm+s)*(q.q[i+1]-q.q[i])/(np-ni)+(np-ni-s)*(q.q[i]-q.q[i-1])/(ni-nm))
		if h <= q.q[i-1] || h >= q.q[i+1] {
			if s > 0 {
				h = q.q[i] + (q.q[i+1]-q.q[i])/(np-ni)
			} else {
				h = q.q[i] - (q.q[i-1]-q.q[i])/(nm-ni)
			}
		}
		q.q[i] = h
		q.pos[i] = ni + s
		nm = q.pos[i]
	}
}

// Value returns the current quantile estimate: the height of the
// middle marker, or the exact sample quantile while fewer than five
// observations have been seen (0 with none).
func (q *Quantile) Value() float64 {
	if q.n == 0 {
		return 0
	}
	if q.n < 5 {
		// The prefix q[:n] is kept sorted; interpolate exactly.
		rank := q.p * float64(q.n-1)
		lo := int(rank)
		if lo >= q.n-1 {
			return q.q[q.n-1]
		}
		frac := rank - float64(lo)
		return q.q[lo]*(1-frac) + q.q[lo+1]*frac
	}
	return q.q[2]
}
