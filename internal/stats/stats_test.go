package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanStdDev(t *testing.T) {
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Fatal("empty inputs should yield 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %g, want 5", got)
	}
	if got := StdDev(xs); math.Abs(got-2) > 1e-12 {
		t.Fatalf("StdDev = %g, want 2", got)
	}
	if Min(xs) != 2 || Max(xs) != 9 {
		t.Fatalf("Min/Max = %g/%g", Min(xs), Max(xs))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {-5, 1}, {150, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	if Percentile([]float64{7}, 99) != 7 {
		t.Fatal("single-sample percentile")
	}
}

func TestSummary(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := Summarize(xs)
	if s.N != 1000 || s.Min != 0 || s.Max != 999 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.P50-499.5) > 1 || s.P99 < 985 || s.P9999 < s.P99 {
		t.Fatalf("percentiles %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatal("empty summary")
	}
}

// TestQuickPercentileMonotone: percentiles are monotone in p and bounded
// by min/max for arbitrary samples.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+rng.Intn(200))
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < prev-1e-9 || v < Min(xs)-1e-9 || v > Max(xs)+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
