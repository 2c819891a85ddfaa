package traxtent

import (
	"math/rand"
	"sort"
	"testing"
)

// findModel is the reference lookup the index replaces: the last
// boundary at or below lbn, by binary search over the whole table.
func findModel(bounds []int64, lbn int64) int {
	return sort.Search(len(bounds), func(i int) bool { return bounds[i] > lbn }) - 1
}

// boundsOf turns a start LBN and unit lengths into a boundary table.
func boundsOf(start int64, lens ...int64) []int64 {
	b := []int64{start}
	for _, n := range lens {
		b = append(b, b[len(b)-1]+n)
	}
	return b
}

// repeat returns n copies of length.
func repeat(n int, length int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = length
	}
	return out
}

// checkIndex builds the index over bounds and compares Find with the
// model at every boundary b (b-1, b, b+1 where covered) and at
// random LBNs; it also holds the table to 4 bytes per boundary.
func checkIndex(t *testing.T, bounds []int64, rng *rand.Rand, random int) {
	t.Helper()
	x, err := NewIndex(bounds)
	if err != nil {
		t.Fatalf("NewIndex: %v", err)
	}
	if len(x.first) > len(bounds) {
		t.Fatalf("%d bucket entries for %d boundaries: over 4 B per boundary", len(x.first), len(bounds))
	}
	lo, end := bounds[0], bounds[len(bounds)-1]
	probe := func(lbn int64) {
		if lbn < lo || lbn >= end {
			return
		}
		if got, want := x.Find(lbn), findModel(bounds, lbn); got != want {
			t.Fatalf("Find(%d) = %d, want %d (bounds[%d..]: %v)", lbn, got, want, want, bounds[want:min(want+3, len(bounds))])
		}
	}
	for _, b := range bounds {
		probe(b - 1)
		probe(b)
		probe(b + 1)
	}
	for i := 0; i < random; i++ {
		probe(lo + rng.Int63n(end-lo))
	}
}

// TestIndexMatchesModel checks Find against the binary-search model
// on tables that stress the bucket layout: one extent, 1-sector
// extents, equal and zoned track lengths, ends at and off a power of
// two, a table mixing tiny and huge units, and LBNs near 2^40.
func TestIndexMatchesModel(t *testing.T) {
	zoned := []int64{}
	for z, spt := range []int64{792, 744, 696, 640, 584, 528} {
		zoned = append(zoned, repeat(150+40*z, spt)...)
	}
	slipped := []int64{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		slipped = append(slipped, 400+rng.Int63n(50)) // defect-slipped tracks
	}
	tables := []struct {
		name   string
		bounds []int64
	}{
		{"single", boundsOf(0, 1)},
		{"single-long", boundsOf(0, 1<<20)},
		{"single-offset", boundsOf(12345, 777)},
		{"one-sector", boundsOf(0, repeat(1000, 1)...)},
		{"one-sector-offset", boundsOf(3, repeat(513, 1)...)},
		{"equal", boundsOf(0, repeat(512, 300)...)},
		{"equal-pow2-end", boundsOf(0, repeat(1<<12, 256)...)},
		{"pow2-end-minus-one", boundsOf(0, append(repeat(1<<12-1, 256), 256)...)},
		{"pow2-end-plus-one", boundsOf(0, append(repeat(256, 4096), 1)...)},
		{"zoned", boundsOf(0, zoned...)},
		{"slipped", boundsOf(0, slipped...)},
		{"tiny-then-huge", boundsOf(0, append(repeat(500, 1), 1<<30)...)},
		{"huge-then-tiny", boundsOf(0, append([]int64{1 << 30}, repeat(500, 1)...)...)},
		{"near-2^40", boundsOf(1<<40-3000*500, repeat(6000, 500)...)},
		{"across-2^40", boundsOf(1<<40-7, append([]int64{7, 1}, zoned...)...)},
	}
	for _, tc := range tables {
		t.Run(tc.name, func(t *testing.T) {
			checkIndex(t, tc.bounds, rand.New(rand.NewSource(int64(len(tc.bounds)))), 20000)
		})
	}
}

// TestNewIndexValidates: too short and non-increasing tables are
// rejected.
func TestNewIndexValidates(t *testing.T) {
	for _, b := range [][]int64{nil, {0}, {0, 0}, {0, 10, 10}, {0, 10, 5}} {
		if _, err := NewIndex(b); err == nil {
			t.Errorf("NewIndex(%v) accepted", b)
		}
	}
}

// FuzzIndex checks Find against the model on fuzzer-made tables. Each
// byte of lens is one unit: its low five bits give a mantissa of 1..32
// and its high three bits a power of eight, so units run from 1 to
// 2^26 sectors and tables mix both; base places the table anywhere
// below 2^50.
func FuzzIndex(f *testing.F) {
	f.Add([]byte{0}, int64(0), int64(1))
	f.Add([]byte{0, 0, 0, 0xff, 0x1f, 0x40}, int64(1)<<40, int64(2))
	f.Add([]byte{0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f}, int64(1)<<40-1, int64(3))
	f.Fuzz(func(t *testing.T, lens []byte, base, seed int64) {
		if len(lens) == 0 || len(lens) > 4096 {
			return
		}
		base &= 1<<50 - 1
		units := make([]int64, len(lens))
		for i, c := range lens {
			units[i] = int64(c&0x1f+1) << (3 * (c >> 5))
		}
		checkIndex(t, boundsOf(base, units...), rand.New(rand.NewSource(seed)), 256)
	})
}
