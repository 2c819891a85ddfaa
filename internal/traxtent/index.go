package traxtent

import (
	"errors"
	"fmt"
	"math"
)

// Index finds the unit holding an LBN in O(1) over an ascending
// boundary list, where unit i is [bounds[i], bounds[i+1]). It is what
// the request paths (host cache lines, stripe units) use in place of a
// binary search over the whole table.
//
// The covered range is cut into power-of-two buckets, and bucket k
// records the unit holding its first LBN, bounds[0] + k<<shift. A
// lookup reads its bucket and the next one, which bracket the answer,
// and searches only the units between them. The bucket width is the
// smallest power of two that keeps the table at no more entries than
// boundaries (4 bytes each), so it is at least the mean unit length:
// on near-uniform tables — tracks, stripe units — a bucket brackets at
// most a few units. A table mixing tiny and huge units can put many
// units in one bucket; those lookups cost a binary search over the
// bucket's units only.
type Index struct {
	bounds []int64 // the caller's table, not copied
	base   int64   // bounds[0]
	shift  uint
	first  []int32 // bucket k -> unit holding base + k<<shift; one extra entry: the last unit
}

// NewIndex builds the index over bounds: at least two entries, strictly
// increasing, and fewer than 2^31 units. The index refers to the
// caller's slice, which must not change afterwards. It is returned by
// value so that a request path can hold it without a pointer hop.
func NewIndex(bounds []int64) (Index, error) {
	if len(bounds) < 2 {
		return Index{}, errors.New("traxtent: index needs at least two boundaries")
	}
	units := len(bounds) - 1
	if units > math.MaxInt32 {
		return Index{}, fmt.Errorf("traxtent: %d units overflow the index", units)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return Index{}, fmt.Errorf("traxtent: boundaries not strictly increasing at %d (%d <= %d)",
				i, bounds[i], bounds[i-1])
		}
	}
	base := bounds[0]
	last := uint64(bounds[units]-base) - 1 // offset of the last covered LBN
	shift := uint(0)
	for last>>shift >= uint64(units) { // buckets = last>>shift + 1 must not exceed units
		shift++
	}
	nb := int(last>>shift) + 1
	first := make([]int32, nb+1)
	j := 0
	for k := 0; k < nb; k++ {
		lbn := base + int64(k)<<shift
		for bounds[j+1] <= lbn {
			j++
		}
		first[k] = int32(j)
	}
	first[nb] = int32(units - 1)
	return Index{bounds: bounds, base: base, shift: shift, first: first}, nil
}

// Find returns the unit holding lbn. The LBN must lie in the covered
// range [bounds[0], bounds[len-1]); one outside it panics or returns
// a wrong unit.
func (x *Index) Find(lbn int64) int {
	k := uint64(lbn-x.base) >> x.shift
	// Units lo..hi hold the bucket's LBNs: bounds[lo] <= lbn <
	// bounds[hi+1]. Narrow to the one holding lbn.
	lo, hi := int(x.first[k]), int(x.first[k+1])
	for lo < hi {
		m := int(uint(lo+hi+1) >> 1)
		if x.bounds[m] <= lbn {
			lo = m
		} else {
			hi = m - 1
		}
	}
	return lo
}
