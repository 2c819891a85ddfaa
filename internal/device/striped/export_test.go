package striped

import (
	"fmt"

	"traxtents/internal/device"
)

// RAID0CloneForTest builds a plain (non-parity) array over the given
// children with this array's exact data layout — the same bounds,
// childOf, and childLBN tables — so fault-free parity reads can be
// differentially pinned bit-identical to RAID-0 on the same geometry.
func (a *Array) RAID0CloneForTest(children []device.Device) (*Array, error) {
	if len(children) != len(a.children) {
		return nil, fmt.Errorf("striped: clone over %d children, want %d", len(children), len(a.children))
	}
	for i, c := range children {
		if c.SectorSize() != a.sectorSize {
			return nil, fmt.Errorf("striped: clone child %d sector size %d != %d", i, c.SectorSize(), a.sectorSize)
		}
	}
	return &Array{
		children:   children,
		bounds:     a.bounds,
		index:      a.index,
		childLBN:   a.childLBN,
		childOf:    a.childOf,
		uniform:    a.uniform,
		sectorSize: a.sectorSize,
		period:     a.period,
		lost:       -1,
		spanBuf:    make([]span, 0, len(children)),
		spanOf:     make([]int, len(children)),
		routes:     make([]device.Routes[int], len(children)),
	}, nil
}

// ParityChildForTest exposes the stripe -> parity-child rotation.
func (a *Array) ParityChildForTest(s int) int { return a.parityChild[s] }

// ChildStartForTest exposes where stripe s's unit starts on child c.
func (a *Array) ChildStartForTest(c, s int) int64 { return a.childStarts[c][s] }

// SpanForTest mirrors the unexported span for the external test package.
type SpanForTest struct {
	Child   int
	LBN     int64
	Sectors int
}

// SplitForTest exposes the request-splitting logic to the tests.
func (a *Array) SplitForTest(req device.Request) []SpanForTest {
	out := make([]SpanForTest, 0, len(a.children))
	for _, s := range a.split(req) {
		out = append(out, SpanForTest{Child: s.child, LBN: s.lbn, Sectors: s.sectors})
	}
	return out
}

// SplitReferenceForTest is the original per-call-allocating split (by-
// child grouping, binary-search unitOf), retained verbatim as the
// differential reference for the scratch-buffer fast path.
func (a *Array) SplitReferenceForTest(req device.Request) []SpanForTest {
	unitOf := func(lbn int64) int {
		lo, hi := 0, len(a.bounds)
		for lo < hi {
			mid := (lo + hi) / 2
			if a.bounds[mid] > lbn {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo - 1
	}
	byChild := make([][]SpanForTest, len(a.children))
	lbn := req.LBN
	left := int64(req.Sectors)
	j := unitOf(lbn)
	for left > 0 {
		n := a.bounds[j+1] - lbn
		if n > left {
			n = left
		}
		c := j % len(a.children)
		cl := a.childLBN[j] + (lbn - a.bounds[j])
		if ps := byChild[c]; len(ps) > 0 && ps[len(ps)-1].LBN+int64(ps[len(ps)-1].Sectors) == cl {
			ps[len(ps)-1].Sectors += int(n)
		} else {
			byChild[c] = append(ps, SpanForTest{Child: c, LBN: cl, Sectors: int(n)})
		}
		lbn += n
		left -= n
		j++
	}
	var out []SpanForTest
	for _, ps := range byChild {
		out = append(out, ps...)
	}
	return out
}
