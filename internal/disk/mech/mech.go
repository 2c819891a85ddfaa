package mech

import (
	"fmt"
	"math"

	"traxtents/internal/disk/geom"
)

// Spec holds the published mechanical parameters of a drive, the ones a
// spec sheet (or the paper's Table 1) provides.
type Spec struct {
	RPM         float64 // spindle speed
	HeadSwitch  float64 // ms, head-switch (track-crossing) time
	WriteSettle float64 // ms, extra settle before the head may write
	SeekSingle  float64 // ms, single-cylinder seek
	SeekAvg     float64 // ms, average seek over random pairs
	SeekFull    float64 // ms, full-strobe seek
	ZeroLatency bool    // firmware supports access-on-arrival
}

// Mech is a calibrated mechanical model bound to a cylinder count.
type Mech struct {
	Spec
	curve  seekCurve
	period float64 // ms per revolution
}

// New calibrates a Mech for a disk with the given cylinder count.
func New(spec Spec, cyls int) (*Mech, error) {
	if spec.RPM <= 0 {
		return nil, fmt.Errorf("mech: RPM must be positive, got %g", spec.RPM)
	}
	if spec.HeadSwitch < 0 || spec.WriteSettle < 0 {
		return nil, fmt.Errorf("mech: switch/settle times must be non-negative")
	}
	curve, err := calibrateSeek(spec.SeekSingle, spec.SeekAvg, spec.SeekFull, cyls)
	if err != nil {
		return nil, err
	}
	return &Mech{Spec: spec, curve: curve, period: 60000 / spec.RPM}, nil
}

// Period returns the rotation time in ms.
func (m *Mech) Period() float64 { return m.period }

// SlotTime returns the time one sector spends under the head in a zone
// with spt sectors per track.
func (m *Mech) SlotTime(spt int) float64 { return m.period / float64(spt) }

// Seek returns the seek time for a cylinder distance.
func (m *Mech) Seek(delta int) float64 {
	if delta < 0 {
		delta = -delta
	}
	return m.curve.time(delta)
}

// MeanSeek returns the model's average seek over uniform random cylinder
// pairs drawn from [lo, hi] (inclusive); with lo=0, hi=cyls-1 this is the
// spec's average seek. The paper's experiments use random requests within
// the first zone, whose (much shorter) average seek this computes.
func (m *Mech) MeanSeek(lo, hi int) float64 {
	n := hi - lo + 1
	if n <= 1 {
		return 0
	}
	C := float64(n)
	var sum float64
	for d := 1; d < n; d++ {
		p := 2 * (C - float64(d)) / (C * C)
		sum += p * m.curve.time(d)
	}
	return sum
}

// Pos is a head position.
type Pos struct {
	Cyl, Head int
}

// AvailChunk describes when read data becomes available for in-LBN-order
// bus delivery: sector j of the chunk (0-based) is fully in the disk's
// buffer at time At + j*Per. Chunks are listed in ascending LBN order and
// their At values are non-decreasing, so a bus draining them in order
// never needs to look ahead.
type AvailChunk struct {
	Sectors int
	At      float64 // absolute ms when the chunk's first sector is buffered
	Per     float64 // ms per subsequent sector (0 = all at once)
}

// Breakdown splits the time the mechanism spends on one request into
// its phases. It is the part of a Timing that outlives the request:
// device results carry it, while the rest of Timing is the simulator's
// own bookkeeping.
type Breakdown struct {
	Seek      float64 // initial arm movement
	Settle    float64 // write settles (initial + per switch)
	Latency   float64 // rotational waiting (including in-track gaps)
	Transfer  float64 // sectors * slot time, the useful media transfer
	Switch    float64 // head/track switch time between spanned tracks
	Excursion float64 // side trips to remapped (grown-defect) sectors
}

// HeadTime is the total time the mechanism is dedicated to the request.
func (b *Breakdown) HeadTime() float64 {
	return b.Seek + b.Settle + b.Latency + b.Transfer + b.Switch + b.Excursion
}

// Timing is the media phase of one request: its phase breakdown plus
// what the simulator needs to finish the request — when read data
// becomes available to the bus, and where and when the head ends up.
type Timing struct {
	Breakdown

	Chunks  []AvailChunk // read-data availability (nil for writes)
	EndPos  Pos          // head position after the media phase
	EndTime float64      // absolute ms when the media phase completes
}

// angleSlots returns the rotational position at absolute time t expressed
// in slot units of a track with spt sectors.
//
// Floor-division instead of math.Mod: the quotient form needs one
// hardware rounding instruction where Mod takes a softfloat path, and
// this runs once per sweep. Unlike exact Mod, the division rounds, so
// positions shift by ~q*eps slots — below 1e-6 slots (sub-nanosecond
// rotational time) over any experiment's horizon; the differential
// test TestAngleSlotsFloorVsMod bounds it.
func (m *Mech) angleSlots(t float64, spt int) float64 {
	q := t / m.period
	frac := q - math.Floor(q)
	return frac * float64(spt)
}

// sweep computes the in-track service of logical sectors [idx, idx+n) on
// track ti with the head settled at absolute time 'at'. It returns the
// rotational wait (latency) and the availability chunks (absolute
// times) by value — a sweep yields at most two chunks, so returning
// them in a fixed-size pair keeps the whole media path allocation-free.
// The media transfer itself is n*slotTime.
func (m *Mech) sweep(l *geom.Layout, ti int, idx, n int, at float64, zeroLat bool) (latency float64, c0, c1 AvailChunk, nc int) {
	cyl, _ := l.TrackCylHead(ti)
	spt := l.G.SPTOf(cyl)
	st := m.SlotTime(spt)
	tr := &l.Tracks[ti]

	// Head position in slot-space of this track: subtract the skew offset
	// so that slot s is under the head during [s, s+1).
	pos := m.angleSlots(at, spt) - float64(tr.SkewOff)
	pos = math.Mod(pos, float64(spt))
	if pos < 0 {
		pos += float64(spt)
	}
	// First slot boundary the head can catch; the residue to reach it is
	// converted from slot units to ms here.
	c := int(math.Ceil(pos))
	toBoundary := (float64(c) - pos) * st
	c = c % spt

	// On a skip-free track (the overwhelmingly common case) logical
	// index j sits at physical slot j, so the translations collapse to
	// identities and the wrap search below becomes arithmetic.
	noSkips := len(tr.Skips) == 0
	firstSlot, lastSlot := idx, idx+n-1
	if !noSkips {
		firstSlot = l.SlotOf(ti, idx)
		lastSlot = l.SlotOf(ti, idx+n-1)
	}
	ring := func(s int) int { return ((s-c)%spt + spt) % spt }

	if !zeroLat {
		// Ordinary: wait for the first wanted slot, then pass over the
		// arc (including any skipped holes inside it).
		wait := toBoundary + float64(ring(firstSlot))*st
		arc := lastSlot - firstSlot + 1 // monotone within a track
		elapsed := wait + float64(arc)*st
		latency = elapsed - float64(n)*st
		return latency, AvailChunk{Sectors: n, At: at + wait + st, Per: st}, AvailChunk{}, 1
	}

	// Zero-latency: read wanted slots access-on-arrival. Completion is
	// governed by the wanted slot farthest along the sweep from c.
	maxRing := ring(firstSlot)
	if r := ring(lastSlot); r > maxRing {
		maxRing = r
	}
	// If the head lands inside the wanted arc, it reads the tail of the
	// arc first and the beginning after the wrap; the last-completed slot
	// is the wanted slot just before the landing point. On a skip-free
	// track the wrap index is direct arithmetic; otherwise binary-search
	// it using the monotone slot order.
	if firstSlot < c && c <= lastSlot {
		var w int // first logical index read before the wrap
		if noSkips {
			w = idx + (c - firstSlot)
		} else {
			lo, hi := idx, idx+n-1
			for lo < hi {
				mid := (lo + hi) / 2
				if l.SlotOf(ti, mid) >= c {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			w = lo
		}
		// Sectors [w, idx+n) are read first; [idx, w) after the wrap.
		// The overall completion is when slot of (w-1) is passed.
		maxRing = ring(l.SlotOf(ti, w-1))
		nEarly := idx + n - w
		nLate := w - idx
		lateStart := at + toBoundary + float64(ring(firstSlot))*st + st
		done := at + toBoundary + float64(maxRing+1)*st
		elapsed := toBoundary + float64(maxRing+1)*st
		latency = elapsed - float64(n)*st
		return latency,
			AvailChunk{Sectors: nLate, At: lateStart, Per: st},
			AvailChunk{Sectors: nEarly, At: done, Per: 0}, 2
	}

	// Head lands outside the wanted arc: reading is in LBN order anyway.
	wait := toBoundary + float64(ring(firstSlot))*st
	elapsed := toBoundary + float64(maxRing+1)*st
	latency = elapsed - float64(n)*st
	return latency, AvailChunk{Sectors: n, At: at + wait + st, Per: st}, AvailChunk{}, 1
}

// Access computes the full media phase of a request for n sectors
// starting at lbn, beginning the arm movement at absolute time 'at' from
// position 'from'. Writes assume the data is already buffered on the
// drive (the caller models the host transfer); zero-latency applies to
// writes as well, per the paper.
//
// Access allocates a fresh Timing per call; the simulator's hot path
// uses AccessInto with a pooled Timing instead.
func (m *Mech) Access(l *geom.Layout, at float64, from Pos, lbn int64, n int, write bool) (Timing, error) {
	var tm Timing
	if err := m.AccessInto(&tm, l, at, from, lbn, n, write); err != nil {
		return Timing{}, err
	}
	return tm, nil
}

// AccessInto is Access writing its result into a caller-provided Timing.
// *tm is reset, but the capacity of its Chunks slice is reused, so a
// caller re-using one Timing across requests performs no allocation in
// steady state. The computation is identical to Access.
func (m *Mech) AccessInto(tm *Timing, l *geom.Layout, at float64, from Pos, lbn int64, n int, write bool) error {
	chunks := tm.Chunks[:0]
	*tm = Timing{}
	if n <= 0 {
		return fmt.Errorf("mech: request for %d sectors", n)
	}
	if lbn < 0 || lbn+int64(n) > l.NumLBNs() {
		return fmt.Errorf("mech: request [%d,%d) outside [0,%d)", lbn, lbn+int64(n), l.NumLBNs())
	}
	ti, idx, err := l.LBNHome(lbn)
	if err != nil {
		return err
	}
	cyl, head := l.TrackCylHead(ti)

	// Initial positioning: seek concurrent with any head switch.
	delta := cyl - from.Cyl
	if delta < 0 {
		delta = -delta
	}
	pos := m.Seek(delta)
	if delta == 0 && head != from.Head {
		pos = m.HeadSwitch
	} else if delta > 0 && pos < m.HeadSwitch {
		pos = m.HeadSwitch
	}
	tm.Seek = pos
	if write {
		tm.Settle += m.WriteSettle
	}

	t := at + tm.Seek + tm.Settle
	remaining := n
	remapPenalty := 0.0
	zl := m.ZeroLatency

	for remaining > 0 {
		_, count := l.TrackRange(ti)
		if count == 0 || idx >= count {
			// Skip empty tracks (spare tracks / fully defective).
			nti, sw, err := m.advanceTrack(l, ti)
			if err != nil {
				return err
			}
			tm.Switch += sw
			if write {
				tm.Settle += m.WriteSettle
			}
			t += sw
			if write {
				t += m.WriteSettle
			}
			ti, idx = nti, 0
			continue
		}
		seg := count - idx
		if seg > remaining {
			seg = remaining
		}
		lat, c0, c1, nc := m.sweep(l, ti, idx, seg, t, zl)
		cy, _ := l.TrackCylHead(ti)
		st := m.SlotTime(l.G.SPTOf(cy))
		tm.Latency += lat
		tm.Transfer += float64(seg) * st
		if !write {
			chunks = append(chunks, c0)
			if nc == 2 {
				chunks = append(chunks, c1)
			}
		}
		t += lat + float64(seg)*st

		// Count excursions for remapped sectors in this segment.
		if len(l.Tracks[ti].Remaps) > 0 {
			first, _ := l.TrackRange(ti)
			for i := 0; i < seg; i++ {
				if tgt, ok := l.IsRemapped(first + int64(idx+i)); ok {
					d := int(tgt.Cyl) - cy
					if d < 0 {
						d = -d
					}
					// Round trip to the spare plus an average half-rotation
					// positioning and the sector itself.
					remapPenalty += 2*m.Seek(d) + m.period/2 + st
					if d == 0 {
						remapPenalty += 2 * m.HeadSwitch
					}
				}
			}
		}

		remaining -= seg
		idx += seg
		if remaining > 0 {
			nti, sw, err := m.advanceTrack(l, ti)
			if err != nil {
				return err
			}
			tm.Switch += sw
			t += sw
			if write {
				tm.Settle += m.WriteSettle
				t += m.WriteSettle
			}
			ti, idx = nti, 0
		}
	}
	tm.Excursion = remapPenalty
	t += remapPenalty

	// Writes appended nothing; handing the (empty) buffer back anyway
	// preserves its capacity for the caller's next read.
	tm.Chunks = chunks
	ecyl, ehead := l.TrackCylHead(ti)
	tm.EndPos = Pos{Cyl: ecyl, Head: ehead}
	tm.EndTime = t
	return nil
}

// advanceTrack returns the next track index and the switch cost to reach
// it: a head switch within a cylinder, or a (short) seek when crossing
// cylinders.
func (m *Mech) advanceTrack(l *geom.Layout, ti int) (int, float64, error) {
	if ti+1 >= len(l.Tracks) {
		return 0, 0, fmt.Errorf("mech: request runs off the end of the disk")
	}
	c0, _ := l.TrackCylHead(ti)
	c1, _ := l.TrackCylHead(ti + 1)
	if c0 == c1 {
		return ti + 1, m.HeadSwitch, nil
	}
	sw := m.Seek(c1 - c0)
	if sw < m.HeadSwitch {
		sw = m.HeadSwitch
	}
	return ti + 1, sw, nil
}

// StreamTime returns the time to read n sectors starting at lbn assuming
// perfect streaming (head already positioned, reading begins instantly):
// the media transfer plus the unavoidable skew/switch gaps. This is the
// denominator of the paper's "maximum streaming efficiency" (Figure 1).
func (m *Mech) StreamTime(l *geom.Layout, lbn int64, n int) (float64, error) {
	ti, idx, err := l.LBNHome(lbn)
	if err != nil {
		return 0, err
	}
	var t float64
	remaining := n
	for remaining > 0 {
		_, count := l.TrackRange(ti)
		if count == 0 || idx >= count {
			nti, sw, err := m.advanceTrack(l, ti)
			if err != nil {
				return 0, err
			}
			t += sw
			ti, idx = nti, 0
			continue
		}
		seg := count - idx
		if seg > remaining {
			seg = remaining
		}
		cyl, _ := l.TrackCylHead(ti)
		t += float64(seg) * m.SlotTime(l.G.SPTOf(cyl))
		remaining -= seg
		idx += seg
		if remaining > 0 {
			nti, sw, err := m.advanceTrack(l, ti)
			if err != nil {
				return 0, err
			}
			// With proper skew the switch happens during the skew gap, so
			// the gap cost is the skew, not the raw switch time, when the
			// skew is larger.
			cyl2, _ := l.TrackCylHead(nti)
			z := l.G.ZoneOf(cyl2)
			skew := float64(z.TrackSkew) * m.SlotTime(z.SPT)
			if c0, _ := l.TrackCylHead(ti); c0 != cyl2 {
				skew = float64(z.CylSkew) * m.SlotTime(z.SPT)
			}
			if skew < sw {
				skew = sw
			}
			t += skew
			ti, idx = nti, 0
		}
	}
	return t, nil
}

// ExpectedRotLatency returns the analytic expected rotational latency for
// a track-aligned request covering fraction f of a track (Figure 3): an
// ordinary disk waits (SPT-1)/(2*SPT) of a revolution regardless of f; a
// zero-latency disk waits P*(1-f^2)/2 (derivation in DESIGN.md).
func (m *Mech) ExpectedRotLatency(f float64, spt int) float64 {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	if m.ZeroLatency {
		return m.period * (1 - f*f) / 2
	}
	return m.period * float64(spt-1) / (2 * float64(spt))
}
