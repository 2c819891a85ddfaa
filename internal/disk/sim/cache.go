package sim

import "traxtents/internal/disk/mech"

// readCache is a simple model of a segmented firmware read cache: a
// handful of segments, each remembering one contiguous LBN range, with
// LRU replacement. Only full hits are served from cache (partial hits
// are treated as misses), matching the conservative simplification noted
// in DESIGN.md.
type readCache struct {
	segs []cacheSeg
}

type cacheSeg struct {
	start, end int64 // [start, end) LBNs; start==end means empty
	lastUse    float64
}

func newReadCache(segments int) *readCache {
	return &readCache{segs: make([]cacheSeg, segments)}
}

// contains reports whether [lbn, lbn+n) lies entirely inside one cached
// segment, updating that segment's recency on a hit.
func (c *readCache) contains(lbn int64, n int, now float64) bool {
	end := lbn + int64(n)
	for i := range c.segs {
		s := &c.segs[i]
		if s.start < s.end && lbn >= s.start && end <= s.end {
			s.lastUse = now
			return true
		}
	}
	return false
}

// insert records a read of [lbn, lbn+n). If the read extends an existing
// segment (sequential stream), the segment grows, trimmed to the segment
// capacity; otherwise the least recently used segment is replaced.
func (c *readCache) insert(lbn int64, n, capSectors int, now float64) {
	if len(c.segs) == 0 {
		return
	}
	end := lbn + int64(n)
	// Extend a segment the read abuts or overlaps.
	for i := range c.segs {
		s := &c.segs[i]
		if s.start < s.end && lbn >= s.start && lbn <= s.end {
			if end > s.end {
				s.end = end
			}
			if capSectors > 0 && s.end-s.start > int64(capSectors) {
				s.start = s.end - int64(capSectors)
			}
			s.lastUse = now
			return
		}
	}
	// Replace the LRU segment.
	lru := 0
	for i := range c.segs {
		if c.segs[i].start == c.segs[i].end { // empty wins immediately
			lru = i
			break
		}
		if c.segs[i].lastUse < c.segs[lru].lastUse {
			lru = i
		}
	}
	s := &c.segs[lru]
	s.start, s.end, s.lastUse = lbn, end, now
	if capSectors > 0 && s.end-s.start > int64(capSectors) {
		s.start = s.end - int64(capSectors)
	}
}

// invalidate drops any cached range overlapping a write.
func (c *readCache) invalidate(lbn int64, n int) {
	end := lbn + int64(n)
	for i := range c.segs {
		s := &c.segs[i]
		if s.start < s.end && lbn < s.end && end > s.start {
			s.start, s.end = 0, 0
		}
	}
}

// streamCursor tracks the firmware prefetch stream: after a read, the
// head keeps streaming forward from lbn at the media rate starting at
// time. A request that starts exactly at the cursor is serviced as a
// continuation with no positioning cost.
type streamCursor struct {
	valid bool
	lbn   int64
	time  float64
}

// tryStream services a read as a prefetch continuation when possible.
// It returns the number of sectors that were already in the buffer and
// whether the continuation path was taken. The media-phase record,
// including the availability chunks the bus model consumes, is built in
// the pooled d.scratch; res.Timing receives its phase breakdown only.
func (d *Disk) tryStream(start float64, req Request, res *Result) (int, bool) {
	cur := d.cursor
	if !d.Cfg.ReadAhead || !cur.valid || req.LBN != cur.lbn {
		return 0, false
	}
	// How far did the firmware get between the last media completion and
	// this request's start? Bounded by the cache segment capacity and by
	// the request size (we do not model prefetch beyond the request).
	zi, err := d.Lay.ZoneOfLBN(req.LBN)
	if err != nil {
		return 0, false
	}
	st := d.M.SlotTime(d.Lay.G.Zones[zi].SPT)
	elapsed := start - cur.time
	pre := int(elapsed / st)
	if max := d.Cfg.CacheSegSectors; max > 0 && pre > max {
		pre = max
	}
	if pre > req.Sectors {
		pre = req.Sectors
	}
	if pre < 0 {
		pre = 0
	}
	remaining := req.Sectors - pre
	mediaEnd := start
	if remaining > 0 {
		streamT, err := d.M.StreamTime(d.Lay, req.LBN+int64(pre), remaining)
		if err != nil {
			return 0, false
		}
		mediaEnd = start + streamT
		d.stats.Transfer += streamT
		d.stats.HeadBusy += streamT
	}
	res.MediaEnd = mediaEnd
	// Availability for the bus: the prefetched part is buffered at start;
	// the rest arrives at the streaming rate.
	tm := &d.scratch
	chunks := tm.Chunks[:0]
	*tm = mech.Timing{}
	if pre > 0 {
		chunks = append(chunks, availChunk(pre, start, 0))
	}
	if remaining > 0 {
		chunks = append(chunks, availChunk(remaining, start+st, st))
	}
	tm.Chunks = chunks
	tm.Transfer = float64(req.Sectors) * st
	tm.EndTime = mediaEnd
	// Head position: home track of the last sector.
	if ti, _, err := d.Lay.LBNHome(req.LBN + int64(req.Sectors) - 1); err == nil {
		cyl, head := d.Lay.TrackCylHead(ti)
		d.headPos.Cyl, d.headPos.Head = cyl, head
		tm.EndPos = d.headPos
	}
	res.Timing = tm.Breakdown
	d.headFree = mediaEnd
	return pre, true
}
