package lfs

import (
	"fmt"
	"math"
	"math/rand"

	"traxtents/internal/device"
	"traxtents/internal/device/stack"
	"traxtents/internal/disk/model"
	"traxtents/internal/disk/sim"
	"traxtents/internal/traxtent"
)

// auspexWriteCost interpolates the Auspex-trace write-cost curve of
// Matthews et al. (segment size in KB → write cost). Cleaning cost grows
// with segment size because larger segments drag more live data through
// the cleaner.
var auspexWriteCost = []struct {
	kb   float64
	cost float64
}{
	{32, 1.01}, {64, 1.02}, {128, 1.05}, {256, 1.10}, {512, 1.35},
	{1024, 1.80}, {2048, 2.40}, {4096, 3.00},
}

// WriteCost returns the interpolated Auspex write cost for a segment
// size in KB (log-linear between published points, clamped outside).
func WriteCost(segKB float64) float64 {
	pts := auspexWriteCost
	if segKB <= pts[0].kb {
		return pts[0].cost
	}
	if segKB >= pts[len(pts)-1].kb {
		return pts[len(pts)-1].cost
	}
	for i := 1; i < len(pts); i++ {
		if segKB <= pts[i].kb {
			f := (math.Log2(segKB) - math.Log2(pts[i-1].kb)) /
				(math.Log2(pts[i].kb) - math.Log2(pts[i-1].kb))
			return pts[i-1].cost + f*(pts[i].cost-pts[i-1].cost)
		}
	}
	return pts[len(pts)-1].cost
}

// TransferInefficiency measures Tactual/Tideal for random segment writes
// of the given size on the model disk: aligned segments start at track
// boundaries (and are written as whole-track pieces); unaligned segments
// land anywhere. Tideal is the first-zone streaming transfer time.
func TransferInefficiency(m model.Model, segSectors int, aligned bool, samples int, seed int64) (float64, error) {
	d, err := m.NewDisk(m.DefaultConfig())
	if err != nil {
		return 0, err
	}
	l := d.Lay
	rng := rand.New(rand.NewSource(seed))
	zFirst, zLast, _ := l.ZoneLBNRange(0)
	zc := l.G.Zones[0]
	lastTrack := l.G.TrackIndex(zc.LastCyl, l.G.Surfaces-1)
	mm := d.M
	st := mm.SlotTime(zc.SPT)
	ideal := float64(segSectors) * st

	var sum float64
	n := 0
	for n < samples {
		var lbn int64
		if aligned {
			ti := rng.Intn(lastTrack + 1)
			first, count := l.TrackRange(ti)
			if count == 0 || first+int64(segSectors) > zLast+1 {
				continue
			}
			lbn = first
		} else {
			lbn = zFirst + rng.Int63n(zLast-zFirst+1-int64(segSectors))
		}
		res, err := d.Serve(d.Now(), sim.Request{LBN: lbn, Sectors: segSectors, Write: true})
		if err != nil {
			return 0, err
		}
		sum += res.Timing.HeadTime()
		n++
	}
	return (sum / float64(samples)) / ideal, nil
}

// OWCPoint is one Figure 10 data point.
type OWCPoint struct {
	SegKB     float64
	WriteCost float64
	TI        float64
	OWC       float64
}

// OWCCurve computes the Figure 10 series for the given model: OWC vs
// segment size, aligned or unaligned. Aligned segment sizes are rounded
// to whole first-zone tracks (variable segments, §5.5.1).
func OWCCurve(m model.Model, segKBs []float64, aligned bool, samples int, seed int64) ([]OWCPoint, error) {
	l, err := m.Layout()
	if err != nil {
		return nil, err
	}
	_, trackSec := l.TrackRange(0)
	out := make([]OWCPoint, 0, len(segKBs))
	for _, kb := range segKBs {
		sectors := int(kb * 1024 / 512)
		if aligned && sectors >= trackSec {
			// Whole (variable-sized) track segments; sub-track segments
			// stay at their size but start on a boundary.
			sectors = int(math.Round(float64(sectors)/float64(trackSec))) * trackSec
		}
		ti, err := TransferInefficiency(m, sectors, aligned, samples, seed)
		if err != nil {
			return nil, err
		}
		wc := WriteCost(float64(sectors) * 512 / 1024)
		out = append(out, OWCPoint{SegKB: kb, WriteCost: wc, TI: ti, OWC: wc * ti})
	}
	return out, nil
}

// ModelTI is the analytic transfer-inefficiency line the paper plots for
// comparison ("5.2ms*40MB/s"): Tpos*(BW/Sseg) + 1.
func ModelTI(posMs, bwMBps, segKB float64) float64 {
	return posMs*(bwMBps*1e6/1000)/(segKB*1024) + 1
}

// ---- Miniature LFS with variable-sized segments ----

// SegmentInfo is one entry of the segment usage table: start, length
// (variable, §5.5.1), and live-block count.
type SegmentInfo struct {
	Ext  traxtent.Extent
	Live int
}

// LFS is a small log-structured store of fixed-size blocks over a
// storage device, with traxtent-sized (variable) or fixed-size segments.
type LFS struct {
	d            device.Device
	blockSectors int64

	// Host-stack wiring (NewLFSStack): the composed stack d points at,
	// and the raw device underneath it. Both nil for a bare NewLFS.
	stack *stack.Stack
	base  device.Device

	segs    []SegmentInfo
	freeSeg []int // indexes of free segments
	cur     int   // segment being filled, -1 if none
	curOff  int64 // blocks written into cur

	// Block index: logical block -> (segment, slot).
	where map[int64]blockLoc
	// Per-segment slot contents: which logical block occupies each slot
	// (-1 = empty/superseded).
	contents []segState

	now      float64
	cleaning bool // reentrancy guard: Clean's relog writes

	// Zone integration: when the device (or any wrapper under the host
	// stack) is zoned, segments that begin on a zone boundary are reset
	// before reuse, so the log head always lands on the write pointer.
	zoned device.Zoned
	zb    []int64

	// Accounting for the measured write cost.
	NewWritten   int64 // blocks of new data written
	CleanRead    int64 // live blocks read by the cleaner
	CleanWritten int64 // live blocks rewritten by the cleaner
	CleanResets  int64 // zone resets issued when reopening segments
}

type blockLoc struct {
	seg  int
	slot int64
	// back-pointer for liveness: which logical block lives here
}

// segment slots record which logical block occupies them (or -1).
type segState struct {
	blocks []int64
}

// NewLFS builds an LFS whose segments are the given extents (use a
// traxtent.Table's tracks for track-matched variable segments, or
// fixed-size extents for the baseline).
func NewLFS(d device.Device, segments []traxtent.Extent, blockSectors int64) (*LFS, error) {
	if len(segments) == 0 {
		return nil, fmt.Errorf("lfs: no segments")
	}
	l := &LFS{
		d:            d,
		blockSectors: blockSectors,
		cur:          -1,
		where:        make(map[int64]blockLoc),
	}
	for _, e := range segments {
		if e.Len < blockSectors {
			return nil, fmt.Errorf("lfs: segment %v smaller than a block", e)
		}
		l.segs = append(l.segs, SegmentInfo{Ext: e})
	}
	for i := range l.segs {
		l.freeSeg = append(l.freeSeg, i)
	}
	l.contents = make([]segState, len(l.segs))
	for i := range l.contents {
		l.contents[i].blocks = make([]int64, l.segs[i].Ext.Len/blockSectors)
		for j := range l.contents[i].blocks {
			l.contents[i].blocks[j] = -1
		}
	}
	if zd, ok := device.ZonedOf(d); ok {
		l.zoned = zd
		l.zb = zd.ZoneBoundaries()
	}
	return l, nil
}

// ZoneSegments returns one segment extent per zone of a zoned device
// (or a wrapper chain over one): segments map 1:1 onto zones, so a full
// segment is exactly one sequential zone fill and freeing a segment is
// one zone reset — the LFS cleaner *is* the zone-reclaim path.
func ZoneSegments(d device.Device) ([]traxtent.Extent, error) {
	zd, ok := device.ZonedOf(d)
	if !ok {
		return nil, fmt.Errorf("lfs: device %T is not zoned", d)
	}
	b := zd.ZoneBoundaries()
	out := make([]traxtent.Extent, 0, len(b)-1)
	for i := 0; i+1 < len(b); i++ {
		out = append(out, traxtent.Extent{Start: b[i], Len: b[i+1] - b[i]})
	}
	return out, nil
}

// FixedSegments carves [0, n) LBNs into fixed-size extents, the
// non-traxtent baseline.
func FixedSegments(total int64, segSectors int64) []traxtent.Extent {
	var out []traxtent.Extent
	for at := int64(0); at+segSectors <= total; at += segSectors {
		out = append(out, traxtent.Extent{Start: at, Len: segSectors})
	}
	return out
}

// NewLFSStack builds the store over the composed host stack (cache →
// scheduling queue → device): every log write and cleaner read is
// served through it. The zero-value config is the transparent
// passthrough, pinned bit-identical to a bare NewLFS over the same
// device; a cache budget makes the cleaner's segment re-reads host
// hits when the segments it compacts are still resident.
func NewLFSStack(d device.Device, cfg stack.Config, segments []traxtent.Extent, blockSectors int64) (*LFS, error) {
	st, err := cfg.Build(d)
	if err != nil {
		return nil, fmt.Errorf("lfs: %w", err)
	}
	l, err := NewLFS(st, segments, blockSectors)
	if err != nil {
		return nil, err
	}
	l.stack, l.base = st, d
	return l, nil
}

// Base returns the raw device under the composed host stack (the
// store's own device for a bare NewLFS).
func (l *LFS) Base() device.Device {
	if l.base != nil {
		return l.base
	}
	return l.d
}

// HostStack returns the composed host stack of a NewLFSStack store
// (nil for a bare NewLFS).
func (l *LFS) HostStack() *stack.Stack { return l.stack }

// Now returns the virtual clock.
func (l *LFS) Now() float64 { return l.now }

// Segments exposes the segment usage table.
func (l *LFS) Segments() []SegmentInfo {
	out := make([]SegmentInfo, len(l.segs))
	copy(out, l.segs)
	return out
}

// Lookup returns where a logical block lives.
func (l *LFS) Lookup(block int64) (traxtent.Extent, bool) {
	loc, ok := l.where[block]
	if !ok {
		return traxtent.Extent{}, false
	}
	seg := l.segs[loc.seg]
	return traxtent.Extent{Start: seg.Ext.Start + loc.slot*l.blockSectors, Len: l.blockSectors}, true
}

// Write logs a new version of the logical block. A full segment is
// flushed with one disk write; a fresh segment is taken from the free
// list (cleaning if none remain).
func (l *LFS) Write(block int64) error {
	if l.cur == -1 {
		if err := l.openSegment(); err != nil {
			return err
		}
	}
	// Supersede the old version.
	if old, ok := l.where[block]; ok {
		l.segs[old.seg].Live--
		l.contents[old.seg].blocks[old.slot] = -1
	}
	l.contents[l.cur].blocks[l.curOff] = block
	l.where[block] = blockLoc{seg: l.cur, slot: l.curOff}
	l.segs[l.cur].Live++
	l.curOff++
	l.NewWritten++
	if l.curOff >= l.segs[l.cur].Ext.Len/l.blockSectors {
		return l.flush()
	}
	return nil
}

// flush writes the current segment to disk in one request.
func (l *LFS) flush() error {
	seg := l.segs[l.cur].Ext
	res, err := l.d.Serve(l.now, device.Request{LBN: seg.Start, Sectors: int(l.curOff * l.blockSectors), Write: true})
	if err != nil {
		return err
	}
	l.now = res.Done
	l.cur = -1
	l.curOff = 0
	return nil
}

// openSegment takes a free segment, running the cleaner if necessary.
// One segment is held in reserve for the cleaner itself, so its relog
// writes can always proceed (the classic LFS cleaner reserve).
func (l *LFS) openSegment() error {
	threshold := 2
	if l.cleaning {
		threshold = 1
	}
	for i := 0; len(l.freeSeg) < threshold; i++ {
		if l.cleaning {
			return fmt.Errorf("lfs: log full during cleaning")
		}
		if i > 2*len(l.segs) {
			return fmt.Errorf("lfs: cleaner recovered no space (log full)")
		}
		if err := l.Clean(1); err != nil {
			return err
		}
	}
	l.cur = l.freeSeg[0]
	l.freeSeg = l.freeSeg[1:]
	l.curOff = 0
	// On a zoned device a reused segment's zone still has its write
	// pointer at the old fill's end; reset it so the coming flush lands
	// on the pointer. Only whole-zone segments (start on a boundary)
	// are reset — resetting would wipe any neighbours sharing the zone.
	if l.zoned != nil {
		seg := l.segs[l.cur].Ext
		if zi := l.zoneOf(seg.Start); zi >= 0 && l.zb[zi] == seg.Start && l.zoned.WritePointer(zi) > seg.Start {
			done, err := l.zoned.ResetZoneAt(l.now, zi)
			if err != nil {
				return err
			}
			l.now = done
			l.CleanResets++
		}
	}
	return nil
}

// zoneOf returns the zone index containing lbn, or -1.
func (l *LFS) zoneOf(lbn int64) int {
	for i := 0; i+1 < len(l.zb); i++ {
		if lbn >= l.zb[i] && lbn < l.zb[i+1] {
			return i
		}
	}
	return -1
}

// Clean reclaims up to n segments: it picks the lowest-utilization
// non-empty segments, reads their live blocks, and relogs them.
func (l *LFS) Clean(n int) error {
	for k := 0; k < n; k++ {
		victim := -1
		bestLive := 1 << 30
		for i := range l.segs {
			if i == l.cur || l.isFree(i) {
				continue
			}
			if l.segs[i].Live < bestLive {
				bestLive = l.segs[i].Live
				victim = i
			}
		}
		if victim == -1 {
			return nil
		}
		// Read the whole victim (the cleaner reads segments wholesale).
		seg := l.segs[victim].Ext
		res, err := l.d.Serve(l.now, device.Request{LBN: seg.Start, Sectors: int(seg.Len)})
		if err != nil {
			return err
		}
		l.now = res.Done
		var live []int64
		for slot, blk := range l.contents[victim].blocks {
			if blk >= 0 {
				live = append(live, blk)
				l.contents[victim].blocks[slot] = -1
			}
		}
		l.CleanRead += int64(len(live))
		l.segs[victim].Live = 0
		l.freeSeg = append(l.freeSeg, victim)
		// Relog the live blocks (they count as cleaner writes).
		wasCleaning := l.cleaning
		l.cleaning = true
		for _, blk := range live {
			delete(l.where, blk)
			if err := l.Write(blk); err != nil {
				l.cleaning = wasCleaning
				return err
			}
			l.NewWritten--
			l.CleanWritten++
		}
		l.cleaning = wasCleaning
	}
	return nil
}

func (l *LFS) isFree(i int) bool {
	for _, f := range l.freeSeg {
		if f == i {
			return true
		}
	}
	return false
}

// MeasuredWriteCost returns (new + cleanRead + cleanWritten) / new, the
// §5.5 write-cost numerator over the workload so far.
func (l *LFS) MeasuredWriteCost() float64 {
	if l.NewWritten == 0 {
		return 0
	}
	return float64(l.NewWritten+l.CleanRead+l.CleanWritten) / float64(l.NewWritten)
}

// LiveBlocks returns the set of logical blocks currently stored.
func (l *LFS) LiveBlocks() map[int64]bool {
	out := make(map[int64]bool, len(l.where))
	for b := range l.where {
		out[b] = true
	}
	return out
}
