package ftl

import (
	"fmt"
	"math"

	"traxtents/internal/device"
	"traxtents/internal/disk/mech"
)

// block lifecycle states
const (
	blockFree uint8 = iota
	blockOpen
	blockSealed
)

// eraser is the structural capability an inner device offers when it
// can time erases (zoned.Flash does). Discovered by interface
// assertion so ftl depends only on the device package.
type eraser interface {
	EraseAt(at float64, lbn int64, sectors int) (float64, error)
}

// Stats counts the FTL's background work.
type Stats struct {
	// DemandPages / CopiedPages are physical pages programmed on behalf
	// of host writes and of garbage collection respectively.
	DemandPages int64
	CopiedPages int64
	// Erases counts erase-block erasures.
	Erases int64
	// GCRuns counts garbage-collection victim reclaims.
	GCRuns int64
}

// WriteAmp returns the write amplification factor: physical pages
// programmed per demand page (1.0 with no GC copies).
func (s Stats) WriteAmp() float64 {
	if s.DemandPages == 0 {
		return 1
	}
	return float64(s.DemandPages+s.CopiedPages) / float64(s.DemandPages)
}

// FTL is the flash translation layer device. The logical capacity it
// exposes is smaller than the inner device's physical capacity by the
// overprovisioned reserve.
//
// A fresh FTL maps sequential page-aligned writes onto identical
// physical addresses (the free list hands out blocks in address
// order), so until the first garbage collection it is bit-identical to
// the backend it wraps — the differential pin the tests hold it to.
type FTL struct {
	inner device.Device

	pageSectors  int64 // P: sectors per mapping page
	eraseSectors int64 // E: sectors per erase block (construction-time)
	blockPages   int32 // K: pages per erase block
	physBlocks   int32 // N
	reserve      int32 // R: physical blocks beyond the logical capacity
	capacity     int64 // logical sectors = (N-R)*K*P

	l2p   []int32 // logical page -> physical page; -1 = unmapped (identity read)
	p2l   []int32 // physical page -> logical page; -1 = free or garbage
	valid []int32 // live pages per physical block
	state []uint8 // blockFree / blockOpen / blockSealed

	freeList  []int32 // ring buffer of free block indexes
	freeHead  int32
	freeCount int32

	open, openFill int32 // demand open block (-1 when none) and its fill cursor
	gcOpen, gcFill int32 // GC destination block (-1 when none)

	lastDone float64
	bounds   []int64
	stats    Stats
	res      device.Result // Serve's result buffer
	part     device.Result // inner operations after a request's first
}

// Option configures an FTL.
type Option func(*FTL)

// WithPageSectors sets the mapping-page size in sectors (default 8 —
// 4 KiB pages at 512-byte sectors).
func WithPageSectors(n int64) Option { return func(f *FTL) { f.pageSectors = n } }

// WithEraseBlockSectors sets the erase-block size in sectors (default
// 1024); it must be a multiple of the page size. Match the inner
// flash device's erase-block size so GC erases are legal.
func WithEraseBlockSectors(n int64) Option { return func(f *FTL) { f.eraseSectors = n } }

// WithReserveBlocks sets the overprovisioned reserve: physical erase
// blocks withheld from the logical capacity (default 1/8 of the
// device, minimum 2). At least 2 are required for GC liveness.
func WithReserveBlocks(n int) Option { return func(f *FTL) { f.reserve = int32(n) } }

var (
	_ device.Device           = (*FTL)(nil)
	_ device.InPlace          = (*FTL)(nil)
	_ device.BoundaryProvider = (*FTL)(nil)
	_ device.Named            = (*FTL)(nil)
)

// New builds an FTL over inner. The inner device's capacity is carved
// into N erase blocks of K pages; the FTL exposes (N - reserve) blocks
// of logical capacity and keeps the reserve for garbage collection.
func New(inner device.Device, opts ...Option) (*FTL, error) {
	f := &FTL{
		inner:       inner,
		pageSectors: 8,
		eraseSectors: func() int64 {
			if es, ok := inner.(interface{ EraseSectors() int64 }); ok {
				return es.EraseSectors()
			}
			return 1024
		}(),
		reserve: -1,
		open:    -1,
		gcOpen:  -1,
	}
	for _, o := range opts {
		o(f)
	}
	if f.pageSectors <= 0 {
		return nil, fmt.Errorf("ftl: %w: page of %d sectors", device.ErrInvalidRequest, f.pageSectors)
	}
	if f.eraseSectors <= 0 || f.eraseSectors%f.pageSectors != 0 {
		return nil, fmt.Errorf("ftl: %w: erase block of %d sectors is not a multiple of the %d-sector page",
			device.ErrInvalidRequest, f.eraseSectors, f.pageSectors)
	}
	f.blockPages = int32(f.eraseSectors / f.pageSectors)
	n := inner.Capacity() / f.eraseSectors
	if n > math.MaxInt32/int64(f.blockPages) {
		return nil, fmt.Errorf("ftl: %w: %d erase blocks exceed the 2^31 page index space",
			device.ErrInvalidRequest, n)
	}
	f.physBlocks = int32(n)
	if f.reserve < 0 {
		f.reserve = f.physBlocks / 8
		if f.reserve < 2 {
			f.reserve = 2
		}
	}
	if f.reserve < 2 || f.reserve >= f.physBlocks {
		return nil, fmt.Errorf("ftl: %w: reserve of %d blocks on a %d-block device (need 2 <= reserve < blocks)",
			device.ErrInvalidRequest, f.reserve, f.physBlocks)
	}
	logicalPages := int64(f.physBlocks-f.reserve) * int64(f.blockPages)
	f.capacity = logicalPages * f.pageSectors
	f.l2p = make([]int32, logicalPages)
	f.p2l = make([]int32, int64(f.physBlocks)*int64(f.blockPages))
	for i := range f.l2p {
		f.l2p[i] = -1
	}
	for i := range f.p2l {
		f.p2l[i] = -1
	}
	f.valid = make([]int32, f.physBlocks)
	f.state = make([]uint8, f.physBlocks)
	f.freeList = make([]int32, f.physBlocks)
	for i := range f.freeList {
		f.freeList[i] = int32(i)
	}
	f.freeCount = f.physBlocks
	for lbn := int64(0); lbn <= f.capacity; lbn += f.eraseSectors {
		f.bounds = append(f.bounds, lbn)
	}
	return f, nil
}

// physPage resolves a logical page: its mapping when written, its own
// index otherwise (the identity fallback — never-written pages read at
// their logical address, which is always within the physical space
// since the logical capacity is the smaller one).
func (f *FTL) physPage(lp int64) int32 {
	if pp := f.l2p[lp]; pp >= 0 {
		return pp
	}
	return int32(lp)
}

// takeFree pops the next free block from the ring.
func (f *FTL) takeFree() int32 {
	b := f.freeList[f.freeHead]
	f.freeHead = (f.freeHead + 1) % f.physBlocks
	f.freeCount--
	return b
}

// putFree pushes a reclaimed block onto the ring.
func (f *FTL) putFree(b int32) {
	f.freeList[(f.freeHead+f.freeCount)%f.physBlocks] = b
	f.freeCount++
}

// mergeOp serves one inner operation of the composite result *out:
// the first lands in *out itself, later ones in the FTL's scratch
// record and fold into *out.
func (f *FTL) mergeOp(at float64, req device.Request, out *device.Result, first *bool) error {
	if *first {
		if err := device.ServeInto(f.inner, at, req, out); err != nil {
			return err
		}
		*first = false
		return nil
	}
	r := &f.part
	if err := device.ServeInto(f.inner, at, req, r); err != nil {
		return err
	}
	out.MediaEnd = r.MediaEnd
	out.Done = r.Done
	out.BusTime += r.BusTime
	out.Prefetched += r.Prefetched
	out.CacheHit = false
	out.Timing = mech.Breakdown{}
	return nil
}

// Serve services one logical request, remapping it onto physical
// pages. Writes may trigger garbage collection first; its inner reads,
// writes, and erases are issued at the same host time (the inner
// device serializes them FCFS) and fold into the returned result —
// that queueing delay is exactly the GC tail the studies measure.
func (f *FTL) Serve(at float64, req device.Request) (device.Result, error) {
	if err := f.ServeInto(at, req, &f.res); err != nil {
		return device.Result{}, err
	}
	return f.res, nil
}

// ServeInto is Serve writing the result into *res (device.InPlace):
// the request's first inner operation serves straight into *res.
func (f *FTL) ServeInto(at float64, req device.Request, res *device.Result) error {
	if err := device.CheckRequest(f, req); err != nil {
		return err
	}
	var err error
	if req.Write {
		err = f.serveWrite(at, req, res)
	} else {
		err = f.serveRead(at, req, res)
	}
	if err != nil {
		return err
	}
	res.Req = req
	res.Issue = at
	if res.Done > f.lastDone {
		f.lastDone = res.Done
	}
	return nil
}

// serveRead issues one inner read per physically-contiguous run of
// logical pages. In-page sector offsets are preserved, so an
// identity-mapped read is the exact physical request — and a single-
// run read returns the inner result bit-identically.
func (f *FTL) serveRead(at float64, req device.Request, out *device.Result) error {
	P := f.pageSectors
	end := req.LBN + int64(req.Sectors)
	lp := req.LBN / P
	last := (end - 1) / P
	first := true
	runStart := lp
	runPhys := f.physPage(lp)
	prev := runPhys
	flush := func(runEnd int64) error { // run covers logical pages [runStart, runEnd]
		lo := runStart * P
		if req.LBN > lo {
			lo = req.LBN
		}
		hi := (runEnd + 1) * P
		if end < hi {
			hi = end
		}
		physLo := int64(runPhys)*P + (lo - runStart*P)
		return f.mergeOp(at, device.Request{LBN: physLo, Sectors: int(hi - lo), FUA: req.FUA}, out, &first)
	}
	for p := lp + 1; p <= last; p++ {
		pp := f.physPage(p)
		if pp == prev+1 {
			prev = pp
			continue
		}
		if err := flush(p - 1); err != nil {
			return err
		}
		runStart, runPhys, prev = p, pp, pp
	}
	return flush(last)
}

// serveWrite allocates physical pages from the open block and programs
// them. Slots are reserved before the inner write and the mapping
// commits only on success: a faulted write leaves garbage slots and
// the old mapping intact.
func (f *FTL) serveWrite(at float64, req device.Request, out *device.Result) error {
	P := f.pageSectors
	K := f.blockPages
	end := req.LBN + int64(req.Sectors)
	lp := req.LBN / P
	last := (end - 1) / P
	cur := req.LBN
	first := true
	for lp <= last {
		if err := f.ensureOpen(at, out, &first); err != nil {
			return err
		}
		m := int64(K - f.openFill)
		if rem := last - lp + 1; rem < m {
			m = rem
		}
		pp0 := int64(f.open)*int64(K) + int64(f.openFill)
		lo := cur
		hi := (lp + m) * P
		if end < hi {
			hi = end
		}
		physLo := pp0*P + (lo - lp*P)
		// Reserve the slots first: if the write faults they are garbage,
		// never half-mapped.
		f.openFill += int32(m)
		sealAfter := f.openFill == K
		if err := f.mergeOp(at, device.Request{LBN: physLo, Sectors: int(hi - lo), Write: true, FUA: req.FUA}, out, &first); err != nil {
			if sealAfter {
				f.state[f.open] = blockSealed
				f.open = -1
			}
			return err
		}
		for j := int64(0); j < m; j++ {
			f.commit(lp+j, int32(pp0+j))
		}
		f.valid[f.open] += int32(m)
		f.stats.DemandPages += m
		if sealAfter {
			f.state[f.open] = blockSealed
			f.open = -1
		}
		cur = hi
		lp += m
	}
	return nil
}

// commit points a logical page at its new physical page, invalidating
// any previous mapping.
func (f *FTL) commit(lp int64, pp int32) {
	if old := f.l2p[lp]; old >= 0 {
		f.valid[old/f.blockPages]--
		f.p2l[old] = -1
	}
	f.l2p[lp] = pp
	f.p2l[pp] = int32(lp)
}

// ensureOpen makes sure the demand open block has a free slot, running
// garbage collection first when the free pool is low.
func (f *FTL) ensureOpen(at float64, out *device.Result, first *bool) error {
	if f.open >= 0 && f.openFill < f.blockPages {
		return nil
	}
	if f.open >= 0 {
		f.state[f.open] = blockSealed
		f.open = -1
	}
	if err := f.gc(at, out, first); err != nil {
		return err
	}
	if f.freeCount == 0 {
		return &device.Error{Op: "ftl", Err: fmt.Errorf("%w: free pool exhausted", device.ErrInvalidRequest)}
	}
	f.open = f.takeFree()
	f.openFill = 0
	f.state[f.open] = blockOpen
	return nil
}

// gc reclaims sealed blocks until the free pool holds at least 2
// blocks (one for the caller, one in reserve for the GC destination).
// Victims are the sealed blocks with the fewest live pages, lowest
// index first — fully deterministic. A fully-live victim set means
// nothing is reclaimable yet (only possible before steady state), and
// gc returns with whatever the pool holds.
func (f *FTL) gc(at float64, out *device.Result, first *bool) error {
	for guard := 4 * int(f.physBlocks); f.freeCount < 2; guard-- {
		if guard <= 0 {
			return &device.Error{Op: "ftl gc", Err: fmt.Errorf("%w: garbage collection did not converge", device.ErrInvalidRequest)}
		}
		v := int32(-1)
		for b := int32(0); b < f.physBlocks; b++ {
			if f.state[b] != blockSealed {
				continue
			}
			if v < 0 || f.valid[b] < f.valid[v] {
				v = b
			}
		}
		if v < 0 || f.valid[v] >= f.blockPages {
			return nil
		}
		if err := f.relocate(at, v, out, first); err != nil {
			return err
		}
		if err := f.erase(at, v, out, first); err != nil {
			return err
		}
		f.state[v] = blockFree
		f.putFree(v)
		f.stats.Erases++
		f.stats.GCRuns++
	}
	return nil
}

// relocate copies the victim's live pages into the GC open block, in
// physically-contiguous chunks, committing each chunk's mappings only
// after its inner write succeeds.
func (f *FTL) relocate(at float64, v int32, out *device.Result, first *bool) error {
	P := f.pageSectors
	K := f.blockPages
	base := int64(v) * int64(K)
	for j := int32(0); j < K; {
		if f.p2l[base+int64(j)] < 0 {
			j++
			continue
		}
		r := int32(1)
		for j+r < K && f.p2l[base+int64(j+r)] >= 0 {
			r++
		}
		for off := int32(0); off < r; {
			if err := f.ensureGCOpen(); err != nil {
				return err
			}
			m := K - f.gcFill
			if rem := r - off; rem < m {
				m = rem
			}
			src := (base + int64(j+off)) * P
			if err := f.mergeOp(at, device.Request{LBN: src, Sectors: int(int64(m) * P)}, out, first); err != nil {
				return err
			}
			dst0 := int64(f.gcOpen)*int64(K) + int64(f.gcFill)
			f.gcFill += m // reserve before the write: a fault leaves garbage, not a half-map
			sealAfter := f.gcFill == K
			if err := f.mergeOp(at, device.Request{LBN: dst0 * P, Sectors: int(int64(m) * P), Write: true}, out, first); err != nil {
				if sealAfter {
					f.state[f.gcOpen] = blockSealed
					f.gcOpen = -1
				}
				return err
			}
			for i := int32(0); i < m; i++ {
				lp := f.p2l[base+int64(j+off+i)]
				f.commit(int64(lp), int32(dst0+int64(i)))
			}
			f.valid[f.gcOpen] += m
			f.stats.CopiedPages += int64(m)
			if sealAfter {
				f.state[f.gcOpen] = blockSealed
				f.gcOpen = -1
			}
			off += m
		}
		j += r
	}
	return nil
}

// ensureGCOpen allocates the GC destination block.
func (f *FTL) ensureGCOpen() error {
	if f.gcOpen >= 0 && f.gcFill < f.blockPages {
		return nil
	}
	if f.gcOpen >= 0 {
		f.state[f.gcOpen] = blockSealed
		f.gcOpen = -1
	}
	if f.freeCount == 0 {
		return &device.Error{Op: "ftl gc", Err: fmt.Errorf("%w: free pool exhausted", device.ErrInvalidRequest)}
	}
	f.gcOpen = f.takeFree()
	f.gcFill = 0
	f.state[f.gcOpen] = blockOpen
	return nil
}

// erase erases the (fully-dead) victim through the inner device's
// EraseAt when it offers one, free otherwise.
func (f *FTL) erase(at float64, v int32, out *device.Result, first *bool) error {
	er, ok := f.inner.(eraser)
	if !ok {
		return nil
	}
	done, err := er.EraseAt(at, int64(v)*f.blockPages64()*f.pageSectors, int(f.blockPages64()*f.pageSectors))
	if err != nil {
		return err
	}
	if *first {
		// The erase opens the composite: nothing of *out (a reused
		// caller slot) may survive into it.
		*out = device.Result{}
		out.Issue = at
		out.Start = at
		*first = false
	}
	if done > out.MediaEnd {
		out.MediaEnd = done
	}
	if done > out.Done {
		out.Done = done
	}
	return nil
}

func (f *FTL) blockPages64() int64 { return int64(f.blockPages) }

// Now returns the completion time of the last request the FTL
// surfaced; failed requests never advance it.
func (f *FTL) Now() float64 { return f.lastDone }

// Capacity returns the logical capacity in sectors.
func (f *FTL) Capacity() int64 { return f.capacity }

// SectorSize returns the inner device's sector size.
func (f *FTL) SectorSize() int { return f.inner.SectorSize() }

// Inner returns the wrapped device.
func (f *FTL) Inner() device.Device { return f.inner }

// Stats returns the background-work counters.
func (f *FTL) Stats() Stats { return f.stats }

// TrackBoundaries reports the logical erase-block extents — the
// natural extents a host should align to on flash. The returned slice
// is a copy; callers may mutate it.
func (f *FTL) TrackBoundaries() []int64 { return append([]int64(nil), f.bounds...) }

// Name identifies the FTL and its inner device.
func (f *FTL) Name() string {
	inner := "device"
	if n, ok := f.inner.(device.Named); ok {
		inner = n.Name()
	}
	return fmt.Sprintf("ftl[%d+%d blocks]+%s", f.physBlocks-f.reserve, f.reserve, inner)
}

// Audit verifies the mapping-table invariants: l2p and p2l are exact
// inverses over mapped pages, per-block live counts match the reverse
// map, free-list entries are distinct free blocks, and fill cursors
// are in range. Fault-interaction tests call it after injected
// failures to prove no fault can half-update the tables.
func (f *FTL) Audit() error {
	K := f.blockPages
	for lp, pp := range f.l2p {
		if pp < 0 {
			continue
		}
		if int64(pp) >= int64(len(f.p2l)) {
			return fmt.Errorf("ftl audit: l2p[%d]=%d out of range", lp, pp)
		}
		if f.p2l[pp] != int32(lp) {
			return fmt.Errorf("ftl audit: l2p[%d]=%d but p2l[%d]=%d", lp, pp, pp, f.p2l[pp])
		}
	}
	liveInBlock := func(b int32) int32 {
		var n int32
		for j := int64(b) * int64(K); j < int64(b+1)*int64(K); j++ {
			if f.p2l[j] >= 0 {
				n++
			}
		}
		return n
	}
	for b := int32(0); b < f.physBlocks; b++ {
		if n := liveInBlock(b); n != f.valid[b] {
			return fmt.Errorf("ftl audit: block %d has %d live pages but valid=%d", b, n, f.valid[b])
		}
		if f.state[b] == blockFree && f.valid[b] != 0 {
			return fmt.Errorf("ftl audit: free block %d has %d live pages", b, f.valid[b])
		}
	}
	for pp, lp := range f.p2l {
		if lp < 0 {
			continue
		}
		if int64(lp) >= int64(len(f.l2p)) || f.l2p[lp] != int32(pp) {
			return fmt.Errorf("ftl audit: p2l[%d]=%d not mirrored by l2p", pp, lp)
		}
	}
	seen := make(map[int32]bool, f.freeCount)
	for i := int32(0); i < f.freeCount; i++ {
		b := f.freeList[(f.freeHead+i)%f.physBlocks]
		if seen[b] {
			return fmt.Errorf("ftl audit: block %d twice on the free list", b)
		}
		seen[b] = true
		if f.state[b] != blockFree {
			return fmt.Errorf("ftl audit: free-list block %d in state %d", b, f.state[b])
		}
	}
	var nFree int32
	for b := int32(0); b < f.physBlocks; b++ {
		if f.state[b] == blockFree {
			nFree++
		}
	}
	if nFree != f.freeCount {
		return fmt.Errorf("ftl audit: %d free blocks but freeCount=%d", nFree, f.freeCount)
	}
	if f.open >= 0 && (f.openFill < 0 || f.openFill > K || f.state[f.open] != blockOpen) {
		return fmt.Errorf("ftl audit: bad open block %d fill %d", f.open, f.openFill)
	}
	if f.gcOpen >= 0 && (f.gcFill < 0 || f.gcFill > K || f.state[f.gcOpen] != blockOpen) {
		return fmt.Errorf("ftl audit: bad gc block %d fill %d", f.gcOpen, f.gcFill)
	}
	return nil
}
