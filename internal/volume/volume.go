package volume

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sort"

	"traxtents/internal/device"
	"traxtents/internal/device/sched"
	"traxtents/internal/stats"
)

// Tier names accepted by WithTier, beyond the per-spindle policies that
// sched.ByName knows.
const (
	tierFCFS = "fcfs"
	tierFair = "fair"
	tierEDF  = "edf"
)

// ErrRejected is wrapped by every admission-control rejection, so
// callers can tell "denied by policy" from request or tenant errors
// with errors.Is.
var ErrRejected = errors.New("admission rejected")

// TenantLimit bounds one tenant's admission. The zero value admits
// nothing (a zero-rate token bucket: every request is rejected); leave
// a volume's limit unset to admit everything.
//
// Each bucket is active when its rate or burst is non-zero. An active
// request bucket defaults to a burst of 1 request; an active bandwidth
// bucket defaults to one second's refill. A request costing more than
// a bucket's whole burst can never be admitted and is rejected
// outright.
type TenantLimit struct {
	// IOPS is the request-bucket refill rate, admitted requests per
	// second of virtual time.
	IOPS float64
	// BurstRequests is the request-bucket capacity.
	BurstRequests float64
	// SectorsPerSec is the bandwidth-bucket refill rate.
	SectorsPerSec float64
	// BurstSectors is the bandwidth-bucket capacity.
	BurstSectors float64
	// MaxInFlight caps admitted-but-incomplete requests (a queue-depth
	// cap). Exceeding it always rejects, never defers.
	MaxInFlight int
	// Defer shapes instead of policing: a request that would exhaust a
	// bucket is admitted but released to the scheduler tier only when
	// its tokens have refilled (deterministically, in arrival order).
	// Requests that could never accumulate tokens are still rejected.
	Defer bool
}

// Extent is one placement unit of a volume: a whole traxtent (or
// fixed-size chunk) of a single shard.
type Extent struct {
	Shard   int   // shard index within the Manager
	Index   int   // extent index within the shard's table
	LBN     int64 // start LBN on the shard
	Sectors int64
}

// span is one shard-contiguous piece of a volume request.
type span struct {
	sh      *shard
	lbn     int64
	sectors int
}

// shard is one backing device plus its scheduler tier and extent table.
type shard struct {
	idx  int
	dev  device.Device
	tier *sched.Queue

	bounds    []int64 // ascending extent boundaries, bounds[0] = 0
	freeExt   []int   // min-heap of returned extent indices
	nextFresh int     // lowest never-allocated extent index

	// routes maps the tier's sequence numbers in the current batch to
	// their spans. A successful Drain empties it, so it holds only the
	// batch's spans.
	routes device.Routes[route]

	vtime float64 // SFQ virtual time
}

// route is one span the current batch submitted to a shard tier.
type route struct {
	slot int     // span slot in Manager.joins
	key  float64 // the tier scheduler's sort key: SFQ start tag or EDF deadline
}

// extents returns the number of extents in the shard's table.
func (s *shard) extents() int { return len(s.bounds) - 1 }

// takeExtent allocates the lowest free extent index, if any.
func (s *shard) takeExtent() (int, bool) {
	if len(s.freeExt) > 0 {
		return heapPop(&s.freeExt), true
	}
	if s.nextFresh < s.extents() {
		s.nextFresh++
		return s.nextFresh - 1, true
	}
	return 0, false
}

// giveExtent returns an extent index to the free pool.
func (s *shard) giveExtent(i int) { heapPush(&s.freeExt, i) }

// Volume is one tenant's logical LBN space.
type Volume struct {
	m        *Manager
	name     string
	weight   float64 // fair-share weight
	deadline float64 // EDF deadline, ms after release

	exts     []Extent
	bounds   []int64 // cumulative volume-LBN extent boundaries
	capacity int64

	// Admission state.
	limit       *TenantLimit
	denyAll     bool
	reqActive   bool
	secActive   bool
	reqRate     float64 // tokens per ms
	secRate     float64
	reqBurst    float64
	secBurst    float64
	reqTokens   float64
	secTokens   float64
	bucketAt    float64 // buckets last refilled to this instant
	lastRelease float64

	unresolved int       // admitted requests whose completion has not folded
	doneHeap   []float64 // completion times, for the MaxInFlight window

	// Accounting.
	served     int
	rejected   int
	deferred   int
	sumResp    float64
	maxResp    float64
	tails      *stats.Tails // fed through the manager's feed
	lastFinish []float64    // per-shard SFQ finish tag
	lastDone   float64
}

// Name returns the tenant name.
func (v *Volume) Name() string { return v.name }

// Capacity returns the volume's addressable LBNs (the requested size
// rounded up to whole extents).
func (v *Volume) Capacity() int64 { return v.capacity }

// ExtentTable returns a copy of the volume's placement.
func (v *Volume) ExtentTable() []Extent { return append([]Extent(nil), v.exts...) }

// setLimit resolves a TenantLimit's defaults onto the volume and fills
// the buckets.
func (v *Volume) setLimit(l TenantLimit) {
	lim := l
	v.limit = &lim
	v.denyAll = l == TenantLimit{}
	v.reqActive = l.IOPS > 0 || l.BurstRequests > 0
	v.secActive = l.SectorsPerSec > 0 || l.BurstSectors > 0
	v.reqRate = l.IOPS / 1000
	v.secRate = l.SectorsPerSec / 1000
	v.reqBurst = l.BurstRequests
	if v.reqActive && v.reqBurst <= 0 {
		v.reqBurst = 1
	}
	v.secBurst = l.BurstSectors
	if v.secActive && v.secBurst <= 0 {
		v.secBurst = l.SectorsPerSec
	}
	v.reqTokens, v.secTokens = v.reqBurst, v.secBurst
}

// admit applies the volume's limit at the given host time, returning
// the instant the request is released to the scheduler tier (at, when
// not shaped). A rejection leaves every clock untouched.
func (v *Volume) admit(at float64, sectors int) (float64, error) {
	if v.limit == nil {
		return at, nil
	}
	reject := func(reason string) (float64, error) {
		v.rejected++
		return 0, fmt.Errorf("volume: tenant %q: %w: %s", v.name, ErrRejected, reason)
	}
	if v.denyAll {
		return reject("zero-rate limit admits nothing")
	}
	if max := v.limit.MaxInFlight; max > 0 {
		for len(v.doneHeap) > 0 && v.doneHeap[0] <= at {
			heapPop(&v.doneHeap)
		}
		if v.unresolved+len(v.doneHeap) >= max {
			return reject(fmt.Sprintf("%d requests in flight", max))
		}
	}
	cost := float64(sectors)
	if v.secActive && cost > v.secBurst {
		return reject("request larger than the bandwidth burst")
	}
	t0 := math.Max(at, v.lastRelease)
	v.refill(t0)
	wait := 0.0
	if v.reqActive && v.reqTokens < 1 {
		if v.reqRate <= 0 || !v.limit.Defer {
			return reject("request tokens exhausted")
		}
		wait = (1 - v.reqTokens) / v.reqRate
	}
	if v.secActive && v.secTokens < cost {
		if v.secRate <= 0 || !v.limit.Defer {
			return reject("bandwidth tokens exhausted")
		}
		if w := (cost - v.secTokens) / v.secRate; w > wait {
			wait = w
		}
	}
	release := t0 + wait
	v.refill(release)
	if v.reqActive {
		v.reqTokens--
	}
	if v.secActive {
		v.secTokens -= cost
	}
	v.lastRelease = release
	if release > at {
		v.deferred++
	}
	return release, nil
}

// refill tops the buckets up to instant t.
func (v *Volume) refill(t float64) {
	if t <= v.bucketAt {
		return
	}
	dt := t - v.bucketAt
	v.bucketAt = t
	if v.reqActive {
		v.reqTokens = math.Min(v.reqBurst, v.reqTokens+v.reqRate*dt)
	}
	if v.secActive {
		v.secTokens = math.Min(v.secBurst, v.secTokens+v.secRate*dt)
	}
}

// admissionSnapshot captures the tenant state admit mutates, so a
// mid-batch routing failure can put it back per the ErrRejected
// contract: a request the volume server could not place consumes no
// tokens and holds no in-flight slot.
type admissionSnapshot struct {
	reqTokens   float64
	secTokens   float64
	bucketAt    float64
	lastRelease float64
	deferred    int
}

func (v *Volume) admitSnap() admissionSnapshot {
	return admissionSnapshot{
		reqTokens:   v.reqTokens,
		secTokens:   v.secTokens,
		bucketAt:    v.bucketAt,
		lastRelease: v.lastRelease,
		deferred:    v.deferred,
	}
}

func (v *Volume) restore(s admissionSnapshot) {
	v.reqTokens = s.reqTokens
	v.secTokens = s.secTokens
	v.bucketAt = s.bucketAt
	v.lastRelease = s.lastRelease
	v.deferred = s.deferred
}

// heldReq is an admitted-but-shaped request waiting for its release
// instant.
type heldReq struct {
	release float64
	order   int
	vol     *Volume
	issue   float64
	req     device.Request
}

// config collects constructor options.
type config struct {
	tier          string
	depth         int
	extentSectors int64
	deadlineMs    float64
}

// Option configures a Manager.
type Option func(*config)

// WithTier selects the scheduler-tier policy above each shard: "fcfs"
// (the default — with depth 1 it is a transparent passthrough), "fair"
// (start-time fair queueing across tenants, weighted by sectors), "edf"
// (earliest deadline first), or any per-spindle policy sched.ByName
// accepts ("sstf", "clook", "traxtent").
func WithTier(name string) Option { return func(c *config) { c.tier = name } }

// WithTierDepth sets the tier's queue depth (reordering window). The
// default is 1.
func WithTierDepth(n int) Option { return func(c *config) { c.depth = n } }

// WithExtentSectors switches placement from the shards' own traxtent
// boundaries to a fixed extent size — the unaligned layout, whose
// extents straddle track boundaries. Shard capacity beyond the last
// whole extent is not used.
func WithExtentSectors(n int64) Option { return func(c *config) { c.extentSectors = n } }

// WithDefaultDeadline sets the EDF deadline (ms past a request's
// release) for volumes that do not set their own. The default is 50 ms.
func WithDefaultDeadline(ms float64) Option { return func(c *config) { c.deadlineMs = ms } }

// VolumeOption configures one volume at AddVolume time.
type VolumeOption func(*Volume)

// WithLimit sets the tenant's admission limit.
func WithLimit(l TenantLimit) VolumeOption { return func(v *Volume) { v.setLimit(l) } }

// WithWeight sets the tenant's fair-share weight (default 1).
func WithWeight(w float64) VolumeOption { return func(v *Volume) { v.weight = w } }

// WithDeadline sets the tenant's EDF deadline in ms (default: the
// Manager's).
func WithDeadline(ms float64) VolumeOption { return func(v *Volume) { v.deadline = ms } }

// Manager is the multi-tenant volume server: it owns the shards, the
// per-shard scheduler tiers, the tenant volumes, and the admission and
// accounting state. Like every layer of the stack it is deterministic
// and single-goroutine to its caller, with issue times non-decreasing
// across Submit/ServeTenant calls; only the quantile feed's batches
// are applied on a helper goroutine, joined by every snapshot.
type Manager struct {
	shards     []*shard
	cfg        config
	sectorSize int
	rotation   float64 // common shard rotation period, 0 when mixed

	vols  map[string]*Volume
	order []*Volume

	// joins reassembles the batch's requests from their spans;
	// owners[i] is the tenant of join i.
	joins     device.Joins
	owners    []*Volume
	held      heldHeap
	heldOrder int

	lastIssue float64
	lastDone  float64

	spanBuf []span

	// Prebound fold state (zero-alloc ConsumeCompleted loop).
	foldCur *shard
	foldErr error
	foldFn  func(*sched.Completion)

	// dst, set only while a batch of one drains, receives that
	// request's result; res is ServeTenant's buffer for it.
	dst *device.Result
	res device.Result

	// Aggregate accounting across tenants. feed carries every
	// completion's response time to its tenant's tails and the
	// aggregate's; the snapshots Sync it before reading them.
	served  int
	sumResp float64
	maxResp float64
	tails   *stats.Tails
	feed    *stats.Feed
}

// New builds a Manager over the given shard devices (striped arrays,
// composed stacks, or bare disks). All shards must share a sector
// size; with the default traxtent-aligned placement each shard must be
// a device.BoundaryProvider.
func New(shards []device.Device, opts ...Option) (*Manager, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("volume: no shards")
	}
	cfg := config{tier: tierFCFS, depth: 1, deadlineMs: 50}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.depth < 1 {
		return nil, fmt.Errorf("volume: tier depth %d", cfg.depth)
	}
	if cfg.extentSectors < 0 {
		return nil, fmt.Errorf("volume: extent size %d", cfg.extentSectors)
	}
	m := &Manager{
		cfg:        cfg,
		sectorSize: shards[0].SectorSize(),
		vols:       make(map[string]*Volume),
		tails:      stats.NewTails(),
		feed:       stats.NewFeed(),
	}
	for i, d := range shards {
		if d == nil {
			return nil, fmt.Errorf("volume: shard %d is nil", i)
		}
		if d.SectorSize() != m.sectorSize {
			return nil, fmt.Errorf("volume: shard %d sector size %d != %d", i, d.SectorSize(), m.sectorSize)
		}
		bounds, err := extentBounds(d, cfg.extentSectors)
		if err != nil {
			return nil, fmt.Errorf("volume: shard %d: %w", i, err)
		}
		sh := &shard{idx: i, dev: d, bounds: bounds}
		var s sched.Scheduler
		switch cfg.tier {
		case tierFair:
			s = &fairShare{sh: sh}
		case tierEDF:
			s = &edf{sh: sh}
		default:
			if s, err = sched.ByName(cfg.tier, d); err != nil {
				return nil, err
			}
		}
		if sh.tier, err = sched.New(d, sched.WithDepth(cfg.depth), sched.WithScheduler(s)); err != nil {
			return nil, err
		}
		m.shards = append(m.shards, sh)
	}
	m.rotation = device.CommonRotation(shards)
	m.foldFn = m.foldOne
	return m, nil
}

// extentBounds builds a shard's extent table: its own traxtent
// boundaries, or a fixed grid when extentSectors is non-zero.
func extentBounds(d device.Device, extentSectors int64) ([]int64, error) {
	if extentSectors == 0 {
		bp, ok := d.(device.BoundaryProvider)
		if !ok {
			return nil, fmt.Errorf("device %T exposes no track boundaries; use WithExtentSectors", d)
		}
		b := bp.TrackBoundaries()
		if len(b) < 2 {
			return nil, fmt.Errorf("device has no usable track boundaries")
		}
		return b, nil
	}
	n := d.Capacity() / extentSectors
	if n == 0 {
		return nil, fmt.Errorf("extent size %d exceeds capacity %d", extentSectors, d.Capacity())
	}
	bounds := make([]int64, n+1)
	for i := range bounds {
		bounds[i] = int64(i) * extentSectors
	}
	return bounds, nil
}

// Shards returns the number of shard devices.
func (m *Manager) Shards() int { return len(m.shards) }

// SectorSize returns the shards' common sector size.
func (m *Manager) SectorSize() int { return m.sectorSize }

// Now returns the completion time of the last finished request.
func (m *Manager) Now() float64 { return m.lastDone }

// Tenants returns the tenant names in creation order.
func (m *Manager) Tenants() []string {
	names := make([]string, len(m.order))
	for i, v := range m.order {
		names[i] = v.name
	}
	return names
}

// Volume returns a tenant's volume.
func (m *Manager) Volume(name string) (*Volume, error) {
	v, ok := m.vols[name]
	if !ok {
		return nil, fmt.Errorf("volume: unknown tenant %q", name)
	}
	return v, nil
}

// place returns the home shard for a tenant's i-th extent: an FNV-1a
// hash of the tenant name and the extent ordinal, so placement is a
// pure function of (name, i, shard count) — stable under churn.
func (m *Manager) place(name string, i int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for j := 0; j < len(name); j++ {
		h ^= uint64(name[j])
		h *= prime64
	}
	for b := 0; b < 8; b++ {
		h ^= uint64(i>>(8*b)) & 0xff
		h *= prime64
	}
	return int(h % uint64(len(m.shards)))
}

// AddVolume creates a tenant volume of at least sizeSectors, placing
// whole extents hash-first with deterministic probing to the next
// shard when the home shard is full. Volumes may be added mid-run; the
// allocation itself never moves the clock.
func (m *Manager) AddVolume(name string, sizeSectors int64, opts ...VolumeOption) (*Volume, error) {
	if name == "" {
		return nil, fmt.Errorf("volume: empty tenant name")
	}
	if _, ok := m.vols[name]; ok {
		return nil, fmt.Errorf("volume: tenant %q exists", name)
	}
	if sizeSectors <= 0 {
		return nil, fmt.Errorf("volume: size %d sectors", sizeSectors)
	}
	v := &Volume{
		m:          m,
		name:       name,
		weight:     1,
		deadline:   m.cfg.deadlineMs,
		bucketAt:   m.lastIssue,
		tails:      stats.NewTails(),
		lastFinish: make([]float64, len(m.shards)),
	}
	for _, o := range opts {
		o(v)
	}
	if v.weight <= 0 {
		return nil, fmt.Errorf("volume: tenant %q weight %g", name, v.weight)
	}
	for i := 0; v.capacity < sizeSectors; i++ {
		home := m.place(name, i)
		placed := false
		for probe := 0; probe < len(m.shards); probe++ {
			sh := m.shards[(home+probe)%len(m.shards)]
			ei, ok := sh.takeExtent()
			if !ok {
				continue
			}
			size := sh.bounds[ei+1] - sh.bounds[ei]
			v.exts = append(v.exts, Extent{Shard: sh.idx, Index: ei, LBN: sh.bounds[ei], Sectors: size})
			v.capacity += size
			placed = true
			break
		}
		if !placed {
			for _, e := range v.exts { // roll back
				m.shards[e.Shard].giveExtent(e.Index)
			}
			return nil, fmt.Errorf("volume: tenant %q: no free extents for %d sectors", name, sizeSectors)
		}
	}
	v.bounds = make([]int64, len(v.exts)+1)
	for i, e := range v.exts {
		v.bounds[i+1] = v.bounds[i] + e.Sectors
	}
	m.vols[name] = v
	m.order = append(m.order, v)
	return v, nil
}

// RemoveVolume deletes a tenant and returns its extents to the free
// pool (lowest-index-first reallocation keeps churn deterministic).
// It fails while the tenant has admitted requests outstanding.
func (m *Manager) RemoveVolume(name string) error {
	v, ok := m.vols[name]
	if !ok {
		return fmt.Errorf("volume: unknown tenant %q", name)
	}
	if v.unresolved > 0 {
		return fmt.Errorf("volume: tenant %q has %d requests in flight", name, v.unresolved)
	}
	for _, e := range v.exts {
		m.shards[e.Shard].giveExtent(e.Index)
	}
	delete(m.vols, name)
	for i, o := range m.order {
		if o == v {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	return nil
}

// split maps a volume request onto shard-contiguous spans, merging
// adjacent extents that happen to be contiguous on the same shard (the
// passthrough identity mapping always merges to one span). The
// returned slice is valid until the next split.
func (m *Manager) split(v *Volume, req device.Request) []span {
	spans := m.spanBuf[:0]
	lbn := req.LBN
	left := int64(req.Sectors)
	ei := sort.Search(len(v.bounds), func(i int) bool { return v.bounds[i] > lbn }) - 1
	for left > 0 {
		e := v.exts[ei]
		off := lbn - v.bounds[ei]
		n := e.Sectors - off
		if n > left {
			n = left
		}
		dev := e.LBN + off
		if k := len(spans) - 1; k >= 0 && spans[k].sh.idx == e.Shard && spans[k].lbn+int64(spans[k].sectors) == dev {
			spans[k].sectors += int(n)
		} else {
			spans = append(spans, span{sh: m.shards[e.Shard], lbn: dev, sectors: int(n)})
		}
		lbn += n
		left -= n
		ei++
	}
	m.spanBuf = spans
	return spans
}

// tag returns the sort key the tier scheduler reads for the submission
// just accepted on sh (0 on tiers that read none), advancing the
// tenant's SFQ finish tag from start, the start tag taken before the
// submission.
func (m *Manager) tag(sh *shard, v *Volume, start, release float64, sectors int) float64 {
	switch m.cfg.tier {
	case tierFair:
		v.lastFinish[sh.idx] = start + float64(sectors)/v.weight
		return start
	case tierEDF:
		return release + v.deadline
	}
	return 0
}

// Submit enqueues one tenant request issued at the given host time
// (non-decreasing across calls). The request is validated and admitted
// immediately — ErrRejected-wrapped errors leave all state untouched —
// then split into spans and handed to the shard tiers (or held until
// its shaped release). Completions accumulate internally; Drain
// resolves them.
func (m *Manager) Submit(name string, at float64, req device.Request) error {
	v, ok := m.vols[name]
	if !ok {
		return fmt.Errorf("volume: unknown tenant %q", name)
	}
	if err := device.CheckBounds(req.LBN, req.Sectors, v.capacity); err != nil {
		return err
	}
	if at < m.lastIssue {
		return fmt.Errorf("volume: issue time %g before previous %g", at, m.lastIssue)
	}
	if err := m.advanceTo(at); err != nil {
		return err
	}
	snap := v.admitSnap()
	release, err := v.admit(at, req.Sectors)
	if err != nil {
		return err
	}
	m.lastIssue = at
	v.unresolved++
	if release > at {
		heap.Push(&m.held, heldReq{release: release, order: m.heldOrder, vol: v, issue: at, req: req})
		m.heldOrder++
		return nil
	}
	if err := m.route(v, at, release, req); err != nil {
		// Mid-batch failure (a shard tier rejected a span — a fault
		// injector under the volume, say): route already released the
		// in-flight slot and marked the join failed; restoring the
		// pre-admit snapshot returns the tokens, so the failed request
		// leaves the buckets, counts, and quantile state exactly as a
		// clean ErrRejected would.
		v.restore(snap)
		return err
	}
	return nil
}

// route splits an admitted request and submits its spans to the shard
// tiers at the release instant, registering a join for reassembly.
//
// A span the tier rejects mid-batch cannot be unsubmitted from the
// spans before it, so route fails softly: the join is failed (earlier
// spans still fold into it, but it never accounts) and the tenant's
// in-flight count drops. A span is tagged and routed only once its
// tier accepts it, so a rejection leaves nothing to undo.
func (m *Manager) route(v *Volume, issue, release float64, req device.Request) error {
	ji := m.joins.Open(req, issue)
	m.owners = append(m.owners, v)
	for _, sp := range m.split(v, req) {
		sub := device.Request{LBN: sp.lbn, Sectors: sp.sectors, Write: req.Write, FUA: req.FUA}
		// The start tag reads the shard's virtual time before Submit,
		// which may dispatch earlier requests and advance it.
		start := math.Max(sp.sh.vtime, v.lastFinish[sp.sh.idx])
		seq, err := sp.sh.tier.Submit(release, sub)
		if err != nil {
			m.joins.Fail(ji)
			m.owners = m.owners[:m.joins.Len()]
			v.unresolved--
			return err
		}
		sp.sh.routes.Add(seq, route{slot: m.joins.Span(ji), key: m.tag(sp.sh, v, start, release, sp.sectors)})
	}
	m.joins.Seal(ji) // spans fold only in fold, so the join completes there
	return nil
}

// release routes every held request due by t, in release order (ties
// by arrival). Routing issues a request to the tiers at its release
// instant, so the manager's issue clock moves there too: a later
// Submit before that instant is rejected up front, not inside a tier
// mid-batch.
func (m *Manager) release(t float64) error {
	for len(m.held) > 0 && m.held[0].release <= t {
		h := heap.Pop(&m.held).(heldReq)
		m.lastIssue = max(m.lastIssue, h.release)
		if err := m.route(h.vol, h.issue, h.release, h.req); err != nil {
			return err
		}
	}
	return nil
}

// advanceTo releases every held request due by at, commits each
// tier's decisions before at, and folds the resulting completions. The
// tiers share no state, so committing them one after another in shard
// order is the same as any interleaving. Only a tier with requests
// pending is advanced: an idle tier whose synchronous (FCFS) dispatch
// failed keeps its sticky error for the Submits routed to it and for
// Drain, instead of failing traffic to healthy shards.
func (m *Manager) advanceTo(at float64) error {
	if err := m.release(at); err != nil {
		return err
	}
	for _, sh := range m.shards {
		if sh.tier.Pending() == 0 {
			continue
		}
		if err := sh.tier.AdvanceTo(at); err != nil {
			return err
		}
	}
	return m.fold()
}

// fold routes finished tier completions back to their joins, sweeping
// the shards in ascending order, and accounts every fully reassembled
// request. A completion no join owns is an accounting fault, not a
// silently misattributed request.
func (m *Manager) fold() error {
	for _, sh := range m.shards {
		m.foldCur = sh
		sh.tier.ConsumeCompleted(m.foldFn)
		if err := m.foldErr; err != nil {
			m.foldErr = nil
			return err
		}
	}
	return nil
}

// foldOne settles one tier completion (prebound as m.foldFn so the
// steady-state fold loop allocates nothing).
func (m *Manager) foldOne(c *sched.Completion) {
	if m.foldErr != nil {
		return
	}
	sh := m.foldCur
	rt, err := sh.routes.Take(c.Seq)
	if err != nil {
		m.foldErr = fmt.Errorf("volume: shard %d completion %d (%+v) %w", sh.idx, c.Seq, c.Res.Req, err)
		return
	}
	if ji, done := m.joins.Fold(rt.slot, &c.Res); done {
		m.owners[ji].unresolved--
		m.account(m.owners[ji], &m.joins.At(ji).Res)
	}
}

// account records one reassembled completion against its tenant and
// the aggregate.
func (m *Manager) account(v *Volume, res *device.Result) {
	if m.dst != nil {
		*m.dst = *res
	}
	resp := res.Response()
	v.served++
	v.sumResp += resp
	if resp > v.maxResp {
		v.maxResp = resp
	}
	m.feed.Add(v.tails, resp)
	if res.Done > v.lastDone {
		v.lastDone = res.Done
	}
	if v.limit != nil && v.limit.MaxInFlight > 0 {
		heapPush(&v.doneHeap, res.Done)
	}
	m.served++
	m.sumResp += resp
	if resp > m.maxResp {
		m.maxResp = resp
	}
	m.feed.Add(m.tails, resp)
	if res.Done > m.lastDone {
		m.lastDone = res.Done
	}
}

// Drain releases every held request, flushes every tier in shard
// order (a sticky tier error surfaces here), and folds all remaining
// completions into the accounting.
func (m *Manager) Drain() error {
	if err := m.release(math.Inf(1)); err != nil {
		return err
	}
	for _, sh := range m.shards {
		if err := sh.tier.Flush(); err != nil {
			return err
		}
	}
	if err := m.fold(); err != nil {
		return err
	}
	// Every join must have reassembled: a tier that dropped a span — a
	// child failure mid-drain, say — must surface as an error naming
	// the dropped request, not vanish from the accounting. Failed joins
	// are the exception: their missing spans were never submitted (the
	// rejection already surfaced to the submitter).
	if ji, err := m.joins.Missing(); err != nil {
		return fmt.Errorf("volume: tenant %q: %w", m.owners[ji].name, err)
	}
	m.joins.Reset()
	m.owners = m.owners[:0]
	for _, sh := range m.shards {
		sh.routes.Reset()
	}
	return nil
}

// ServeTenant serves one request as a batch of one — a barrier, like
// sched.Queue.Serve: any outstanding batch work is drained first, then
// the request is Submitted and Drained, and the result Drain just
// accounted is returned. Sequential consumers (and the per-tenant
// device view) use it; concurrent workloads should Submit and Drain.
// The steady-state path does not allocate.
func (m *Manager) ServeTenant(name string, at float64, req device.Request) (device.Result, error) {
	if err := m.serveInto(name, at, req, &m.res); err != nil {
		return device.Result{}, err
	}
	return m.res, nil
}

// serveInto is ServeTenant writing the result into *res: account
// writes it there as the request's join completes.
func (m *Manager) serveInto(name string, at float64, req device.Request, res *device.Result) error {
	if len(m.held) > 0 || m.joins.Len() > 0 {
		if err := m.Drain(); err != nil {
			return err
		}
	}
	if err := m.Submit(name, at, req); err != nil {
		return err
	}
	m.dst = res
	err := m.Drain()
	m.dst = nil
	return err
}

// VolumeStats is one tenant's accounting snapshot (or the cross-tenant
// aggregate, Tenant "*"). Quantiles are streaming P² estimates.
type VolumeStats struct {
	Tenant   string
	Capacity int64 // sectors
	Extents  int
	Requests int // completed
	Rejected int
	Deferred int
	InFlight int // admitted, not yet complete
	MeanMs   float64
	MaxMs    float64
	P50Ms    float64
	P99Ms    float64
	P9999Ms  float64
}

// snapshot builds the stats record for one volume, syncing the
// manager's quantile feed first.
func (v *Volume) snapshot() VolumeStats {
	v.m.feed.Sync()
	s := VolumeStats{
		Tenant:   v.name,
		Capacity: v.capacity,
		Extents:  len(v.exts),
		Requests: v.served,
		Rejected: v.rejected,
		Deferred: v.deferred,
		InFlight: v.unresolved,
		MaxMs:    v.maxResp,
		P50Ms:    v.tails.P50.Value(),
		P99Ms:    v.tails.P99.Value(),
		P9999Ms:  v.tails.P9999.Value(),
	}
	if v.served > 0 {
		s.MeanMs = v.sumResp / float64(v.served)
	}
	return s
}

// VolumeStats returns one tenant's accounting snapshot.
func (m *Manager) VolumeStats(name string) (VolumeStats, error) {
	v, ok := m.vols[name]
	if !ok {
		return VolumeStats{}, fmt.Errorf("volume: unknown tenant %q", name)
	}
	return v.snapshot(), nil
}

// Stats returns every tenant's snapshot in creation order.
func (m *Manager) Stats() []VolumeStats {
	out := make([]VolumeStats, len(m.order))
	for i, v := range m.order {
		out[i] = v.snapshot()
	}
	return out
}

// Aggregate returns the cross-tenant snapshot (Tenant "*"): the
// aggregate quantiles are streamed over every completion in service
// order, not an average of the per-tenant estimates.
func (m *Manager) Aggregate() VolumeStats {
	m.feed.Sync()
	s := VolumeStats{
		Tenant:   "*",
		Requests: m.served,
		MaxMs:    m.maxResp,
		P50Ms:    m.tails.P50.Value(),
		P99Ms:    m.tails.P99.Value(),
		P9999Ms:  m.tails.P9999.Value(),
	}
	for _, v := range m.order {
		s.Capacity += v.capacity
		s.Extents += len(v.exts)
		s.Rejected += v.rejected
		s.Deferred += v.deferred
		s.InFlight += v.unresolved
	}
	if m.served > 0 {
		s.MeanMs = m.sumResp / float64(m.served)
	}
	return s
}
