package volume

import (
	"fmt"

	"traxtents/internal/device"
)

// View presents one tenant's volume as a device.Device, so everything
// that drives a device — the conformance suite, the workload drivers,
// the file-system studies — runs unchanged against a volume. Serve is
// ServeTenant: a batch of one through the manager's Submit and Drain,
// so it drains any outstanding batch first. A view over a limited
// tenant surfaces admission rejections as Serve errors, so conformance
// runs should use an unlimited tenant.
type View struct {
	m *Manager
	v *Volume
}

var (
	_ device.Device           = (*View)(nil)
	_ device.InPlace          = (*View)(nil)
	_ device.Rotational       = (*View)(nil)
	_ device.BoundaryProvider = (*View)(nil)
	_ device.Named            = (*View)(nil)
)

// View returns a device view of a tenant's volume.
func (m *Manager) View(name string) (*View, error) {
	v, ok := m.vols[name]
	if !ok {
		return nil, fmt.Errorf("volume: unknown tenant %q", name)
	}
	return &View{m: m, v: v}, nil
}

// Serve services one request against the volume's LBN space.
func (w *View) Serve(at float64, req device.Request) (device.Result, error) {
	return w.m.ServeTenant(w.v.name, at, req)
}

// ServeInto is Serve writing the result into *res (device.InPlace).
func (w *View) ServeInto(at float64, req device.Request, res *device.Result) error {
	return w.m.serveInto(w.v.name, at, req, res)
}

// Now returns the completion time of the tenant's last finished
// request.
func (w *View) Now() float64 { return w.v.lastDone }

// Capacity returns the volume's addressable LBNs.
func (w *View) Capacity() int64 { return w.v.capacity }

// SectorSize returns the shards' sector size.
func (w *View) SectorSize() int { return w.m.sectorSize }

// RotationPeriod returns the shards' common rotation period, or 0 when
// they differ or have none.
func (w *View) RotationPeriod() float64 { return w.m.rotation }

// TrackBoundaries returns the volume's extent boundaries — the
// volume-level traxtents: with aligned placement every extent is a
// whole shard track, so aligning to these boundaries aligns to the
// physical ones.
func (w *View) TrackBoundaries() []int64 { return append([]int64(nil), w.v.bounds...) }

// Name identifies the tenant and the manager configuration.
func (w *View) Name() string {
	return fmt.Sprintf("volume[%s]@%s[x%d,d%d]", w.v.name, w.m.cfg.tier, len(w.m.shards), w.m.cfg.depth)
}
