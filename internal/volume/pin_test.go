package volume_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"traxtents/internal/device"
	"traxtents/internal/device/devtest"
	"traxtents/internal/volume"
)

// TestServeTenantPin pins every Result and the final per-tenant and
// aggregate accounting of a seeded 2000-request ServeTenant stream
// over three shards, per tier at depth 4. Requests reach up to 256
// sectors, so many span several extents, some of them on the same
// shard but not contiguous there. ServeTenant is a batch of one: a
// per-spindle tier (sstf, clook, traxtent) may dispatch one request's
// spans on a shard out of span order, while fcfs, fair, and edf keep
// span order (equal deadlines, rising fair-share tags).
func TestServeTenantPin(t *testing.T) {
	pins := []struct{ tier, digest string }{
		{"fcfs", "a64096333b82c98c"},
		{"fair", "3144dd5cb6df6ca3"},
		{"edf", "3144dd5cb6df6ca3"},
		{"sstf", "ce81fb66c9a4b928"},
		{"clook", "3144dd5cb6df6ca3"},
		{"traxtent", "3144dd5cb6df6ca3"},
	}
	for _, p := range pins {
		t.Run(p.tier, func(t *testing.T) {
			m := newManager(t, 3, volume.WithTier(p.tier), volume.WithTierDepth(4))
			names := []string{"a", "b", "c", "d"}
			for i, name := range names {
				addVol(t, m, name, int64(20000*(i+1)), volume.WithWeight(float64(i+1)), volume.WithDeadline(float64(10*(i+1))))
			}
			rng := rand.New(rand.NewSource(41))
			h := fnv.New64a()
			at := 0.0
			for i := 0; i < 2000; i++ {
				name := names[rng.Intn(len(names))]
				v, err := m.Volume(name)
				if err != nil {
					t.Fatalf("Volume: %v", err)
				}
				sectors := 1 + rng.Intn(256)
				req := device.Request{
					LBN:     rng.Int63n(v.Capacity() - int64(sectors)),
					Sectors: sectors,
					Write:   rng.Intn(4) == 0,
					FUA:     rng.Intn(16) == 0,
				}
				res, err := m.ServeTenant(name, at, req)
				if err != nil {
					t.Fatalf("ServeTenant %d (%s, %+v): %v", i, name, req, err)
				}
				devtest.WriteResult(h, res)
				at += rng.Float64() * 6
			}
			fmt.Fprintf(h, "%+v\n%+v\n", m.Stats(), m.Aggregate())
			if got := fmt.Sprintf("%016x", h.Sum64()); got != p.digest {
				t.Errorf("digest %s, pinned %s", got, p.digest)
			}
		})
	}
}
