package main

import (
	"math/rand"

	"traxtents"
)

// Input synthesis. Everything here is the benchmark's own cost: it runs
// before set-up is timed, and the program receives only what it makes.

// playerCapture synthesizes the replay-player capture: a locality-heavy
// LBN walk with power-of-two sizes, 25% writes, recorded services of
// 2-10 ms and Poisson arrivals slow enough (mean gap gapMs) that the
// recorded device stays below saturation, so replaying it measures the
// program and not a growing backlog.
func playerCapture(seed int64, n int, gapMs float64) traxtents.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := traxtents.Trace{
		Name:       "replay-player",
		Capacity:   17938986,
		SectorSize: 512,
		Records:    make([]traxtents.TraceRecord, n),
	}
	lbn := int64(9000)
	at := 0.0
	for i := range tr.Records {
		lbn += int64(rng.Intn(4096) - 2048)
		lbn = max(0, min(lbn, tr.Capacity-256))
		at += rng.ExpFloat64() * gapMs
		tr.Records[i] = traxtents.TraceRecord{
			LBN:     lbn,
			Sectors: 8 << uint(rng.Intn(4)),
			Write:   rng.Intn(4) == 0,
			Issue:   at,
			Service: 2 + rng.Float64()*8,
		}
	}
	return tr
}

// arrayShape is the replay-array request population: a hot set the
// host cache can hold beside uniform traffic over the whole array.
type arrayShape struct {
	capacity   int64   // array sectors
	hotSectors int64   // hot-set size
	hotFrac    float64 // share of requests in the hot set
	writeFrac  float64
	ratePerSec float64 // offered Poisson rate
}

// arrayCapture synthesizes n replay-array records starting at arrival
// time 0. Services are not recorded: the capture is replayed against
// simulated disks, which compute their own.
func arrayCapture(rng *rand.Rand, sh arrayShape, n int) traxtents.Trace {
	tr := traxtents.Trace{
		Name:       "replay-array",
		Capacity:   sh.capacity,
		SectorSize: 512,
		Records:    make([]traxtents.TraceRecord, n),
	}
	gapMs := 1000 / sh.ratePerSec
	at := 0.0
	for i := range tr.Records {
		sectors := 8 << uint(rng.Intn(5)) // 8..128
		span := sh.capacity
		if rng.Float64() < sh.hotFrac {
			span = sh.hotSectors
		}
		lbn := rng.Int63n(span-int64(sectors)) &^ 7
		tr.Records[i] = traxtents.TraceRecord{
			LBN:     lbn,
			Sectors: sectors,
			Write:   rng.Float64() < sh.writeFrac,
			Issue:   at,
		}
		at += rng.ExpFloat64() * gapMs
	}
	return tr
}

// tenantReq is one generated tenant request; LBN is volume-relative.
type tenantReq struct {
	at      float64 // arrival offset from the stream's start, ms
	tenant  uint16
	lbn     int64
	sectors int32
	write   bool
}

// tenantShape is the tenants-flash request population.
type tenantShape struct {
	tenants       int
	volumeSectors int64
	writeFrac     float64
	ratePerSec    float64
}

// tenantStream synthesizes n requests: a uniformly chosen tenant, a
// page-aligned 8-64 sector extent inside its volume, writes (which are
// all overwrites after the prefill) with probability writeFrac, and
// Poisson arrivals.
func tenantStream(rng *rand.Rand, sh tenantShape, n int) []tenantReq {
	out := make([]tenantReq, n)
	gapMs := 1000 / sh.ratePerSec
	at := 0.0
	for i := range out {
		sectors := int64(8 * (1 + rng.Intn(8)))
		out[i] = tenantReq{
			at:      at,
			tenant:  uint16(rng.Intn(sh.tenants)),
			lbn:     rng.Int63n((sh.volumeSectors-sectors)/8+1) * 8,
			sectors: int32(sectors),
			write:   rng.Float64() < sh.writeFrac,
		}
		at += rng.ExpFloat64() * gapMs
	}
	return out
}
