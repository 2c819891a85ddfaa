package sim

import "traxtents/internal/disk/mech"

func availChunk(n int, at, per float64) mech.AvailChunk {
	return mech.AvailChunk{Sectors: n, At: at, Per: per}
}

// OneReq runs the paper's onereq pattern: each request is issued only
// when the previous one has completed, so the head idles during bus
// transfers.
func (d *Disk) OneReq(reqs []Request) ([]Result, error) {
	out := make([]Result, 0, len(reqs))
	issue := d.lastDone
	for _, r := range reqs {
		res, err := d.Serve(issue, r)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
		issue = res.Done
	}
	return out, nil
}

// TwoReq runs the paper's tworeq pattern: one request is always queued
// at the disk in addition to the one in service, so the next seek
// overlaps the current bus transfer.
func (d *Disk) TwoReq(reqs []Request) ([]Result, error) {
	out := make([]Result, 0, len(reqs))
	issue := d.lastDone
	for i, r := range reqs {
		res, err := d.Serve(issue, r)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
		// The host replenishes the queue when a completion arrives: the
		// (i+2)-nd command is issued at the i-th completion.
		if i == 0 {
			// Second command issued immediately alongside the first.
			continue
		}
		issue = out[i-1].Done
	}
	return out, nil
}

// HeadTimesOneReq extracts the per-request head time of a onereq run:
// completion minus issue (Figure 5, top).
func HeadTimesOneReq(rs []Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Done - r.Issue
	}
	return out
}

// HeadTimesTwoReq extracts the per-request head time of a tworeq run:
// the spacing of consecutive completions (Figure 5, bottom). The first
// request has no predecessor and is skipped.
func HeadTimesTwoReq(rs []Result) []float64 {
	if len(rs) < 2 {
		return nil
	}
	out := make([]float64, 0, len(rs)-1)
	for i := 1; i < len(rs); i++ {
		out = append(out, rs[i].Done-rs[i-1].Done)
	}
	return out
}

// Responses extracts host-observed response times.
func Responses(rs []Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Response()
	}
	return out
}
