package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"fasttts/internal/core"
	"fasttts/internal/metrics"
)

// The fleet's run laws, beside core's per-request ones, which every
// device loop checks as it serves: finish checks each device's once, and
// the outcome's once, when the run ends.
const (
	lawBusy  = "busy time <= live time"
	lawPlane = "plane used <= capacity"
)

// busySlack absorbs float rounding in busy ≤ live: the two sum the same
// slices' times along different paths.
const busySlack = 1e-9

// checkDevice checks one device's telemetry laws: it never computed for
// longer than it was a fleet member, and its KV plane never holds more
// than it can.
func checkDevice(d *metrics.FleetDeviceStats) error {
	switch {
	case d.BusyTime > d.LiveSeconds+busySlack:
		return fmt.Errorf("cluster: law %q broken by device %d: busy %v s, live %v s",
			lawBusy, d.Device, d.BusyTime, d.LiveSeconds)
	case d.CacheUsedTokens > d.CacheCapacityTokens:
		return fmt.Errorf("cluster: law %q broken by device %d: %d tokens used, capacity %d",
			lawPlane, d.Device, d.CacheUsedTokens, d.CacheCapacityTokens)
	}
	return nil
}

// checkOutcomes checks the run's one-result law: every request ends in
// exactly one result. A surfaced hedge twin breaks it too, since its
// negative tag matches no request (newRun rejects negative tags under
// hedging). The stream's routing order and prompt ids are spent by now,
// so it reuses them: order, re-sorted by tag, gives each result's request
// position, and promptOf marks that request off.
//
// When the sorted tags are lo, lo+1, …, hi, a tag's position is its
// offset from lo; otherwise it is binary-searched. The offset is kept for
// cost: on a 100k-request stream (2-core AMD EPYC) the searches' scattered
// reads of the requests cost 5.7 ms against 0.3 ms, and searching
// alone took the fleet-dispatch benchmark's pass from .095 s to .104 s.
func (r *run) checkOutcomes() error {
	res := r.out.Results
	if len(res) != len(r.reqs) {
		return fmt.Errorf("cluster: law %q broken: %d results for %d requests",
			core.LawOneResult, len(res), len(r.reqs))
	}
	if len(res) == 0 {
		return nil
	}
	slices.SortFunc(r.order, func(a, b int32) int { return cmp.Compare(r.reqs[a].Tag, r.reqs[b].Tag) })
	lo, hi := r.reqs[r.order[0]].Tag, r.reqs[r.order[len(r.order)-1]].Tag
	dense := hi-lo == len(r.reqs)-1 // tags are distinct (newRun)
	for k := range res {
		tag := res[k].Tag
		at, ok := tag-lo, lo <= tag && tag <= hi
		if !dense {
			at, ok = slices.BinarySearchFunc(r.order, tag, func(i int32, t int) int { return cmp.Compare(r.reqs[i].Tag, t) })
		}
		switch {
		case !ok:
			return fmt.Errorf("cluster: law %q broken: result tag %d matches no request", core.LawOneResult, tag)
		case r.promptOf[at] < 0:
			return fmt.Errorf("cluster: law %q broken: request tag %d has a second result", core.LawOneResult, tag)
		}
		r.promptOf[at] = -1
	}
	return nil
}
