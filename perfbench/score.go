package main

import (
	"pinsql/internal/fleet"
	"pinsql/internal/workload"
)

// accuracy is the ground-truth score of a set of committed windows.
type accuracy struct {
	Injected int // committed windows that carried an injected incident
	Hits     int // ... whose incident's top reported R-SQL is a true R-SQL
	Recalled int // ... with at least one reported anomaly
}

func (a accuracy) hitAt1() float64 { return ratio(a.Hits, a.Injected) }
func (a accuracy) recall() float64 { return ratio(a.Recalled, a.Injected) }
func (a *accuracy) add(b accuracy) {
	a.Injected += b.Injected
	a.Hits += b.Hits
	a.Recalled += b.Recalled
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// score compares one tenant's committed windows from window `from` on with
// the incidents injected into them. A window's incident is matched to the
// reported anomaly that overlaps the injected interval the longest (the
// earliest on ties); it is a hit when that anomaly's rank-1 R-SQL is one
// of the incident's ground-truth R-SQLs. Shed windows carry no diagnosis
// and count as misses.
func score(reps []*fleet.WindowReport, truth map[int]workload.Anomaly, from int) accuracy {
	var a accuracy
	for _, r := range reps {
		gt, ok := truth[r.Window]
		if !ok || r.Window < from {
			continue
		}
		a.Injected++
		if len(r.Anomalies) > 0 {
			a.Recalled++
		}
		best, bestOverlap := -1, int64(0)
		for i, an := range r.Anomalies {
			lo := max(int64(an.StartSec)*1000, gt.StartMs)
			hi := min(int64(an.EndSec)*1000, gt.EndMs)
			if hi-lo > bestOverlap {
				best, bestOverlap = i, hi-lo
			}
		}
		if best < 0 || len(r.Anomalies[best].RSQLs) == 0 {
			continue
		}
		top := r.Anomalies[best].RSQLs[0].ID
		for _, id := range gt.RSQLs {
			if string(id) == top {
				a.Hits++
				break
			}
		}
	}
	return a
}
