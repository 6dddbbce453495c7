package main

import (
	"path/filepath"
	"testing"

	"pinsql/internal/fleet"
	"pinsql/internal/sqltemplate"
	"pinsql/internal/workload"
)

// window builds a committed window with one anomaly per [start, end, top]
// triple (seconds, seconds, rank-1 R-SQL).
func window(w int, anomalies ...[3]any) *fleet.WindowReport {
	r := &fleet.WindowReport{Window: w, FromMs: int64(w) * 120_000, ToMs: int64(w+1) * 120_000}
	for _, a := range anomalies {
		ar := fleet.AnomalyReport{Rule: "r", StartSec: a[0].(int), EndSec: a[1].(int)}
		if top := a[2].(string); top != "" {
			ar.RSQLs = []fleet.RSQLReport{{ID: top}, {ID: "other"}}
		}
		r.Anomalies = append(r.Anomalies, ar)
	}
	return r
}

func truthAt(startSec, endSec int64, ids ...string) workload.Anomaly {
	a := workload.Anomaly{StartMs: startSec * 1000, EndMs: endSec * 1000}
	for _, id := range ids {
		a.RSQLs = append(a.RSQLs, sqltemplate.ID(id))
	}
	return a
}

func TestScoreTwoTenants(t *testing.T) {
	// Tenant a: window 1 is a hit (the overlapping anomaly names a true
	// R-SQL), window 3 is recalled but misses (the true R-SQL is ranked
	// by an anomaly outside the incident), window 0 carries no incident.
	a := []*fleet.WindowReport{
		window(0, [3]any{10, 20, "x"}),
		window(1, [3]any{125, 130, "noise"}, [3]any{160, 190, "spike"}),
		window(2),
		window(3, [3]any{400, 420, "lock"}, [3]any{370, 380, "victim"}),
	}
	aTruth := map[int]workload.Anomaly{
		1: truthAt(160, 190, "spike", "spike2"),
		3: truthAt(365, 395, "lock"),
	}
	// Tenant b: window 1 has no anomaly at all; window 2 was shed (no
	// diagnosis); window 5 is beyond what was committed.
	b := []*fleet.WindowReport{window(0), window(1), {Window: 2, Shed: true}}
	bTruth := map[int]workload.Anomaly{
		1: truthAt(150, 180, "mdl"),
		2: truthAt(270, 300, "spike"),
		5: truthAt(650, 680, "spike"),
	}

	var acc accuracy
	acc.add(score(a, aTruth, 0))
	acc.add(score(b, bTruth, 0))
	if acc != (accuracy{Injected: 4, Hits: 1, Recalled: 2}) {
		t.Fatalf("accuracy %+v, want 4 injected, 1 hit, 2 recalled", acc)
	}
	if acc.hitAt1() != 0.25 || acc.recall() != 0.5 {
		t.Errorf("hit@1 %v recall %v", acc.hitAt1(), acc.recall())
	}
	// Windows before `from` (the ones a resumed run did not commit) are
	// not scored.
	if got := score(a, aTruth, 2); got != (accuracy{Injected: 1, Recalled: 1}) {
		t.Errorf("from window 2: %+v", got)
	}
}

// tinyPlans is a 2-tenant DefaultFleet short enough for a unit test: two
// 60-second windows, the second carrying an incident.
func tinyPlans(seed int64) []tenantPlan {
	return plansOfFleet(fleet.DefaultFleet(2, seed, 2, 60))
}

func TestScoreGeneratedFleet(t *testing.T) {
	traces, gen, err := generateAll(tinyPlans(7))
	if err != nil {
		t.Fatal(err)
	}
	if gen.Records == 0 || gen.ResidentBytes == 0 {
		t.Fatalf("generator stats %+v", gen)
	}
	r, err := runRound(traces, roundConfig{wd: workloadDef{shards: 1, workers: 2}, windows: 2, start: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.committed != 4 || r.attempted != 4 || len(r.lagsMs) != 4 {
		t.Fatalf("committed %d of %d, %d lags", r.committed, r.attempted, len(r.lagsMs))
	}
	acc := scoreRound(traces, r, 0)
	if acc.Injected != 2 {
		t.Fatalf("%d injected windows scored, want one per tenant", acc.Injected)
	}
	for _, tr := range traces {
		gt, ok := tr.truth[1]
		if !ok || len(gt.RSQLs) == 0 || gt.StartMs < 60_000 || gt.EndMs > 120_000 {
			t.Errorf("tenant %s: ground truth of window 1 = %+v", tr.id, gt)
		}
	}
}

// TestReferenceMatchesFleet is the traced run's proof obligation on a small
// fleet: the reference loop, traced or not, reproduces the fleet's report
// byte for byte, in memory and on a resumed durable layout.
func TestReferenceMatchesFleet(t *testing.T) {
	traces, _, err := generateAll(tinyPlans(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, wd := range []workloadDef{
		{name: "memory", shards: 1, workers: 2},
		{name: "durable", shards: 2, workers: 2, durable: true},
	} {
		t.Run(wd.name, func(t *testing.T) {
			dir := t.TempDir()
			data := ""
			if wd.durable {
				data = filepath.Join(dir, "fleet")
				if err := prepareDurable(wd, traces, data); err != nil {
					t.Fatal(err)
				}
			}
			r, err := runRound(traces, roundConfig{wd: wd, dataDir: data, windows: 2, from: firstTimedWindow(wd), start: true})
			if err != nil {
				t.Fatal(err)
			}
			refDir := func(name string) string {
				if !wd.durable {
					return ""
				}
				return filepath.Join(dir, name)
			}
			plain, err := runReference(wd, traces, refDir("plain"), nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := runReference(wd, traces, refDir("traced"), tr)
			if err != nil {
				t.Fatal(err)
			}
			if plain.report != r.report || traced.report != r.report {
				t.Fatalf("reports differ\nfleet:\n%s\nreference:\n%s\ntraced:\n%s", r.report, plain.report, traced.report)
			}
			if len(tr.spans) == 0 || counts(tr.spans)["collect.publish"] != traced.records {
				t.Errorf("%d spans, %d records published, %d collected", len(tr.spans), counts(tr.spans)["collect.publish"], traced.records)
			}
		})
	}
}
