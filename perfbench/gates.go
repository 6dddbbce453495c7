package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"

	"pinsql/internal/fleet"
)

// gates collects the correctness checks of one run.
type gates struct{ failed []string }

// check records a gate; a failing gate is reported on standard error.
func (g *gates) check(name string, ok bool, format string, args ...any) {
	status := "ok"
	if !ok {
		status = "FAILED"
		g.failed = append(g.failed, name)
	}
	logf("gate %-12s %s: %s", name, status, fmt.Sprintf(format, args...))
}

// fingerprint is a short digest of a fleet report.
func fingerprint(report string) string {
	h := fnv.New64a()
	h.Write([]byte(report))
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkFingerprint compares the report with the one an earlier run of the
// same workload, seed and binary left behind, and leaves it for the next.
func checkFingerprint(g *gates, path, report string) {
	fp := fingerprint(report)
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		g.check("fingerprint", strings.TrimSpace(string(prev)) == fp, "report %s, earlier run of this seed %s", fp, strings.TrimSpace(string(prev)))
	case os.IsNotExist(err):
		werr := os.MkdirAll(filepath.Dir(path), 0o755)
		if werr == nil {
			werr = os.WriteFile(path, []byte(fp+"\n"), 0o644)
		}
		g.check("fingerprint", werr == nil, "report %s, first run of this seed (recorded: %v)", fp, werr == nil)
	default:
		g.check("fingerprint", false, "read %s: %v", path, err)
	}
}

// Second-seed scoring: a small DefaultFleet generated from seed+1 must
// score above these floors, so the scorer is shown to work on data the
// headline numbers did not come from. The floors sit far below what the
// fleet reaches (two tenants over eight windows scored hit@1 ≥ 5/8 and
// recall 1 on each of seeds 1–24) and above what a scorer that matches
// nothing would give.
const (
	secondSeedTenants = 2
	secondSeedWindows = 4 // two of them carry an incident
	minHitAt1         = 0.25
	minRecall         = 0.5
)

// scoreSecondSeed generates and replays the second-seed fleet and checks
// that every injected window was scored and the floors hold.
func scoreSecondSeed(g *gates, seed int64) error {
	plans := plansOfFleet(fleet.DefaultFleet(secondSeedTenants, seed+1, secondSeedWindows, windowSec))
	traces, _, err := generateAll(plans)
	if err != nil {
		return fmt.Errorf("second seed: %w", err)
	}
	wd := workloadDef{name: "second-seed", shards: 1, workers: 2}
	r, err := runRound(traces, roundConfig{wd: wd, windows: secondSeedWindows, start: true})
	if err != nil {
		return fmt.Errorf("second seed: %w", err)
	}
	acc := scoreRound(traces, r, 0)
	injected := 0
	for _, tr := range traces {
		injected += len(tr.truth)
	}
	g.check("second-seed", acc.Injected == injected && acc.hitAt1() >= minHitAt1 && acc.recall() >= minRecall,
		"seed %d: %d/%d injected windows scored, hit@1 %.3f (floor %.2f), recall %.3f (floor %.2f)",
		seed+1, acc.Injected, injected, acc.hitAt1(), minHitAt1, acc.recall(), minRecall)
	return nil
}

// fingerprintPath keys a report fingerprint by workload, seed and the
// benchmark binary, so only runs of the same code are compared.
func fingerprintPath(dir, workload string, seed int64, buildID string) string {
	return filepath.Join(dir, "fingerprints", fmt.Sprintf("%s-seed%d-%s.txt", workload, seed, buildID))
}
