package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupSamples is how many times a run opens the fleet, timed rounds
// included, so that setup_s is a median rather than one reading.
const setupSamples = 9

// runOutput is what a run reports besides its gates.
type runOutput struct {
	res    result
	notes  []string // human-readable lines printed before the metrics
	report string   // the fleet report, the fingerprint gate's artifact
}

// firstTimedWindow is the first window a timed round commits.
func firstTimedWindow(wd workloadDef) int {
	if wd.durable {
		return 1
	}
	return 0
}

// prepareDurable commits window 0 of every tenant into dir and closes the
// fleet cleanly: the starting state every timed round copies.
func prepareDurable(wd workloadDef, traces []*tenantTrace, dir string) error {
	_, err := runRound(traces, roundConfig{wd: wd, dataDir: dir, windows: 1, start: true})
	return err
}

// roundDir returns the data directory for one fleet open: dir, made a copy
// of the prepared one, for a durable workload; "" otherwise.
func roundDir(wd workloadDef, prepared, dir string) (string, error) {
	if !wd.durable {
		return "", nil
	}
	return dir, copyDir(prepared, dir)
}

// untracedRun measures the end-to-end metrics: repeated fleet rounds until
// the timed part has run for `seconds`. Each round replays one trace set;
// rounds take the sets in turn.
func untracedRun(wd workloadDef, sets [][]*tenantTrace, work string, seconds int, g *gates) (*runOutput, error) {
	from := firstTimedWindow(wd)
	windows := sets[0][0].windows
	prepared := make([]string, len(sets))
	uninterrupted := make([]string, len(sets))
	for k, traces := range sets {
		if !wd.durable {
			break
		}
		prepared[k] = filepath.Join(work, fmt.Sprintf("prepared-%d", k))
		if err := prepareDurable(wd, traces, prepared[k]); err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
		// The uninterrupted reference runs in memory: the report does not
		// depend on the store, so this also holds the durable path to the
		// in-memory one.
		r, err := runRound(traces, roundConfig{wd: wd, windows: windows, start: true})
		if err != nil {
			return nil, fmt.Errorf("uninterrupted run: %w", err)
		}
		uninterrupted[k] = r.report
		logf("prepared window 0 and ran the uninterrupted reference")
	}

	// Set-up samples reopen one copy of the prepared directory: a fleet
	// opened and closed without running leaves the same committed state.
	var setups []float64
	for k, traces := range sets {
		dir, err := roundDir(wd, prepared[k], filepath.Join(work, fmt.Sprintf("setup-%d", k)))
		if err != nil {
			return nil, err
		}
		for i := k; i < setupSamples-2; i += len(sets) {
			r, err := runRound(traces, roundConfig{wd: wd, dataDir: dir, windows: windows, from: from})
			if err != nil {
				return nil, fmt.Errorf("setup sample: %w", err)
			}
			setups = append(setups, r.setup.Seconds())
		}
		os.RemoveAll(dir)
	}
	logf("took %d set-up samples", len(setups))

	var (
		rounds             []*roundResult
		lags               []float64
		wall, cpu          time.Duration
		attempted, commits int
	)
	// Rounds run whole, and every set gets as many. Past the second round,
	// another starts only if it would end nearer the deadline than stopping
	// now does, and until the lag median rests on enough samples.
	begin := time.Now()
	budget := time.Duration(seconds) * time.Second
	for i := 0; len(rounds) < 2 || len(rounds)%len(sets) != 0 || len(lags) < 2*minBeyond || time.Since(begin)+wall/time.Duration(2*len(rounds)) < budget; i++ {
		k := i % len(sets)
		dir, err := roundDir(wd, prepared[k], filepath.Join(work, fmt.Sprintf("round-%d", i)))
		if err != nil {
			return nil, err
		}
		r, err := runRound(sets[k], roundConfig{wd: wd, dataDir: dir, windows: windows, from: from, start: true})
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		os.RemoveAll(dir)
		rounds = append(rounds, r)
		setups = append(setups, r.setup.Seconds())
		lags = append(lags, r.lagsMs...)
		wall += r.wall
		cpu += r.cpu
		attempted += r.attempted
		commits += r.committed
		logf("round %d (set %d): %d/%d windows in %.3fs, setup %.4fs, heap peak %.1f MB", i, k, r.committed, r.attempted, r.wall.Seconds(), r.setup.Seconds(), float64(r.heapPeak)/(1<<20))
	}

	same := 0
	var acc accuracy
	for i, r := range rounds {
		first := rounds[i%len(sets)]
		if r.report == first.report {
			same++
		}
		if i < len(sets) {
			acc.add(scoreRound(sets[i], r, from))
			if wd.durable {
				g.check("resume", r.report == uninterrupted[i], "set %d: resumed report %s, uninterrupted %s", i, fingerprint(r.report), fingerprint(uninterrupted[i]))
			}
		}
	}
	g.check("repeat", same == len(rounds), "%d of %d rounds produced their set's first report", same, len(rounds))

	p50, err := percentile(lags, 0.5)
	if err != nil {
		return nil, fmt.Errorf("commit lag: %w", err)
	}
	heaps := make([]float64, len(rounds))
	for i, r := range rounds {
		heaps[i] = float64(r.heapPeak) / (1 << 20)
	}
	out := &runOutput{report: rounds[0].report}
	out.res = result{
		Attempted: attempted,
		Failed:    attempted - commits,
		Metrics: map[string]metric{
			"windows_per_s":     {float64(commits) / wall.Seconds(), "1/s"},
			"commit_lag_p50_ms": {p50, "ms"},
			"cpu_ms_per_window": {float64(cpu) / float64(time.Millisecond) / float64(max(commits, 1)), "ms"},
			"heap_peak_mb":      {median(heaps), "MB"},
			"setup_s":           {median(setups), "s"},
			"rsql_hit_at_1":     {acc.hitAt1(), "ratio"},
			"anomaly_recall":    {acc.recall(), "ratio"},
		},
	}
	out.notes = append(out.notes,
		fmt.Sprintf("run rounds=%d windows=%d wall_s=%.3f setup_samples=%d lag_samples=%d injected_windows=%d", len(rounds), commits, wall.Seconds(), len(setups), len(lags), acc.Injected))
	if p90, err := percentile(lags, 0.9); err == nil {
		out.notes = append(out.notes, fmt.Sprintf("extra commit_lag_p90_ms %.6g ms (n=%d)", p90, len(lags)))
	} else {
		out.notes = append(out.notes, fmt.Sprintf("extra commit_lag_p90_ms not reported: %v", err))
	}
	return out, nil
}

// scoreRound scores a round's committed windows against the ground truth.
func scoreRound(traces []*tenantTrace, r *roundResult, from int) accuracy {
	var acc accuracy
	for _, tr := range traces {
		acc.add(score(r.reports[tr.id], tr.truth, from))
	}
	return acc
}

// tracedRun is the traced run: one fleet round for the fleet's own layer
// readings, then an untraced and a traced reference pass over the same
// traces. Its metrics are the per-layer ones.
func tracedRun(wd workloadDef, traces []*tenantTrace, work, dir string, seed int64, g *gates) (*runOutput, error) {
	from := firstTimedWindow(wd)
	windows := traces[0].windows
	prepared := filepath.Join(work, "prepared")
	if wd.durable {
		if err := prepareDurable(wd, traces, prepared); err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
	}
	fdir, err := roundDir(wd, prepared, filepath.Join(work, "round"))
	if err != nil {
		return nil, err
	}
	r, err := runRound(traces, roundConfig{wd: wd, dataDir: fdir, windows: windows, from: from, start: true})
	if err != nil {
		return nil, fmt.Errorf("fleet round: %w", err)
	}

	refDir := func(name string) string {
		if !wd.durable {
			return ""
		}
		return filepath.Join(work, name)
	}
	logf("fleet round: %d/%d windows in %.3fs", r.committed, r.attempted, r.wall.Seconds())
	plain, err := runReference(wd, traces, refDir("ref-plain"), nil)
	if err != nil {
		return nil, err
	}
	logf("untraced reference pass in %.3fs", plain.wall.Seconds())
	t := newTracer()
	ref, err := runReference(wd, traces, refDir("ref-traced"), t)
	if err != nil {
		return nil, err
	}
	logf("traced reference pass in %.3fs, %d spans", ref.wall.Seconds(), len(t.spans))
	g.check("reference", ref.report == r.report && plain.report == r.report,
		"fleet %s, traced reference %s, untraced reference %s", fingerprint(r.report), fingerprint(ref.report), fingerprint(plain.report))

	spanDir := filepath.Join(dir, "spans")
	spanPath := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", wd.name, seed))
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(spanPath, t.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	self := selfTimes(t.spans)
	n := counts(t.spans)
	sec := func(name string) metric { return metric{self[name].Seconds(), "s"} }
	stage := func(name string) metric { return metric{r.stages[name].sum, "s"} }
	workerTime := float64(wd.workers) * r.wall.Seconds()
	busy := 0.0
	for _, s := range r.stages {
		busy += s.sum
	}
	drain := r.stages["detect"].sum + r.stages["diagnose"].sum + r.stages["commit"].sum
	queueWait := mean(r.lagsMs) - 1000*drain/float64(max(r.stages["commit"].count, 1))
	m := map[string]metric{
		"ingest.next_s":       {float64(r.src.nextNs) / 1e9, "s"},
		"ingest.blocked_frac": {float64(r.src.blockedNs) / 1e9 / workerTime, "ratio"},
		"ingest.behind_ms":    {float64(r.src.lateNs) / 1e6 / float64(max(r.src.pulls, 1)), "ms"},

		"collect.publish_s":        sec("collect.publish"),
		"collect.aggregate_s":      sec("collect.aggregate"),
		"collect.frame_s":          sec("collect.frame"),
		"collect.intern_hit_ratio": {1 - float64(ref.newTemplates)/float64(max(ref.records, 1)), "ratio"},

		"anomaly.detect_s":         sec("anomaly.detect"),
		"anomaly.phenomena":        {float64(n["anomaly.detect"]), "count"},
		"core.diagnose_s":          sec("core.diagnose"),
		"core.estimate_s":          {ref.stages.EstimateSession.Seconds(), "s"},
		"core.rank_s":              {ref.stages.RankHSQL.Seconds(), "s"},
		"core.cluster_s":           {ref.stages.ClusterFilter.Seconds(), "s"},
		"core.verify_s":            {ref.stages.VerifyRank.Seconds(), "s"},
		"repair.suggest_s":         sec("repair.suggest"),
		"repair.execute_s":         sec("repair.execute"),
		"logstore.append_s":        sec("logstore.append"),
		"logstore.expire_s":        sec("logstore.expire"),
		"segment.seal_s":           sec("segment.seal"),
		"segment.open_s":           sec("segment.open"),
		"segment.bytes_per_record": {float64(ref.segmentBytes) / float64(max(ref.records, 1)), "B"},

		"fleet.stage_collect_s":           stage("collect"),
		"fleet.stage_detect_s":            stage("detect"),
		"fleet.stage_diagnose_s":          stage("diagnose"),
		"fleet.stage_commit_s":            stage("commit"),
		"fleet.queue_wait_ms":             {queueWait, "ms"},
		"fleet.worker_util":               {busy / workerTime, "ratio"},
		"fleet.peak_queue":                {float64(r.peakQueue), "count"},
		"fleet.shed":                      {float64(r.shed), "count"},
		"fleet.journal_windows_per_batch": {float64(r.journalWin) / float64(max(r.journalBatch, 1)), "count"},
		"shard.window_skew":               {float64(r.skew), "count"},
		"trace.overhead_ratio":            {ref.wall.Seconds() / plain.wall.Seconds(), "ratio"},
	}
	out := &runOutput{report: r.report}
	out.res = result{Attempted: r.attempted, Failed: r.attempted - r.committed, Metrics: m}
	out.notes = append(out.notes,
		fmt.Sprintf("trace spans=%d file=%s reference_wall_s=%.3f traced_wall_s=%.3f fleet_wall_s=%.3f", len(t.spans), spanPath, plain.wall.Seconds(), ref.wall.Seconds(), r.wall.Seconds()))
	out.notes = append(out.notes, splitNotes(self, r.stages)...)
	return out, nil
}

// splitNotes renders the busy-time split two ways: the traced reference
// pass's self time per layer, and the fleet's own stage summaries.
func splitNotes(self map[string]time.Duration, stages map[string]stageSum) []string {
	layers := map[string]time.Duration{}
	var total time.Duration
	for name, d := range self {
		layers[layerOf(name)] += d
		total += d
	}
	var out []string
	names := sortedKeys(layers)
	sort.SliceStable(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
	for _, l := range names {
		out = append(out, fmt.Sprintf("split reference %-9s %6.1f%% %9.4fs", l, 100*layers[l].Seconds()/total.Seconds(), layers[l].Seconds()))
	}
	var busy float64
	for _, s := range stages {
		busy += s.sum
	}
	for _, st := range []string{"collect", "detect", "diagnose", "commit"} {
		out = append(out, fmt.Sprintf("split fleet     %-9s %6.1f%% %9.4fs", st, 100*stages[st].sum/busy, stages[st].sum))
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
