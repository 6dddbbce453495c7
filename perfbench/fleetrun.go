package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pinsql/internal/fleet"
	"pinsql/internal/ingest"
	"pinsql/internal/shard"
)

// roundResult is one replay of a workload's traces through the fleet.
type roundResult struct {
	setup     time.Duration // inside shard.New: open plus recovery
	wall      time.Duration // Start to Wait: the timed part
	cpu       time.Duration // getrusage user+sys over the timed part
	heapPeak  uint64        // peak live heap over the timed part, above its start
	attempted int           // windows due in the timed part
	committed int           // of those, committed with a diagnosis
	lagsMs    []float64     // commit lag of every committed window
	report    string
	reports   map[string][]*fleet.WindowReport

	// Layer readings for the traced run.
	stages       map[string]stageSum // fleet stage summaries from /metrics
	peakQueue    int
	shed         int64
	journalBatch int64
	journalWin   int64
	skew         int // widest gap in committed windows between instances
	src          sourceStats
}

// stageSum is one pinsql_stage_duration_seconds summary, summed over shards.
type stageSum struct {
	count int64
	sum   float64
}

// roundConfig says how one fleet round runs.
type roundConfig struct {
	wd      workloadDef
	dataDir string // "" for in-memory
	windows int    // windows each tenant should have committed at the end
	from    int    // first window the round is expected to commit
	start   bool   // false: only open and close (a set-up sample)
}

// runRound opens the fleet over the traces, runs it to completion and
// closes it. Every window due in the round counts as attempted; one that is
// shed, left uncommitted or on an errored instance counts as failed.
func runRound(traces []*tenantTrace, rc roundConfig) (*roundResult, error) {
	var pace *pacer
	if rc.wd.pace > 0 {
		pace = &pacer{rate: rc.wd.pace}
	}
	srcs := make(map[string]*memSource, len(traces))
	var srcMu sync.Mutex
	specs := make([]fleet.InstanceSpec, 0, len(traces))
	for _, tr := range traces {
		spec := fleet.TraceSpec(tr.id, tr.windowSec, func() (ingest.Source, error) {
			s := newMemSource(tr, wallClock{}, pace)
			srcMu.Lock()
			srcs[tr.id] = s
			srcMu.Unlock()
			return s, nil
		})
		spec.Windows = rc.windows
		specs = append(specs, spec)
	}

	res := &roundResult{}
	var lagMu sync.Mutex
	onCommit := func(id string, rep *fleet.WindowReport) {
		now := time.Now()
		if rep.Shed {
			return
		}
		var from time.Time
		if pace != nil {
			from = pace.due(rep.ToMs/1000 - 1)
		} else {
			srcMu.Lock()
			s := srcs[id]
			srcMu.Unlock()
			from = s.handoffAt(rep.Window)
		}
		lagMu.Lock()
		res.committed++
		res.lagsMs = append(res.lagsMs, float64(now.Sub(from))/float64(time.Millisecond))
		lagMu.Unlock()
	}

	if rc.dataDir != "" {
		// Start from clean page-cache writeback, so the round's fsyncs do
		// not queue behind the previous round's or the directory copy's.
		syscall.Sync()
	}
	runtime.GC()
	t0 := time.Now()
	m, err := shard.New(specs, shard.Options{
		Shards:   rc.wd.shards,
		Workers:  rc.wd.workers,
		DataDir:  rc.dataDir,
		OnCommit: onCommit,
	})
	res.setup = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("open fleet: %w", err)
	}
	if !rc.start {
		return res, m.Close()
	}

	heapBase := heapLiveBytes()
	stopSampler, samplerDone := make(chan struct{}), make(chan struct{})
	var peakLive uint64
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		forced := false
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
			}
			st := m.Status()
			res.skew = max(res.skew, committedGap(st))
			if !forced && allStaged(st, rc.windows) {
				// Sims outrank drains, so the fleet holds the most staged
				// windows the moment the last one is staged: collect there
				// so the peak does not depend on when collections happen.
				runtime.GC()
				forced = true
			}
			peakLive = max(peakLive, heapGCLiveBytes())
		}
	}()
	cpu0 := cpuTime()
	start := time.Now()
	if pace != nil {
		pace.t0 = start
	}
	m.Start()
	werr := m.Wait()
	res.wall = time.Since(start)
	res.cpu = cpuTime() - cpu0
	close(stopSampler)
	<-samplerDone
	if peakLive > heapBase {
		res.heapPeak = peakLive - heapBase
	}
	if werr != nil {
		m.Close()
		return nil, fmt.Errorf("run fleet: %w", werr)
	}

	st := m.Status()
	for _, row := range st.Instances {
		res.attempted += rc.windows - rc.from
		res.peakQueue = max(res.peakQueue, row.PeakQueue)
	}
	res.shed = st.Shed
	for _, ss := range m.ShardStatuses() {
		res.journalBatch += ss.CommitBatches
		res.journalWin += ss.CommitBatchWindows
	}
	res.stages = parseStages(m.MetricsExposition())
	if res.report, err = m.Report(); err != nil {
		m.Close()
		return nil, err
	}
	res.reports = map[string][]*fleet.WindowReport{}
	for _, tr := range traces {
		res.reports[tr.id], _ = m.Diagnoses(tr.id)
		res.src.add(srcs[tr.id].stats)
	}
	if err := m.Close(); err != nil {
		return nil, fmt.Errorf("close fleet: %w", err)
	}
	return res, nil
}

// allStaged reports whether every instance has played all its windows.
func allStaged(st shard.Status, windows int) bool {
	for _, r := range st.Instances {
		if r.Simulated < windows {
			return false
		}
	}
	return true
}

// committedGap is how many windows the most advanced instance is ahead of
// the least advanced one.
func committedGap(st shard.Status) int {
	if len(st.Instances) == 0 {
		return 0
	}
	lo, hi := st.Instances[0].Committed, st.Instances[0].Committed
	for _, r := range st.Instances {
		lo, hi = min(lo, r.Committed), max(hi, r.Committed)
	}
	return hi - lo
}

func (s *sourceStats) add(o sourceStats) {
	s.pulls += o.pulls
	s.nextNs += o.nextNs
	s.blockedNs += o.blockedNs
	s.lateNs += o.lateNs
	s.latePulls += o.latePulls
}

// parseStages reads the fleet's stage summaries out of the /metrics text,
// summed over shards.
func parseStages(text string) map[string]stageSum {
	out := map[string]stageSum{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		const fam = "pinsql_stage_duration_seconds_"
		if !strings.HasPrefix(line, fam) {
			continue
		}
		rest := line[len(fam):]
		kind, labels, ok := strings.Cut(rest, "{")
		if !ok {
			continue
		}
		labels, val, ok := strings.Cut(labels, "} ")
		if !ok {
			continue
		}
		stage := ""
		for _, kv := range strings.Split(labels, ",") {
			if k, v, ok := strings.Cut(kv, "="); ok && k == "stage" {
				stage = strings.Trim(v, `"`)
			}
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || stage == "" {
			continue
		}
		s := out[stage]
		switch kind {
		case "sum":
			s.sum += v
		case "count":
			s.count += int64(v)
		}
		out[stage] = s
	}
	return out
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
