package main

import (
	"fmt"
	"net/url"
	"path/filepath"
	"strings"
	"time"

	"pinsql/internal/anomaly"
	"pinsql/internal/collect"
	"pinsql/internal/core"
	"pinsql/internal/dbsim"
	"pinsql/internal/fleet"
	"pinsql/internal/ingest"
	"pinsql/internal/logstore"
	"pinsql/internal/logstore/segment"
	"pinsql/internal/repair"
	"pinsql/internal/sqltemplate"
)

// refResult is one reference pass: every tenant driven window by window
// through the public calls the fleet makes, on one goroutine.
type refResult struct {
	wall         time.Duration
	report       string
	stages       core.Timing // the paper's four diagnosis stages, summed
	records      int64       // records collected, each resolved to a template
	newTemplates int64       // templates registered for the first time
	segmentBytes int64
}

// runReference replays the traces through the same calls the fleet makes
// for each window — Player.PlayWindow into the broker and a
// StreamAggregator, Collector.Frame, core.Perception, DiagnoseFrame, the
// repair module, Append and Expire — with a span around each call when t
// is non-nil. Its report must match the fleet's byte for byte, which is
// what proves it did the same work.
//
// Two things differ from the fleet, both only in timing: a window's
// records are published in full before the aggregator drains them (the
// subscription buffer holds the whole window), so publish and aggregate
// are timed apart; and there is no window journal, which the fleet keeps
// private. A durable workload closes each tenant's store after window 0
// and reopens it, as the fleet's timed rounds do.
func runReference(wd workloadDef, traces []*tenantTrace, dataDir string, t *tracer) (*refResult, error) {
	start := time.Now()
	res := &refResult{}
	broker := collect.NewBroker()
	defer broker.Close()
	mod := repair.New(repair.DefaultConfig(), repair.DefaultOptimizer())
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	var b strings.Builder
	for _, tr := range traces {
		reps, err := referenceTenant(wd, tr, dataDir, broker, mod, cfg, t, res)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", tr.id, err)
		}
		fleet.FormatInstanceReport(&b, tr.id, reps)
	}
	res.report = b.String()
	res.wall = time.Since(start)
	if dataDir != "" {
		res.segmentBytes = dirBytes(dataDir)
	}
	return res, nil
}

// refStore is a tenant's long-term storage in the reference pass.
type refStore struct {
	store    logstore.Backend
	seg      *segment.Store
	registry *collect.Registry
}

func openRefStore(dir string, t *tracer, win string) (*refStore, error) {
	if dir == "" {
		return &refStore{store: logstore.New(0), registry: collect.NewRegistry()}, nil
	}
	sp := t.begin("segment.open", -1, win)
	seg, err := segment.Open(dir, segment.Options{})
	if err != nil {
		return nil, err
	}
	reg, err := collect.OpenRegistry(seg)
	t.end(sp, 0)
	if err != nil {
		seg.Close()
		return nil, err
	}
	return &refStore{store: seg, seg: seg, registry: reg}, nil
}

// close seals and closes a durable store, as the fleet does on shutdown.
func (s *refStore) close(t *tracer, win string) error {
	if s.seg == nil {
		return s.store.Close()
	}
	sp := t.begin("segment.seal", -1, win)
	err := s.seg.Seal()
	t.end(sp, 0)
	if cerr := s.seg.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracedSource wraps a tenant's source so each Next is a span, and closes
// the publish span that the records of the previous batch opened.
type tracedSource struct {
	*memSource
	t       *tracer
	parent  int
	window  string
	publish int // open collect.publish span, or -1
	pubN    int64
}

func (s *tracedSource) Next() (ingest.Batch, error) {
	s.closePublish()
	sp := s.t.begin("ingest.next", s.parent, s.window)
	b, err := s.memSource.Next()
	s.t.end(sp, int64(len(b.Records)))
	return b, err
}

// sink times the broker publish of one batch's records as one span.
func (s *tracedSource) sink(pub dbsim.LogSink) dbsim.LogSink {
	if s.t == nil {
		return pub
	}
	return func(rec dbsim.LogRecord) {
		if s.publish < 0 {
			s.publish = s.t.begin("collect.publish", s.parent, s.window)
		}
		pub(rec)
		s.pubN++
		s.t.spans[s.publish].End = time.Since(s.t.epoch)
	}
}

func (s *tracedSource) closePublish() {
	if s.publish >= 0 {
		s.t.spans[s.publish].N = s.pubN
		s.publish, s.pubN = -1, 0
	}
}

func referenceTenant(wd workloadDef, tr *tenantTrace, dataDir string, broker *collect.Broker, mod *repair.Module, cfg core.Config, t *tracer, res *refResult) ([]*fleet.WindowReport, error) {
	dir := ""
	if dataDir != "" {
		dir = filepath.Join(dataDir, url.PathEscape(tr.id))
	}
	st, err := openRefStore(dir, t, tr.id)
	if err != nil {
		return nil, err
	}
	src := &tracedSource{memSource: newMemSource(tr, wallClock{}, nil), t: t, publish: -1}
	player := ingest.NewPlayer(src)
	windowMs := int64(tr.windowSec) * 1000
	var reps []*fleet.WindowReport
	for w := 0; w < tr.windows; w++ {
		if wd.durable && w == 1 {
			// Reopen after window 0, as every timed round of the fleet does.
			if err := st.close(t, tr.id); err != nil {
				return nil, err
			}
			if st, err = openRefStore(dir, t, tr.id); err != nil {
				return nil, err
			}
			st.seg.TruncateFrom(tr.id, int64(w)*windowMs)
		}
		win := fmt.Sprintf("%s/%d", tr.id, w)
		root := t.begin("window", -1, win)
		rep, err := referenceWindow(tr, w, st, src, player, broker, mod, cfg, t, root, win, res)
		t.end(root, 0)
		if err != nil {
			st.close(t, tr.id)
			return nil, fmt.Errorf("window %d: %w", w, err)
		}
		reps = append(reps, rep)
	}
	return reps, st.close(t, tr.id)
}

// referenceWindow is one window of fleet.simWindow, fleet.diagnose and
// fleet.commit, call for call.
func referenceWindow(tr *tenantTrace, w int, st *refStore, src *tracedSource, player *ingest.Player, broker *collect.Broker, mod *repair.Module, cfg core.Config, t *tracer, root int, win string, res *refResult) (*fleet.WindowReport, error) {
	windowMs := int64(tr.windowSec) * 1000
	fromMs, toMs := int64(w)*windowMs, int64(w+1)*windowMs

	// Collect: the player pumps the window into the broker; the aggregator
	// drains the subscription into the window's collector.
	staging := logstore.New(0)
	coll := collect.NewCollector(tr.id, fromMs, toMs, st.registry, staging)
	ch, cancel := broker.Subscribe(tr.id, max(tr.windowRecords(w), 1))
	src.parent, src.window = root, win
	sp := t.begin("ingest.play_window", root, win)
	src.parent = sp
	rows, _, err := player.PlayWindow(fromMs, toMs, src.sink(broker.BlockingSink(tr.id)))
	src.closePublish()
	t.end(sp, 0)
	cancel()
	if err != nil {
		return nil, err
	}
	templates := st.registry.Len()
	sp = t.begin("collect.aggregate", root, win)
	<-collect.NewStreamAggregator(coll).Consume(ch)
	coll.IngestMetricsAt(rows)
	t.end(sp, coll.Records())
	res.newTemplates += int64(st.registry.Len() - templates)

	var sess, cpu float64
	for _, s := range rows {
		sess += s.ActiveSession
		cpu += s.CPUUsage
	}
	if n := len(rows); n > 0 {
		sess /= float64(n)
		cpu /= float64(n)
	}
	rep := &fleet.WindowReport{
		Window: w, FromMs: fromMs, ToMs: toMs,
		Records:     coll.Records(),
		MeanSession: sess,
		MeanCPU:     cpu,
	}
	res.records += rep.Records

	sp = t.begin("collect.frame", root, win)
	fr := coll.Frame()
	snap := collect.SnapshotOfFrame(fr)
	t.end(sp, int64(len(fr.Templates)))

	// Detect and diagnose.
	sp = t.begin("anomaly.detect", root, win)
	per := core.NewPerception(anomaly.Config{}, nil)
	per.ObserveFrame(fr)
	phenomena := per.Phenomena()
	t.end(sp, int64(len(phenomena)))
	baseSec := int(fromMs / 1000)
	suggestions := make([][]repair.Suggestion, 0, len(phenomena))
	for _, ph := range phenomena {
		sp = t.begin("core.diagnose", root, win)
		c := anomaly.NewCase(snap, ph)
		d := core.DiagnoseFrame(c, fr, cfg)
		t.end(sp, int64(len(d.RSQLs)))
		res.stages.EstimateSession += d.Time.EstimateSession
		res.stages.RankHSQL += d.Time.RankHSQL
		res.stages.ClusterFilter += d.Time.ClusterFilter
		res.stages.VerifyRank += d.Time.VerifyRank
		ar := fleet.AnomalyReport{Rule: ph.Rule, StartSec: baseSec + ph.Start, EndSec: baseSec + ph.End}
		for i, cand := range d.RSQLs {
			if i == 3 {
				break
			}
			ar.RSQLs = append(ar.RSQLs, fleet.RSQLReport{ID: string(cand.ID), Score: cand.Score, Verified: cand.Verified})
		}
		var sugg []repair.Suggestion
		if len(d.RSQLs) > 0 {
			sp = t.begin("repair.suggest", root, win)
			sugg = mod.Suggest(c, []sqltemplate.ID{d.RSQLs[0].ID})
			t.end(sp, int64(len(sugg)))
		}
		rep.Anomalies = append(rep.Anomalies, ar)
		suggestions = append(suggestions, sugg)
	}

	// Commit: archive the window, record the repairing actions, expire.
	sp = t.begin("logstore.append", root, win)
	var appendErr error
	n := int64(0)
	staging.ScanFunc(tr.id, fromMs, toMs, func(r logstore.Record) bool {
		if appendErr = st.store.Append(tr.id, r); appendErr != nil {
			return false
		}
		n++
		return true
	})
	t.end(sp, n)
	if appendErr != nil {
		return nil, appendErr
	}
	for i, sugg := range suggestions {
		if len(sugg) == 0 {
			continue
		}
		sp = t.begin("repair.execute", root, win)
		for _, s := range mod.Execute(repair.Environment{NowMs: toMs}, sugg) {
			rep.Anomalies[i].Actions = append(rep.Anomalies[i].Actions, fleet.ActionReport{
				Rule: s.Rule, Action: s.Action, Template: string(s.Template),
				Value: s.Value, DurationMs: s.DurationMs, Executed: s.Executed,
			})
		}
		t.end(sp, int64(len(sugg)))
	}
	sp = t.begin("logstore.expire", root, win)
	expired := st.store.Expire(toMs)
	t.end(sp, int64(expired))
	return rep, nil
}

// windowRecords counts the records of window w's seconds.
func (tr *tenantTrace) windowRecords(w int) int {
	n := 0
	for _, b := range tr.batches[w*tr.windowSec : (w+1)*tr.windowSec] {
		n += len(b.Records)
	}
	return n
}
