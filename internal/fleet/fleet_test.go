package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pinsql/internal/dbsim"
	"pinsql/internal/ingest"
	"pinsql/internal/workload"
)

// testSpecs is the shared fixture: four heterogeneous instances, the last
// one auto-repairing (lockstep scheduling, executed actions in the
// journal).
func testSpecs() []InstanceSpec {
	specs := DefaultFleet(4, 7, 3, 300)
	specs[3].AutoRepair = true
	return specs
}

func runReport(t *testing.T, specs []InstanceSpec, opt Options) (string, *Fleet) {
	t.Helper()
	f, err := New(specs, opt)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	rep := f.Report()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return rep, f
}

// TestFleetWorkersEquivalence is the determinism contract across
// scheduling: a fixed-seed fleet produces a byte-identical report for
// every worker count.
func TestFleetWorkersEquivalence(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2, 8} {
		rep, f := runReport(t, testSpecs(), Options{Workers: workers, QueueDepth: 16})
		st := f.Status()
		if st.Committed != 4*3 {
			t.Fatalf("workers=%d: committed %d windows, want 12", workers, st.Committed)
		}
		if st.Shed != 0 {
			t.Fatalf("workers=%d: %d windows shed with a deep queue", workers, st.Shed)
		}
		if st.Anomalies == 0 {
			t.Fatalf("workers=%d: no anomalies diagnosed — fixture lost its teeth", workers)
		}
		if want == "" {
			want = rep
			continue
		}
		if rep != want {
			t.Fatalf("workers=%d: report diverged\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s", workers, want, workers, rep)
		}
	}
	if !strings.Contains(want, "rsql") {
		t.Fatalf("no R-SQL diagnosed in:\n%s", want)
	}
	if !strings.Contains(want, "action") {
		t.Fatalf("no repairing action in:\n%s", want)
	}
}

// TestFleetCrashResume is the durability contract: kill the fleet at every
// commit phase of a mid-run window, reopen the data directory, and the
// finished fleet's report is byte-identical to an uninterrupted run's.
func TestFleetCrashResume(t *testing.T) {
	specs := testSpecs()
	want, _ := runReport(t, specs, Options{Workers: 4, QueueDepth: 16, DataDir: t.TempDir()})

	for _, phase := range []string{"pre-append", "mid-append", "pre-journal", "post-journal"} {
		t.Run(phase, func(t *testing.T) {
			dir := t.TempDir()
			var mu sync.Mutex
			fired := false
			opt := Options{Workers: 4, QueueDepth: 16, DataDir: dir}
			opt.CrashAt = func(id string, window int, ph string) bool {
				mu.Lock()
				defer mu.Unlock()
				if id == "inst-03" && window == 1 && ph == phase {
					fired = true
					return true
				}
				return false
			}
			f, err := New(specs, opt)
			if err != nil {
				t.Fatal(err)
			}
			f.Start()
			f.Wait()
			st := f.Status()
			f.Close() // post-crash: leaves files exactly as the kill did
			mu.Lock()
			if !fired {
				mu.Unlock()
				t.Fatal("crash hook never fired")
			}
			mu.Unlock()
			if st.Committed == 4*3 {
				t.Fatal("crash killed nothing: every window already committed")
			}

			// Reopen the same directory: every instance must resume at its
			// journal watermark and finish the remainder.
			got, f2 := runReport(t, specs, Options{Workers: 4, QueueDepth: 16, DataDir: dir})
			if got != want {
				t.Fatalf("post-restart report diverged\n--- uninterrupted ---\n%s\n--- resumed(%s) ---\n%s", want, phase, got)
			}
			for _, is := range f2.Status().Instances {
				if !is.Done || is.Committed != is.Windows {
					t.Fatalf("instance %s did not finish: committed %d/%d", is.ID, is.Committed, is.Windows)
				}
			}
		})
	}
}

// TestFleetRestartNoRemainder pins the already-finished case: reopening a
// completed fleet runs zero new windows and rebuilds the identical report
// purely from the journal.
func TestFleetRestartNoRemainder(t *testing.T) {
	specs := testSpecs()
	dir := t.TempDir()
	want, _ := runReport(t, specs, Options{Workers: 2, DataDir: dir})
	got, f := runReport(t, specs, Options{Workers: 2, DataDir: dir})
	if got != want {
		t.Fatalf("journal-rebuilt report diverged\n--- live ---\n%s\n--- rebuilt ---\n%s", want, got)
	}
	if st := f.Status(); st.Instances[0].Simulated != st.Instances[0].Windows {
		t.Fatalf("restart re-simulated: %+v", st.Instances[0])
	}
}

// hookedSource is a simulator-backed trace source for scheduling tests:
// before each pull it calls before with the trace second about to be
// pulled, and at every window boundary it injects the DefaultInject
// incident into the world, so the trace-backed instance sees the same
// incidents a simulator-backed one would.
type hookedSource struct {
	ingest.Source
	world     *workload.World
	inject    func(w *workload.World, window int, fromMs, toMs int64) string
	windowSec int64
	next      int64 // trace second of the next pull
	before    func(sec int64)
}

func (s *hookedSource) Next() (ingest.Batch, error) {
	s.before(s.next)
	if s.next%s.windowSec == 0 {
		w := s.next / s.windowSec
		s.inject(s.world, int(w), w*s.windowSec*1000, (w+1)*s.windowSec*1000)
	}
	b, err := s.Source.Next()
	s.next++
	return b, err
}

// hookedSpec is a trace-backed spec over DefaultSpec's simulator, with
// before called ahead of every pull (see hookedSource).
func hookedSpec(id string, seed int64, windows, windowSec int, before func(sec int64)) InstanceSpec {
	spec := TraceSpec(id, windowSec, func() (ingest.Source, error) {
		def := DefaultSpec(id, seed, windows, windowSec)
		world, cfg := def.Setup(seed)
		sim := dbsim.NewInstance(cfg)
		world.Apply(sim)
		return &hookedSource{
			Source:    ingest.NewSimSource(world, sim, seed, windows, windowSec),
			world:     world,
			inject:    def.Inject,
			windowSec: int64(windowSec),
			before:    before,
		}, nil
	})
	spec.Windows = windows
	return spec
}

// TestFleetShedPolicy forces backpressure: the source blocks before
// window 1 until window 0 commits, and that commit's OnCommit holds the
// only pool worker until all four windows are staged. The depth-1 queue
// must therefore shed exactly windows 1 and 2 — yet every window still
// commits its records, keeping the topic contiguous.
func TestFleetShedPolicy(t *testing.T) {
	const windowSec = 300
	gate := make(chan struct{})
	spec := hookedSpec("shed", 11, 4, windowSec, func(sec int64) {
		if sec == windowSec {
			<-gate
		}
	})
	var f *Fleet
	opt := Options{Workers: 1, QueueDepth: 1}
	opt.OnCommit = func(_ string, rep *WindowReport) {
		if rep.Window != 0 {
			return
		}
		close(gate)
		for f.Status().Instances[0].Simulated < 4 {
			time.Sleep(time.Millisecond)
		}
	}
	f, err := New([]InstanceSpec{spec}, opt)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st := f.Status().Instances[0]
	if st.Committed != 4 {
		t.Fatalf("committed %d windows, want 4 (shed windows must still commit)", st.Committed)
	}
	if st.Shed != 2 {
		t.Fatalf("shed %d windows, want 2 (windows 1 and 2)", st.Shed)
	}
	reps, _ := f.Diagnoses("shed")
	for w, rep := range reps {
		if rep.Records == 0 {
			t.Fatalf("window %d committed no records", w)
		}
		if shed := w == 1 || w == 2; rep.Shed != shed {
			t.Fatalf("window %d shed=%v, want %v", w, rep.Shed, shed)
		}
		if rep.Shed && len(rep.Anomalies) > 0 {
			t.Fatalf("window %d kept a diagnosis despite being shed", w)
		}
	}
	if c := f.insts["shed"].cShed.Value(); c != 2 {
		t.Fatalf("shed counter = %d, want 2", c)
	}
}

// TestFleetPacedSourceDoesNotStarveDrains: with a single pool worker and
// every source blocked after window 0, each instance's window 0 must
// still be diagnosed and committed — a waiting source holds its own
// goroutine, never a drain worker.
func TestFleetPacedSourceDoesNotStarveDrains(t *testing.T) {
	const windowSec = 120
	release := make(chan struct{})
	var specs []InstanceSpec
	for i := 0; i < 3; i++ {
		specs = append(specs, hookedSpec(fmt.Sprintf("paced-%d", i), int64(21+i), 2, windowSec, func(sec int64) {
			if sec == windowSec {
				<-release
			}
		}))
	}
	committed := make(chan string, len(specs))
	opt := Options{Workers: 1}
	opt.OnCommit = func(id string, rep *WindowReport) {
		if rep.Window == 0 {
			committed <- id
		}
	}
	f, err := New(specs, opt)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	timeout := time.After(time.Minute)
	for range specs {
		select {
		case <-committed:
		case <-timeout:
			close(release)
			f.Close()
			t.Fatalf("window 0 did not commit on every instance while the sources were blocked: %+v", f.Status())
		}
	}
	for _, is := range f.Status().Instances {
		if is.Committed != 1 || is.Simulated != 1 {
			t.Fatalf("instance %s: committed %d, simulated %d while its source was blocked, want 1 and 1", is.ID, is.Committed, is.Simulated)
		}
	}
	close(release)
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if st := f.Status(); st.Committed != 2*len(specs) {
		t.Fatalf("committed %d windows, want %d", st.Committed, 2*len(specs))
	}
}

// TestFleetCloseJoinsPlayersAfterCrash: once the crash hook has fired and
// Close has returned, no player goroutine may still pull from its source.
// The source is held mid-window until the hook fires and then keeps
// pulling slowly, so Close can only satisfy this by joining the player.
func TestFleetCloseJoinsPlayersAfterCrash(t *testing.T) {
	const windowSec = 120
	crashed := make(chan struct{})
	var closed atomic.Bool
	var afterCrash, afterClose atomic.Int64
	spec := hookedSpec("crash", 31, 3, windowSec, func(sec int64) {
		if sec == windowSec {
			<-crashed
		}
		if closed.Load() {
			afterClose.Add(1)
		}
		select {
		case <-crashed:
			afterCrash.Add(1)
			time.Sleep(100 * time.Microsecond)
		default:
		}
	})
	opt := Options{Workers: 1}
	opt.CrashAt = func(_ string, window int, phase string) bool {
		if window == 0 && phase == "post-journal" {
			close(crashed)
			return true
		}
		return false
	}
	f, err := New([]InstanceSpec{spec}, opt)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	f.Wait()
	f.Close()
	closed.Store(true)
	// A leaked player would still be pulling, one batch per 100µs.
	time.Sleep(20 * time.Millisecond)
	if got := afterClose.Load(); got != 0 {
		t.Fatalf("source pulled %d times after Close returned", got)
	}
	if afterCrash.Load() == 0 {
		t.Fatal("the player never pulled after the crash: the test lost its teeth")
	}
}

// TestFleetStopDrains checks graceful shutdown: Stop commits everything
// already queued, seals the durable topics, and a restart picks up the
// remaining windows.
func TestFleetStopDrains(t *testing.T) {
	specs := testSpecs()
	dir := t.TempDir()
	want, _ := runReport(t, specs, Options{Workers: 4, DataDir: t.TempDir()})

	f, err := New(specs, Options{Workers: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Stop after the very first commit: the fleet must drain cleanly with
	// most windows still unrun.
	committed := make(chan struct{}, 1)
	f.opt.OnCommit = func(string, *WindowReport) {
		select {
		case committed <- struct{}{}:
		default:
		}
	}
	f.Start()
	<-committed
	if err := f.Stop(); err != nil {
		t.Fatal(err)
	}
	if st := f.Status(); !st.Draining {
		t.Fatal("Stop did not mark the fleet draining")
	}

	got, _ := runReport(t, specs, Options{Workers: 4, DataDir: dir})
	if got != want {
		t.Fatalf("drain+restart report diverged\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", want, got)
	}
}

// TestFleetHTTP exercises the control plane end to end against a live
// fleet.
func TestFleetHTTP(t *testing.T) {
	specs := DefaultFleet(2, 3, 2, 300)
	f, err := New(specs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	get := func(path string, wantCode int) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, wantCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	var st Status
	if err := json.Unmarshal([]byte(get("/fleet", 200)), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Instances) != 2 || !st.Done || st.Committed != 4 {
		t.Fatalf("unexpected /fleet status: %+v", st)
	}

	var reps []*WindowReport
	if err := json.Unmarshal([]byte(get("/instances/inst-00/diagnoses", 200)), &reps); err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || reps[1].Records == 0 {
		t.Fatalf("unexpected diagnoses: %+v", reps)
	}
	get("/instances/nope/diagnoses", 404)

	metrics := get("/metrics", 200)
	for _, want := range []string{
		`pinsql_fleet_windows_total{instance="inst-00"} 2`,
		`pinsql_fleet_anomalies_total{instance=`,
		`pinsql_fleet_shed_windows_total{instance="inst-01"} 0`,
		`pinsql_registry_raw_cache_hits_total{instance=`,
		`pinsql_fleet_queue_depth{instance="inst-01"} 0`,
		`pinsql_ingest_parse_errors_total{instance="inst-00"} 0`,
		`pinsql_ingest_lag_seconds{instance="inst-01"} 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, metrics)
		}
	}
	// The simulator replays through the ingest seam like any trace, so
	// its records counter must reflect the committed windows.
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, `pinsql_ingest_records_total{instance="inst-00"}`) {
			if strings.HasSuffix(line, " 0") {
				t.Fatalf("ingest records counter stuck at zero: %s", line)
			}
		}
	}
	if !strings.Contains(metrics, `pinsql_ingest_records_total{instance="inst-00"}`) {
		t.Fatal("/metrics missing pinsql_ingest_records_total")
	}
	// The player feeds the collector directly; there is no broker whose
	// drops could be counted.
	if strings.Contains(metrics, "pinsql_broker_dropped_total") {
		t.Fatal("/metrics still exports pinsql_broker_dropped_total")
	}
	if !strings.Contains(get("/debug/pprof/cmdline", 200), "fleet") {
		t.Fatal("pprof cmdline endpoint not wired")
	}
}

// TestRunInstanceSingle pins the single-instance helper pinsqld uses.
func TestRunInstanceSingle(t *testing.T) {
	reps, err := RunInstance(DefaultSpec("one", 42, 2, 300), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("got %d reports, want 2", len(reps))
	}
	if reps[1].Injected == "" || reps[1].Records == 0 {
		t.Fatalf("window 1 looks empty: %+v", reps[1])
	}
}
