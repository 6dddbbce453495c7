package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"pinsql/internal/dbsim"
	"pinsql/internal/fleet"
	"pinsql/internal/ingest"
	"pinsql/internal/workload"
)

// tenantTrace is one tenant's generated input: the dense per-second
// batches the simulator emitted, plus the ground truth of every window
// that carried an injected incident.
type tenantTrace struct {
	id        string
	windowSec int
	windows   int
	batches   []ingest.Batch
	records   int64
	truth     map[int]workload.Anomaly // window → the incident injected into it
}

// injectFunc is a fleet.InstanceSpec.Inject hook.
type injectFunc = func(w *workload.World, window int, fromMs, toMs int64) string

// tenantPlan is what the generator needs to simulate one tenant.
type tenantPlan struct {
	id        string
	seed      int64
	windows   int
	windowSec int
	setup     func(seed int64) (*workload.World, dbsim.Config)
	inject    injectFunc
}

// plansOfFleet turns simulator-backed fleet specs into generation plans.
func plansOfFleet(specs []fleet.InstanceSpec) []tenantPlan {
	out := make([]tenantPlan, len(specs))
	for i, s := range specs {
		out[i] = tenantPlan{id: s.ID, seed: s.Seed, windows: s.Windows, windowSec: s.WindowSec, setup: s.Setup, inject: s.Inject}
	}
	return out
}

// generate simulates one tenant exactly as a simulator-backed fleet
// instance would: the same world, the same simulator, the same injection
// before each window and the same lazily simulating source. The incident
// a window's injection installs is read back from the world, so the
// ground truth is the one workload.World.Inject* returned.
func generate(p tenantPlan) (*tenantTrace, error) {
	world, cfg := p.setup(p.seed)
	sim := dbsim.NewInstance(cfg)
	world.Apply(sim)
	src := ingest.NewSimSource(world, sim, p.seed, p.windows, p.windowSec)
	tr := &tenantTrace{
		id: p.id, windowSec: p.windowSec, windows: p.windows,
		batches: make([]ingest.Batch, 0, p.windows*p.windowSec),
		truth:   map[int]workload.Anomaly{},
	}
	windowMs := int64(p.windowSec) * 1000
	for w := 0; w < p.windows; w++ {
		before := len(world.Anomalies())
		if label := p.inject(world, w, int64(w)*windowMs, int64(w+1)*windowMs); label != "" {
			as := world.Anomalies()
			if len(as) != before+1 {
				return nil, fmt.Errorf("tenant %s window %d: injection %q recorded %d incidents, want 1", p.id, w, label, len(as)-before)
			}
			tr.truth[w] = as[before]
		}
		for s := 0; s < p.windowSec; s++ {
			b, err := src.Next()
			if err != nil {
				return nil, fmt.Errorf("tenant %s window %d: %w", p.id, w, err)
			}
			tr.records += int64(len(b.Records))
			tr.batches = append(tr.batches, b)
		}
	}
	return tr, nil
}

// genStats describes the load generator's own cost, reported in the run
// header so it is never confused with the monitor's. ResidentBytes is the
// generated trace held (off the Go heap) for the whole run.
type genStats struct {
	WallS         float64 `json:"wall_s"`
	ResidentBytes int64   `json:"resident_bytes"`
	Records       int64   `json:"records"`
	Goroutines    int     `json:"goroutines"`
}

// generateAll simulates every tenant with at most runtime.NumCPU()
// goroutines and moves each trace off the Go heap. The result is a pure
// function of the plans: each tenant is generated independently and stored
// at its own index.
func generateAll(plans []tenantPlan) ([]*tenantTrace, genStats, error) {
	workers := min(runtime.NumCPU(), len(plans))
	start := time.Now()
	out := make([]*tenantTrace, len(plans))
	sizes := make([]int, len(plans))
	errs := make([]error, len(plans))
	next := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = generate(plans[i])
				if errs[i] == nil {
					sizes[i], errs[i] = moveOffHeap(out[i])
				}
			}
		}()
	}
	for i := range plans {
		next <- i
	}
	close(next)
	wg.Wait()
	st := genStats{WallS: time.Since(start).Seconds(), Goroutines: workers}
	for i, err := range errs {
		if err != nil {
			return nil, st, err
		}
		st.Records += out[i].records
		st.ResidentBytes += int64(sizes[i])
	}
	// Hand the simulator's heap copies back before anything is measured.
	debug.FreeOSMemory()
	return out, st, nil
}
