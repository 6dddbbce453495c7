package main

import (
	"fmt"

	"pinsql/internal/dbsim"
	"pinsql/internal/fleet"
	"pinsql/internal/workload"
)

// workloadDef is one benchmark workload: the tenants it generates and the
// runtime shape it replays them through.
type workloadDef struct {
	name    string
	plans   func(seed int64) []tenantPlan
	shards  int
	workers int // total across shards

	// durable replays into a data directory: setup commits window 0 and
	// closes cleanly, and each timed round reopens a copy of that
	// directory and resumes at window 1.
	durable bool

	// pace is the open-loop rate in trace seconds per wall-clock second;
	// 0 is a closed loop at the maximum rate.
	pace float64

	// sets splits the tenants into this many trace sets of equal size; a
	// round replays one set, and rounds take the sets in turn. More tenants
	// per run then average over more seeds' incidents without raising what
	// one round holds in memory. 0 means one set.
	sets int
}

const (
	fleetTenants   = 16
	fleetWindows   = 8
	windowSec      = 120
	wideTenants    = 4 // in two sets of two
	wideServices   = 160
	wideSpecsPer   = 25
	wideCallsPerRq = 0.03
	livePace       = 200
)

var workloads = []workloadDef{
	{name: "durable-tenants", plans: fleetPlans, shards: 2, workers: 2, durable: true},
	{name: "wide-templates", plans: widePlans, shards: 1, workers: 2, sets: 2},
	{name: "live-tenants", plans: fleetPlans, shards: 1, workers: 2, pace: livePace},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// fleetPlans is the DefaultFleet tenant mix: each tenant has its own seed,
// its own filler-service mix and an incident every other window in the
// fleet.DefaultInject rotation.
func fleetPlans(seed int64) []tenantPlan {
	return plansOfFleet(fleet.DefaultFleet(fleetTenants, seed, fleetWindows, windowSec))
}

// widePlans is the template-count stress: DefaultWorld plus about 4000
// rarely called SELECT templates, with an incident in every window. Its
// staged windows are large (a round of two tenants peaks near 370 MB), so
// the workload runs two sets of two tenants rather than four at once: the
// accuracy of two tenants' 16 incidents moved by a fifth between seeds.
func widePlans(seed int64) []tenantPlan {
	out := make([]tenantPlan, wideTenants)
	for i := range out {
		out[i] = tenantPlan{
			id:        fmt.Sprintf("wide-%02d", i),
			seed:      seed + int64(i)*1000,
			windows:   fleetWindows,
			windowSec: windowSec,
			setup:     wideWorld,
			inject:    everyWindowInject(i),
		}
	}
	return out
}

// wideWorld builds DefaultWorld plus the long tail of SELECT templates.
func wideWorld(seed int64) (*workload.World, dbsim.Config) {
	w := workload.DefaultWorld(seed)
	for i := 0; i < wideServices; i++ {
		svc := w.AddService(fmt.Sprintf("tail-%d", i), 1.2, 7+i)
		for j := 0; j < wideSpecsPer; j++ {
			w.AddSpec(svc, workload.Spec{
				Name:    fmt.Sprintf("tail-%d-%d", i, j),
				Pattern: fmt.Sprintf("SELECT c%d FROM applogs WHERE t%d_%d = @", j, i, j),
				Table:   "applogs", Kind: dbsim.KindSelect,
				CallsPerRequest: wideCallsPerRq, ServiceMs: 3, ServiceJitter: 0.3, ExaminedRows: 20, IOOps: 1,
			})
		}
	}
	cfg := dbsim.DefaultConfig()
	cfg.Seed = seed
	return w, cfg
}

// everyWindowInject is the fleet.DefaultInject rotation applied to every
// window instead of every other one: window w gets the incident
// DefaultInject gives its odd window 2w+1.
func everyWindowInject(rot int) injectFunc {
	inj := fleet.DefaultInject(rot)
	return func(w *workload.World, window int, fromMs, toMs int64) string {
		return inj(w, 2*window+1, fromMs, toMs)
	}
}

// splitSets cuts the traces into the workload's sets, in order.
func splitSets(wd workloadDef, traces []*tenantTrace) [][]*tenantTrace {
	n := max(wd.sets, 1)
	per := len(traces) / n
	out := make([][]*tenantTrace, n)
	for k := range out {
		out[k] = traces[k*per : (k+1)*per]
	}
	return out
}
