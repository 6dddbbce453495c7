// Package fleet is the multi-instance monitoring service: it runs the full
// PinSQL pipeline (collect → aggregate → detect → diagnose → repair) for N
// simulated database instances concurrently inside one process, the way
// the paper's production deployment multiplexes thousands of RDS instances
// through one Kafka/Flink/diagnosis cluster (Fig. 2, §II).
//
// Each instance owns a per-tenant state machine: its source plays on the
// instance's own goroutine straight into the window's collector (the
// database never pauses for its monitor), and a shared worker pool
// diagnoses and commits the staged windows. Per-instance queues are
// bounded with an explicit shed policy — when diagnosis falls behind, the
// oldest queued window loses its diagnosis (counted, never blocking the
// source). With a data directory every instance persists its query log to
// a durable topic (internal/logstore/segment) plus a committed-window
// journal, so a killed fleet resumes every instance at the correct window
// after restart.
//
// Determinism contract: with a fixed seed and no shed windows, the final
// fleet report is byte-identical for every worker count and across
// kill/restart.
package fleet

import (
	"fmt"

	"pinsql/internal/dbsim"
	"pinsql/internal/ingest"
	"pinsql/internal/workload"
)

// InstanceSpec describes one monitored instance: how to build its world
// and simulator, how many windows to run, and which incidents to inject.
type InstanceSpec struct {
	// ID names the instance; it is also its log-store topic and its HTTP
	// path element. IDs must be unique within a fleet.
	ID string

	// Seed drives every random choice of this instance: the workload
	// world, the per-window arrival streams, and the metric sampling
	// phase.
	Seed int64

	// Windows is the total number of monitoring windows this instance
	// should have committed. A restarted fleet runs only the remainder:
	// an instance killed after committing 3 of 6 windows resumes at
	// window 3 and runs 3 more.
	Windows int

	// WindowSec is the window length in simulated seconds.
	WindowSec int

	// AutoRepair executes suggested repairing actions at window commit.
	// Repairs mutate the world, so an auto-repairing instance runs in
	// lockstep: window w+1 is not simulated until window w committed.
	AutoRepair bool

	// Setup builds the instance's workload world and simulator config.
	// Nil selects the pinsqld default (DefaultWorld + 3×6 filler
	// services).
	Setup func(seed int64) (*workload.World, dbsim.Config)

	// Inject optionally mutates the world before window `window` is
	// simulated (fromMs/toMs are the window bounds in absolute simulated
	// milliseconds) and returns a label for the report ("" = nothing
	// injected). Injections are replayed in window order during crash
	// recovery, so they must be deterministic in (window, world state).
	// Nil selects the pinsqld default rotation (an incident every other
	// window). Ignored by trace-backed specs (there is no world to
	// mutate).
	Inject func(w *workload.World, window int, fromMs, toMs int64) string

	// Trace, when non-nil, makes this a trace-backed instance: the fleet
	// monitors the recorded stream the returned ingest.Source yields
	// instead of building a workload world and simulator. The builder is
	// called once per fleet open — on crash recovery the fresh source is
	// skipped to the first uncommitted window boundary. Trace-backed
	// specs leave Setup/Inject unused, may set Windows to 0 ("replay
	// until the trace ends"), and cannot set AutoRepair (there is no
	// live database to act on).
	Trace func() (ingest.Source, error)
}

// withDefaults fills nil hooks and zero values. A trace-backed spec keeps
// Windows == 0: the trace's own length bounds the run.
func (s InstanceSpec) withDefaults() InstanceSpec {
	if s.Windows <= 0 && s.Trace == nil {
		s.Windows = 4
	}
	if s.WindowSec <= 0 {
		s.WindowSec = 1200
	}
	if s.Setup == nil {
		s.Setup = func(seed int64) (*workload.World, dbsim.Config) {
			world := workload.DefaultWorld(seed)
			world.AddFillerServices(3, 6)
			cfg := dbsim.DefaultConfig()
			cfg.Seed = seed
			return world, cfg
		}
	}
	if s.Inject == nil {
		s.Inject = DefaultInject(0)
	}
	return s
}

// DefaultInject returns the pinsqld incident rotation: every other window
// gets an anomaly over the window's middle third — a business spike, a
// lock storm, or a blocking DDL, rotating with the window number (offset
// by rot so a fleet's instances do not all fail identically).
func DefaultInject(rot int) func(w *workload.World, window int, fromMs, toMs int64) string {
	return func(w *workload.World, window int, fromMs, toMs int64) string {
		if window%2 != 1 {
			return ""
		}
		winMs := toMs - fromMs
		as := fromMs + winMs/3
		ae := as + winMs/4
		switch (window/2 + rot) % 3 {
		case 0:
			w.InjectBusinessSpike(w.Services[2], 40, as, ae)
			return "business_spike"
		case 1:
			w.InjectLockStorm(w.Services[2], "orders", 7, as, ae)
			return "lock_storm"
		default:
			w.InjectMDL("orders", as, (ae-as)/2)
			return "ddl_mdl"
		}
	}
}

// DefaultSpec is the single-instance pinsqld configuration as a spec.
func DefaultSpec(id string, seed int64, windows, windowSec int) InstanceSpec {
	return InstanceSpec{ID: id, Seed: seed, Windows: windows, WindowSec: windowSec}.withDefaults()
}

// DefaultFleet builds n heterogeneous specs: each instance gets its own
// seed, its own filler-service mix (so per-tenant workloads differ, as in
// the RESQ-style diverse-tenant setting), and a rotated incident schedule.
func DefaultFleet(n int, baseSeed int64, windows, windowSec int) []InstanceSpec {
	specs := make([]InstanceSpec, n)
	for i := range specs {
		idx := i
		specs[i] = InstanceSpec{
			ID:        fmt.Sprintf("inst-%02d", i),
			Seed:      baseSeed + int64(i)*1000,
			Windows:   windows,
			WindowSec: windowSec,
			Setup: func(seed int64) (*workload.World, dbsim.Config) {
				world := workload.DefaultWorld(seed)
				world.AddFillerServices(1+idx%3, 4+idx%3)
				cfg := dbsim.DefaultConfig()
				cfg.Seed = seed
				return world, cfg
			},
			Inject: DefaultInject(idx),
		}
	}
	return specs
}

// TraceSpec builds a trace-backed spec: monitor the recorded stream in
// windows of windowSec seconds until the trace ends.
func TraceSpec(id string, windowSec int, trace func() (ingest.Source, error)) InstanceSpec {
	return InstanceSpec{ID: id, WindowSec: windowSec, Trace: trace}
}
