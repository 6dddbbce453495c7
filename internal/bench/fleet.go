package bench

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"pinsql/internal/fleet"
	"pinsql/internal/shard"
	"pinsql/internal/shard/remote"
)

// FleetBenchOptions configures the fleet-throughput sweep.
type FleetBenchOptions struct {
	Seed    int64
	Windows int  // windows per instance; 0 → 3 (2 when Small)
	Small   bool // CI-sized: fewer/shorter windows, smaller sweep

	// ProfileDir, when non-empty, writes one CPU profile per in-process
	// sweep cell as fleet_i<instances>_s<shards>_w<workers>.pprof under
	// the directory (created if missing) — the investigation handle for
	// scheduling regressions like the known 1→2 worker slowdown on a
	// single-CPU host. Process-mode cells are not profiled: the
	// coordinator mostly waits on its workers, so its profile is noise.
	ProfileDir string

	// NoProc skips the multi-process cells (used when the binary cannot
	// re-exec itself as a worker, e.g. under `go test` harnesses that
	// don't route through MaybeWorker).
	NoProc bool
}

// FleetBenchRow is one (instances × shards × workers) cell of the sweep.
type FleetBenchRow struct {
	Instances int `json:"instances"`
	Shards    int `json:"shards"`
	Workers   int `json:"workers"` // total across shards
	// Mode is "inproc" (all shards in one process) or "proc" (each shard
	// a supervised worker process behind the HTTP/JSON worker API).
	Mode          string  `json:"mode"`
	Windows       int     `json:"windows"` // committed across the fleet
	WallSec       float64 `json:"wall_sec"`
	WindowsPerSec float64 `json:"windows_per_sec"`
	// ShardSpeedup is windows/sec relative to the same instance count's
	// in-process (shards=1, workers=1) cell — the headline sharding win.
	// 1.0 on the baseline cell itself. For proc cells the gap to the
	// matching inproc cell is the process-transport overhead.
	ShardSpeedup float64 `json:"shard_speedup"`
	// ScalingEfficiency is ShardSpeedup per worker: 1.0 is perfect linear
	// scaling, below 1.0 the extra workers are partly idle or contending.
	// On a single-CPU host every multi-worker cell sits near 1/workers by
	// construction — check GOMAXPROCS before reading this column.
	ScalingEfficiency float64 `json:"scaling_efficiency"`
	ShedRate          float64 `json:"shed_rate"` // shed windows / committed windows
	PeakQueue         int     `json:"peak_queue"`
	Records           int64   `json:"records"`
	// ReportHash fingerprints the fleet report (FNV-1a). Every cell with
	// the same instance count must agree — across shard counts AND across
	// the process boundary — so the sweep doubles as the cross-shard and
	// cross-mode determinism gate.
	ReportHash string `json:"report_hash"`
	Identical  bool   `json:"identical"` // report matched the instance count's first cell
}

// FleetBench is the document behind BENCH_fleet.json: how fleet throughput
// scales with instance count, shard count, and scheduler workers, what the
// bounded queues shed along the way, and what running each shard as a
// separate worker process costs on top.
type FleetBench struct {
	WindowSec  int             `json:"window_sec"`
	GOMAXPROCS int             `json:"gomaxprocs"` // scaling ceiling of the host the sweep ran on
	Identical  bool            `json:"identical"`  // every cell's report matched its instance count's baseline
	Rows       []FleetBenchRow `json:"rows"`
}

// fleetCells is the (shards, workers) grid swept in-process at each
// instance count; cells with more shards than instances are skipped (an
// empty shard is legal but measures nothing).
var fleetCells = []struct{ shards, workers int }{
	{1, 1}, // baseline: the unsharded sequential fleet
	{1, 2}, // the known worker-scaling regression cell
	{2, 2},
	{8, 8},
}

// fleetProcCells is the subset re-run in multi-process mode: the same
// cell shape as an in-process one so the wall-clock delta isolates the
// transport + process-supervision overhead, and the report hash feeds
// the cross-mode determinism gate.
var fleetProcCells = []struct{ shards, workers int }{
	{2, 2},
}

// RunFleetBench sweeps instance counts × (shards × workers) over the
// in-memory fleet and measures end-to-end monitoring throughput, then
// re-runs a subset of cells with each shard as a separate worker process.
// Within one instance count every cell — in-process or multi-process —
// must produce a byte-identical report; a divergence sets Identical=false
// (and pinsql-bench exits non-zero).
func RunFleetBench(opt FleetBenchOptions) (*FleetBench, error) {
	instanceCounts := []int{1, 8, 64, 128}
	windowSec := 300
	windows := opt.Windows
	if windows <= 0 {
		windows = 3
	}
	if opt.Small {
		instanceCounts = []int{1, 8, 128}
		windowSec = 120
		if opt.Windows <= 0 {
			windows = 2
		}
	}

	if opt.ProfileDir != "" {
		if err := os.MkdirAll(opt.ProfileDir, 0o755); err != nil {
			return nil, err
		}
	}

	out := &FleetBench{WindowSec: windowSec, GOMAXPROCS: runtime.GOMAXPROCS(0), Identical: true}
	for _, n := range instanceCounts {
		baseline := 0.0 // in-process (shards=1, workers=1) windows/sec for this instance count
		baseHash := ""  // report fingerprint every other cell must match
		for _, cell := range fleetCells {
			if cell.shards > n {
				continue
			}
			profPath := ""
			if opt.ProfileDir != "" {
				profPath = filepath.Join(opt.ProfileDir, fmt.Sprintf("fleet_i%d_s%d_w%d.pprof", n, cell.shards, cell.workers))
			}
			row, err := runFleetCell(opt.Seed, n, windows, windowSec, cell.shards, cell.workers, nil, profPath)
			if err != nil {
				return nil, err
			}
			row.Mode = "inproc"
			if cell.shards == 1 && cell.workers == 1 {
				baseline = row.WindowsPerSec
				baseHash = row.ReportHash
			}
			finishFleetRow(&row, baseline, baseHash, out)
		}
		if opt.NoProc {
			continue
		}
		for _, cell := range fleetProcCells {
			if cell.shards > n {
				continue
			}
			factory := remote.Factory(remote.Options{
				Specs: remote.SpecSet{Instances: n, Seed: opt.Seed, Windows: windows, WindowSec: windowSec},
			})
			row, err := runFleetCell(opt.Seed, n, windows, windowSec, cell.shards, cell.workers, factory, "")
			if err != nil {
				return nil, err
			}
			row.Mode = "proc"
			finishFleetRow(&row, baseline, baseHash, out)
		}
	}
	return out, nil
}

// runFleetCell measures one sweep cell: build the fleet, run it to
// completion, and fingerprint its report. A nil factory runs the shards
// in-process; a remote factory runs each as a worker process.
func runFleetCell(seed int64, n, windows, windowSec, shards, workers int, factory shard.RuntimeFactory, profPath string) (FleetBenchRow, error) {
	var row FleetBenchRow
	specs := fleet.DefaultFleet(n, seed, windows, windowSec)
	m, err := shard.New(specs, shard.Options{Shards: shards, Workers: workers, QueueDepth: 4, Runtime: factory})
	if err != nil {
		return row, err
	}
	var prof *os.File
	if profPath != "" {
		if prof, err = os.Create(profPath); err != nil {
			m.Close()
			return row, err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			m.Close()
			return row, err
		}
	}
	start := time.Now()
	m.Start()
	if err := m.Wait(); err != nil {
		if prof != nil {
			pprof.StopCPUProfile()
			prof.Close()
		}
		m.Close()
		return row, err
	}
	wall := time.Since(start).Seconds()
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			m.Close()
			return row, err
		}
	}
	st := m.Status()
	mrep, err := m.Report()
	if err != nil {
		m.Close()
		return row, err
	}
	row = FleetBenchRow{
		Instances:  n,
		Shards:     shards,
		Workers:    m.Workers(),
		Windows:    st.Committed,
		WallSec:    wall,
		ShedRate:   float64(st.Shed) / float64(max(st.Committed, 1)),
		ReportHash: hashReport(mrep),
	}
	if wall > 0 {
		row.WindowsPerSec = float64(st.Committed) / wall
	}
	for _, is := range st.Instances {
		row.PeakQueue = max(row.PeakQueue, is.PeakQueue)
		row.Records += is.Records
	}
	if err := m.Close(); err != nil {
		return row, err
	}
	return row, nil
}

// finishFleetRow fills the baseline-relative columns and appends the row.
func finishFleetRow(row *FleetBenchRow, baseline float64, baseHash string, out *FleetBench) {
	if baseline > 0 {
		row.ShardSpeedup = row.WindowsPerSec / baseline
		if row.Workers > 0 {
			row.ScalingEfficiency = row.ShardSpeedup / float64(row.Workers)
		}
	}
	row.Identical = row.ReportHash == baseHash
	if !row.Identical {
		out.Identical = false
	}
	out.Rows = append(out.Rows, *row)
}

// hashReport fingerprints a fleet report for the cross-shard determinism
// gate (FNV-1a 64, matching the partition function's family).
func hashReport(report string) string {
	h := fnv.New64a()
	h.Write([]byte(report))
	return fmt.Sprintf("%016x", h.Sum64())
}

// Format renders the sweep as a table.
func (b *FleetBench) Format() string {
	var s strings.Builder
	fmt.Fprintf(&s, "Fleet throughput sweep (%ds windows, GOMAXPROCS=%d)\n", b.WindowSec, b.GOMAXPROCS)
	s.WriteString("  instances  shards  workers  mode    windows   wall(s)  win/s   spdup   eff    shed%  peakQ   records  identical\n")
	for _, r := range b.Rows {
		fmt.Fprintf(&s, "  %9d  %6d  %7d  %-6s  %7d  %8.2f  %5.1f  %6.2f  %4.2f  %6.1f  %5d  %8d  %9v\n",
			r.Instances, r.Shards, r.Workers, r.Mode, r.Windows, r.WallSec, r.WindowsPerSec,
			r.ShardSpeedup, r.ScalingEfficiency, r.ShedRate*100, r.PeakQueue, r.Records, r.Identical)
	}
	if !b.Identical {
		s.WriteString("  DIVERGENCE: some cells' reports differ from their instance count's baseline (cross-shard or cross-mode)\n")
	}
	return s.String()
}
