// Command perfbench is PinSQL's benchmark. It generates each workload's
// tenant traces with the simulator before anything is timed, replays them
// through the sharded fleet runtime, checks that the fleet's output is
// correct, and prints every metric by name with its unit. The last line of
// standard output is the JSON result; the exit code is non-zero when a
// correctness gate fails.
//
//	perfbench --workload durable-tenants --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// the separate traced run: one fleet round for the fleet's own layer
// readings, plus a reference pass that drives every tenant window by window
// through the same public calls with a span around each.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one named, unit-carrying value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// buildDir, relative to the repository root the benchmark runs from, holds
// everything a run writes: data directories (removed at exit), spans and
// report fingerprints.
const buildDir = ".bench_build"

// started is when the process began; progress lines carry the time since.
var started = time.Now()

// logf writes a progress line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%6.2fs] %s\n", time.Since(started).Seconds(), fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "durable-tenants", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed the workload's traces are generated from")
	seconds := flag.Int("seconds", 10, "how long the timed part runs, in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.Parse()
	wd, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d); workloads: %s\n", *name, *seconds, *traced, workloadNames())
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	plans := wd.plans(*seed)
	if *traced == 1 {
		// The traced run replays the first trace set only.
		plans = plans[:len(plans)/max(wd.sets, 1)]
	}
	traces, gen, err := generateAll(plans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: generate:", err)
		return 1
	}
	logf("generated %d tenants, %d records, in %.2fs", len(traces), gen.Records, gen.WallS)
	hdr := newHeader(wd, *seed, *traced == 1, len(traces), gen)
	line, _ := json.Marshal(map[string]any{"header": hdr})
	fmt.Println(string(line))

	g := &gates{}
	var out *runOutput
	if *traced == 1 {
		out, err = tracedRun(wd, traces, work, buildDir, *seed, g)
	} else {
		out, err = untracedRun(wd, splitSets(wd, traces), work, *seconds, g)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	checkFingerprint(g, fingerprintPath(buildDir, wd.name, *seed, hdr.BuildID), out.report)
	if err := scoreSecondSeed(g, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	for _, n := range out.notes {
		fmt.Println(n)
	}
	res := out.res
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("metric %-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	res.Correct = len(g.failed) == 0
	last, _ := json.Marshal(res)
	fmt.Println(string(last))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: correctness gates failed: %s\n", strings.Join(g.failed, ", "))
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func sortedKeys[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
