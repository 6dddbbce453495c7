package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

// header is the host and run description printed before any result.
type header struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Traced     bool     `json:"traced"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	GitCommit  string   `json:"git_commit"`
	BuildID    string   `json:"build_id"`
	Shards     int      `json:"shards"`
	Workers    int      `json:"workers"`
	Tenants    int      `json:"tenants"`
	Generator  genStats `json:"generator"`
}

func newHeader(wd workloadDef, seed int64, traced bool, tenants int, gen genStats) header {
	return header{
		Workload:   wd.name,
		Seed:       seed,
		Traced:     traced,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  gitCommit(),
		BuildID:    buildID(),
		Shards:     wd.shards,
		Workers:    wd.workers,
		Tenants:    tenants,
		Generator:  gen,
	}
}

// gitCommit is the revision the binary was built from, when the build saw
// a git checkout; "unknown" otherwise.
func gitCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// buildID identifies the benchmark binary by its content, so results and
// fingerprints of different code never mix.
func buildID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
