package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// record is one run's full outcome: the result line plus what it was
// measured on. compare reads directories of these.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Env      env    `json:"env"`
	// Slowdown is an untraced run's slowdown over the reference host
	// during its timed loop; the loop's timings were divided by it.
	Slowdown float64 `json:"slowdown,omitempty"`
	Result   *result `json:"result"`
}

// env describes the build and machine a run was measured on. The
// sample count is the result's attempted count.
type env struct {
	GoVersion  string `json:"goVersion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
}

func environment() env {
	e := env{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Commit: "unknown"}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return e
	}
	dirty := false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			e.Commit = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty && e.Commit != "unknown" {
		e.Commit += "-dirty"
	}
	return e
}

// writeJSON writes v to path as indented JSON.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readRecords reads every *.json record in dir.
func readRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no *.json records in %s", dir)
	}
	var out []record
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Result == nil {
			return nil, fmt.Errorf("%s: no result", path)
		}
		out = append(out, r)
	}
	return out, nil
}
