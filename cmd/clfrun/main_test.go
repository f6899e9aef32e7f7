package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// update rewrites golden files instead of comparing against them; the
// same DLFUZZ_UPDATE_GOLDEN=1 switch regenerates every golden in the
// module.
var update = os.Getenv("DLFUZZ_UPDATE_GOLDEN") != ""

// philosophers is the program the record, replay and golden tests run.
var philosophers = filepath.Join("..", "..", "testdata", "philosophers.clf")

// TestRunPhilosophersGolden pins the single-run outcome report on the
// dining philosophers at a fixed seed, byte-for-byte. Regenerate with
// `DLFUZZ_UPDATE_GOLDEN=1 go test ./cmd/clfrun` after an intentional
// format change.
func TestRunPhilosophersGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-seed", "3",
		philosophers,
	}, &stdout, &stderr)
	if code != 0 {
		t.Errorf("exit code = %d, want 0; stderr: %s", code, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Errorf("unexpected stderr: %s", stderr.String())
	}
	checkGolden(t, filepath.Join("testdata", "philosophers.golden"), stdout.Bytes())
}

// checkGolden compares got with the golden file at path, or rewrites
// the file under DLFUZZ_UPDATE_GOLDEN=1.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with DLFUZZ_UPDATE_GOLDEN=1 to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output diverged from golden file %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestRecordWitnessGolden pins the witness files -record writes, for
// a run that completes and one that deadlocks: a header naming the
// program, seed and step bound with the default checker config, no
// components, the schedule, and the deadlock trailer (empty for the
// completed run). cmd/dlfuzz replays both files, and internal/obs
// seeds FuzzReadWitness with them.
func TestRecordWitnessGolden(t *testing.T) {
	for _, c := range []struct {
		golden, seed string
		code         int
	}{
		{"record-completed.jsonl", "5", 0},
		{"record-deadlock.jsonl", "13", 1},
	} {
		out := filepath.Join(t.TempDir(), c.golden)
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-seed", c.seed, "-record", out, philosophers}, &stdout, &stderr); code != c.code {
			t.Fatalf("%s: exit %d, want %d; stderr: %s", c.golden, code, c.code, stderr.String())
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, filepath.Join("testdata", c.golden), got)
	}
}

// TestReplayCapturedWitness replays a witness dlfuzz captured for a
// Phase II deadlock: the plain replay must reach the same deadlock
// without leaving the recorded schedule.
func TestReplayCapturedWitness(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-replay", filepath.Join("..", "..", "testdata", "golden", "witness", "fig1.jsonl"),
		filepath.Join("..", "..", "testdata", "fig1.clf"),
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "outcome: deadlock ") || strings.Contains(stdout.String(), "diverged") {
		t.Errorf("want the deadlock outcome and no divergence warning:\n%s", stdout.String())
	}
}

// TestRunRecordReplayRoundTrip records runs and replays them, and
// requires the replay to exit as the recorded run did and print what it
// printed, save the schedule line, with no divergence warning. The
// replay takes its seed and step bound from the witness: philosophers
// recorded under -max-steps 20 stops at the same step limit. On
// notify.clf, single notifies wake one of three waiters, a choice the
// replay must make as the recording did although it draws nothing from
// the RNG.
func TestRunRecordReplayRoundTrip(t *testing.T) {
	cases := [][]string{
		{"-seed", "5", philosophers},
		{"-seed", "5", "-max-steps", "20", philosophers},
	}
	for seed := 0; seed <= 30; seed++ {
		cases = append(cases, []string{"-seed", strconv.Itoa(seed), filepath.Join("testdata", "notify.clf")})
	}
	for _, args := range cases {
		rec := filepath.Join(t.TempDir(), "run.jsonl")
		var recOut, recErr bytes.Buffer
		recCode := run(append([]string{"-record", rec}, args...), &recOut, &recErr)
		if recCode == 2 {
			t.Fatalf("%v: record run exit 2; stderr: %s", args, recErr.String())
		}
		var repOut, repErr bytes.Buffer
		repCode := run([]string{"-replay", rec, args[len(args)-1]}, &repOut, &repErr)
		recorded, _, _ := strings.Cut(recOut.String(), "schedule: ")
		if repCode != recCode || repOut.String() != recorded {
			t.Errorf("%v: replay exit %d printed\n%swant exit %d and\n%s", args, repCode, repOut.String(), recCode, recorded)
		}
	}
}

// TestRunTraceFile checks -trace writes a non-empty JSONL event stream.
func TestRunTraceFile(t *testing.T) {
	traceOut := filepath.Join(t.TempDir(), "trace.jsonl")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-seed", "3", "-trace", traceOut,
		philosophers,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(traceOut)
	if err != nil || len(data) == 0 {
		t.Errorf("trace file empty or unreadable: %v", err)
	}
}

// TestRunBlockedExitCode pins the exit-code contract for blocking
// verdicts: a run that stalls with a partial deadlock exits 1 and
// prints the BlockedInfo line; a healthy blocking program exits 0.
func TestRunBlockedExitCode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-seed", "3",
		filepath.Join("..", "..", "testdata", "wgleak.clf"),
	}, &stdout, &stderr)
	if code != 1 {
		t.Errorf("wgleak exit %d, want 1; stderr: %s", code, stderr.String())
	}
	if !bytes.Contains(stdout.Bytes(), []byte("partial deadlock:")) {
		t.Errorf("missing partial-deadlock report:\n%s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	code = run([]string{
		filepath.Join("..", "..", "testdata", "pipeline.clf"),
	}, &stdout, &stderr)
	if code != 0 {
		t.Errorf("pipeline exit %d, want 0; stderr: %s", code, stderr.String())
	}
}

// TestRunUsageErrors covers the non-analysis exit paths.
func TestRunUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no arguments: exit %d, want 2", code)
	}
	if code := run([]string{filepath.Join(t.TempDir(), "missing.clf")}, &stdout, &stderr); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
	if code := run([]string{"-replay", filepath.Join(t.TempDir(), "missing.json"),
		philosophers}, &stdout, &stderr); code != 2 {
		t.Errorf("missing schedule: exit %d, want 2", code)
	}
	stderr.Reset()
	if code := run([]string{"-max-steps", "-1", filepath.Join("..", "..", "testdata", "fig1.clf")}, &stdout, &stderr); code != 2 ||
		strings.Count(stderr.String(), "\n") != 1 {
		t.Errorf("negative -max-steps: exit %d, stderr %q; want exit 2 and one line", code, stderr.String())
	}
	stderr.Reset()
	dir := t.TempDir()
	if code := run([]string{"-replay", filepath.Join("testdata", "record-deadlock.jsonl"), "-record", filepath.Join(dir, "out.jsonl"),
		philosophers}, &stdout, &stderr); code != 2 || strings.Count(stderr.String(), "\n") != 1 {
		t.Errorf("-replay with -record: exit %d, stderr %q; want exit 2 and one line", code, stderr.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "out.jsonl")); err == nil {
		t.Error("-replay with -record wrote the record file")
	}
	for _, set := range [][]string{{"-seed", "5"}, {"-max-steps", "20"}} {
		stderr.Reset()
		args := append(set, "-replay", filepath.Join("testdata", "record-deadlock.jsonl"), philosophers)
		if code := run(args, &stdout, &stderr); code != 2 || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%s with -replay: exit %d, stderr %q; want exit 2 and one line", set[0], code, stderr.String())
		}
	}
	stderr.Reset()
	if code := run([]string{"-tree", philosophers}, &stdout, &stderr); code != 2 ||
		!strings.Contains(stderr.String(), "flag provided but not defined: -tree") {
		t.Errorf("-tree: exit %d, stderr %q; want exit 2 for an unknown flag", code, stderr.String())
	}
}
