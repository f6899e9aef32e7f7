package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// philosophers is the program the single-run, record and replay tests
// run.
var philosophers = filepath.Join("..", "..", "testdata", "philosophers.clf")

// TestRunCmdPhilosophersGolden pins `dlfuzz run`'s outcome report on the
// dining philosophers at a fixed seed, byte-for-byte. Regenerate with
// `DLFUZZ_UPDATE_GOLDEN=1 go test ./cmd/dlfuzz` after an intentional
// format change.
func TestRunCmdPhilosophersGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"run", "-seed", "3", philosophers}, &stdout, &stderr); code != 0 {
		t.Errorf("exit code = %d, want 0; stderr: %s", code, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Errorf("unexpected stderr: %s", stderr.String())
	}
	checkGolden(t, filepath.Join("testdata", "run-philosophers.golden"), stdout.Bytes())
}

// TestRecordWitnessGolden pins the witness files `dlfuzz run -record`
// writes, for a run that completes and one that deadlocks: a header
// naming the program, seed and step bound with the default checker
// config, no components, the schedule, and the deadlock trailer (empty
// for the completed run). `dlfuzz replay` reproduces both files, and
// internal/obs seeds FuzzReadWitness with them.
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
		if code := run([]string{"run", "-seed", c.seed, "-record", out, philosophers}, &stdout, &stderr); code != c.code {
			t.Fatalf("%s: exit %d, want %d; stderr: %s", c.golden, code, c.code, stderr.String())
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, filepath.Join("testdata", c.golden), got)
	}
}

// TestRunRecordReplayRoundTrip records runs with `dlfuzz run -record`
// and replays them with `dlfuzz replay`: every replay must exit 0 and
// print the outcome and verdict lines the recording run printed. The
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
		if code := run(append([]string{"run", "-record", rec}, args...), &recOut, &recErr); code == 2 {
			t.Fatalf("%v: record run exit 2; stderr: %s", args, recErr.String())
		}
		_, report, _ := strings.Cut(recOut.String(), "outcome: ")
		report, _, _ = strings.Cut("outcome: "+report, "schedule: ")
		var repOut, repErr bytes.Buffer
		code := run([]string{"replay", "-q", rec}, &repOut, &repErr)
		if code != 0 || !strings.Contains(repOut.String(), "\n"+report+"1 of 1 witnesses reproduced\n") {
			t.Errorf("%v: replay exit %d printed\n%s%swant exit 0 and\n%s", args, code, repOut.String(), repErr.String(), report)
		}
	}
}

// TestRunTraceFile checks -trace writes a non-empty JSONL event stream.
func TestRunTraceFile(t *testing.T) {
	traceOut := filepath.Join(t.TempDir(), "trace.jsonl")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"run", "-seed", "3", "-trace", traceOut, philosophers}, &stdout, &stderr); code != 0 {
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
	code := run([]string{"run", "-seed", "3", filepath.Join("..", "..", "testdata", "wgleak.clf")}, &stdout, &stderr)
	if code != 1 {
		t.Errorf("wgleak exit %d, want 1; stderr: %s", code, stderr.String())
	}
	if !bytes.Contains(stdout.Bytes(), []byte("partial deadlock:")) {
		t.Errorf("missing partial-deadlock report:\n%s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"run", filepath.Join("..", "..", "testdata", "pipeline.clf")}, &stdout, &stderr); code != 0 {
		t.Errorf("pipeline exit %d, want 0; stderr: %s", code, stderr.String())
	}
}

// TestRunCmdUsageErrors covers `dlfuzz run`'s non-analysis exit paths.
func TestRunCmdUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"run"}, &stdout, &stderr); code != 2 {
		t.Errorf("no arguments: exit %d, want 2", code)
	}
	if code := run([]string{"run", filepath.Join(t.TempDir(), "missing.clf")}, &stdout, &stderr); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
	stderr.Reset()
	if code := run([]string{"run", "-max-steps", "-1", filepath.Join("..", "..", "testdata", "fig1.clf")}, &stdout, &stderr); code != 2 ||
		strings.Count(stderr.String(), "\n") != 1 {
		t.Errorf("negative -max-steps: exit %d, stderr %q; want exit 2 and one line", code, stderr.String())
	}
	for _, flag := range []string{"-replay", "-tree"} {
		stderr.Reset()
		if code := run([]string{"run", flag, filepath.Join("testdata", "record-deadlock.jsonl"), philosophers}, &stdout, &stderr); code != 2 ||
			!strings.Contains(stderr.String(), "flag provided but not defined: "+flag) {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 for an unknown flag", flag, code, stderr.String())
		}
	}
}
