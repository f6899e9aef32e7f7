package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites golden files instead of comparing against them; the
// same DLFUZZ_UPDATE_GOLDEN=1 switch regenerates every golden in the
// module.
var update = os.Getenv("DLFUZZ_UPDATE_GOLDEN") != ""

// TestRunPhilosophersGolden pins the single-run outcome report on the
// dining philosophers at a fixed seed, byte-for-byte. Regenerate with
// `DLFUZZ_UPDATE_GOLDEN=1 go test ./cmd/clfrun` after an intentional
// format change.
func TestRunPhilosophersGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-seed", "3",
		filepath.Join("..", "..", "testdata", "philosophers.clf"),
	}, &stdout, &stderr)
	if code != 0 {
		t.Errorf("exit code = %d, want 0; stderr: %s", code, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Errorf("unexpected stderr: %s", stderr.String())
	}
	golden := filepath.Join("testdata", "philosophers.golden")
	if update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with DLFUZZ_UPDATE_GOLDEN=1 to create it)", err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("output diverged from golden file:\n--- got ---\n%s\n--- want ---\n%s", stdout.Bytes(), want)
	}
}

// TestRunRecordReplayRoundTrip records a schedule, replays it, and
// requires the replayed outcome line to match the recorded run exactly
// (and not to warn about divergence).
func TestRunRecordReplayRoundTrip(t *testing.T) {
	prog := filepath.Join("..", "..", "testdata", "philosophers.clf")
	sched := filepath.Join(t.TempDir(), "sched.json")

	var recOut, recErr bytes.Buffer
	recCode := run([]string{"-seed", "5", "-record", sched, prog}, &recOut, &recErr)
	if recCode != 0 && recCode != 1 {
		t.Fatalf("record run exit %d; stderr: %s", recCode, recErr.String())
	}

	var repOut, repErr bytes.Buffer
	repCode := run([]string{"-replay", sched, prog}, &repOut, &repErr)
	if repCode != recCode {
		t.Errorf("replay exit %d, recorded run exit %d; stderr: %s", repCode, recCode, repErr.String())
	}
	if bytes.Contains(repOut.Bytes(), []byte("diverged")) {
		t.Errorf("replay diverged:\n%s", repOut.String())
	}
	recLine, _, _ := bytes.Cut(recOut.Bytes(), []byte("\n"))
	repLine, _, _ := bytes.Cut(repOut.Bytes(), []byte("\n"))
	if !bytes.Equal(recLine, repLine) {
		t.Errorf("replayed outcome %q != recorded outcome %q", repLine, recLine)
	}
}

// TestRunTraceFile checks -trace writes a non-empty JSONL event stream.
func TestRunTraceFile(t *testing.T) {
	traceOut := filepath.Join(t.TempDir(), "trace.jsonl")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-seed", "3", "-trace", traceOut,
		filepath.Join("..", "..", "testdata", "philosophers.clf"),
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
		filepath.Join("..", "..", "testdata", "philosophers.clf")}, &stdout, &stderr); code != 2 {
		t.Errorf("missing schedule: exit %d, want 2", code)
	}
	stderr.Reset()
	if code := run([]string{"-max-steps", "-1", filepath.Join("..", "..", "testdata", "fig1.clf")}, &stdout, &stderr); code != 2 ||
		strings.Count(stderr.String(), "\n") != 1 {
		t.Errorf("negative -max-steps: exit %d, stderr %q; want exit 2 and one line", code, stderr.String())
	}
}

// TestRunTreeFlagIdentical pins the -tree escape hatch: the
// tree-walking back end must produce the identical outcome report (and
// exit code) to the default bytecode VM on the same seed.
func TestRunTreeFlagIdentical(t *testing.T) {
	prog := filepath.Join("..", "..", "testdata", "dense.clf")
	for _, seed := range []string{"0", "3", "11"} {
		var vmOut, vmErr, twOut, twErr bytes.Buffer
		vmCode := run([]string{"-seed", seed, prog}, &vmOut, &vmErr)
		twCode := run([]string{"-seed", seed, "-tree", prog}, &twOut, &twErr)
		if vmCode != twCode {
			t.Errorf("seed %s: exit %d (vm) != %d (tree); stderr: %s / %s",
				seed, vmCode, twCode, vmErr.String(), twErr.String())
		}
		if !bytes.Equal(vmOut.Bytes(), twOut.Bytes()) {
			t.Errorf("seed %s: output diverged:\n--- vm ---\n%s--- tree ---\n%s",
				seed, vmOut.String(), twOut.String())
		}
	}
}
