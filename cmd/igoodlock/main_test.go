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

// TestRunPhilosophersGolden pins the Phase I report format on the dining
// philosophers, mirroring the dlfuzz golden test: a multi-run campaign
// at an explicit parallelism (byte-identical at any width) compared
// byte-for-byte against testdata/philosophers.golden. Regenerate with
// `DLFUZZ_UPDATE_GOLDEN=1 go test ./cmd/igoodlock` after an intentional
// format change.
func TestRunPhilosophersGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-runs", "4",
		"-parallel", "2",
		"-deps",
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

// TestRunSyncFinderGolden pins the report under -finder sync: same
// format, fewer (sound) cycles. Regenerate with
// `DLFUZZ_UPDATE_GOLDEN=1 go test ./cmd/igoodlock`.
func TestRunSyncFinderGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-runs", "4",
		"-parallel", "2",
		"-finder", "sync",
		filepath.Join("..", "..", "testdata", "philosophers.clf"),
	}, &stdout, &stderr)
	if code != 0 {
		t.Errorf("exit code = %d, want 0; stderr: %s", code, stderr.String())
	}
	golden := filepath.Join("testdata", "philosophers-sync.golden")
	if update {
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

// TestRunUsageErrors covers the non-analysis exit paths.
func TestRunUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "no-such-workload"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
	stderr.Reset()
	if code := run([]string{"-finder", "no-such-finder", "-workload", "lists"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown finder: exit %d, want 2", code)
	}
	if !bytes.Contains(stderr.Bytes(), []byte("igoodlock")) {
		t.Errorf("unknown-finder error does not list the registered finders: %s", stderr.String())
	}
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no arguments: exit %d, want 2", code)
	}
	if code := run([]string{filepath.Join(t.TempDir(), "missing.clf")}, &stdout, &stderr); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
	fig1 := filepath.Join("..", "..", "testdata", "fig1.clf")
	for _, args := range [][]string{
		{"-k", "-1", fig1},
		{"-runs", "-1", fig1},
		{"-max-cycle-len", "-1", fig1},
	} {
		stderr.Reset()
		if code := run(args, &stdout, &stderr); code != 2 || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%q: exit %d, stderr %q; want exit 2 and one line", args, code, stderr.String())
		}
	}
}
