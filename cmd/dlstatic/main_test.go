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

// goldenCase runs the CLI and compares stdout byte-for-byte against a
// golden file. Regenerate with
// `DLFUZZ_UPDATE_GOLDEN=1 go test ./cmd/dlstatic` after an intentional
// format change.
func goldenCase(t *testing.T, goldenName string, args []string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	if code != 0 {
		t.Errorf("exit code = %d, want 0; stderr: %s", code, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Errorf("unexpected stderr: %s", stderr.String())
	}
	golden := filepath.Join("testdata", goldenName)
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

// TestRunPhilosophersGolden pins the static report with the full edge
// list on the dining philosophers.
func TestRunPhilosophersGolden(t *testing.T) {
	goldenCase(t, "philosophers.golden", []string{
		"-edges",
		filepath.Join("..", "..", "testdata", "philosophers.clf"),
	})
}

// TestRunCompareGolden pins the static-vs-dynamic contrast on the
// paper's Figure 1 program: the motivating comparison, byte-for-byte
// (both phases are deterministic for the default seeds).
func TestRunCompareGolden(t *testing.T) {
	goldenCase(t, "fig1-compare.golden", []string{
		"-compare", "-runs", "20",
		filepath.Join("..", "..", "testdata", "fig1.clf"),
	})
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
	if code := run([]string{"-bad-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	stderr.Reset()
	if code := run([]string{"-compare", "-runs", "-1", filepath.Join("..", "..", "testdata", "fig1.clf")}, &stdout, &stderr); code != 2 ||
		strings.Count(stderr.String(), "\n") != 1 {
		t.Errorf("negative -runs: exit %d, stderr %q; want exit 2 and one line", code, stderr.String())
	}
}
