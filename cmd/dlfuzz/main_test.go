package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dlfuzz/internal/lang/gen"
)

// TestRunPhilosophersGolden locks down the CLI's end-to-end output on
// the dining philosophers: the whole report — cycles, campaign totals,
// per-cycle status — is deterministic for a fixed seed range, so it can
// be compared byte-for-byte. Regenerate with
// `DLFUZZ_UPDATE_GOLDEN=1 go test ./cmd/dlfuzz` after an intentional
// output change.
func TestRunPhilosophersGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-runs", "30",
		"-parallel", "2", // byte-identity: any setting gives the golden output
		filepath.Join("..", "..", "testdata", "philosophers.clf"),
	}, &stdout, &stderr)
	if code != 1 {
		t.Errorf("exit code = %d, want 1 (deadlocks found); stderr: %s", code, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Errorf("unexpected stderr: %s", stderr.String())
	}
	checkGolden(t, filepath.Join("testdata", "philosophers.golden"), stdout.Bytes())
}

// TestRunSyncFinderGolden pins the pipeline output under -finder sync:
// the sound predictor's candidates all confirm, and the header names
// the finder.
func TestRunSyncFinderGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-runs", "30",
		"-parallel", "2",
		"-finder", "sync",
		filepath.Join("..", "..", "testdata", "philosophers.clf"),
	}, &stdout, &stderr)
	if code != 1 {
		t.Errorf("exit code = %d, want 1 (deadlocks found); stderr: %s", code, stderr.String())
	}
	checkGolden(t, filepath.Join("testdata", "philosophers-sync.golden"), stdout.Bytes())
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
	stderr.Reset()
	if code := run([]string{"-abs", "bogus", "-workload", "lists"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad abstraction: exit %d, want 2", code)
	}
	stdout.Reset()
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 || stdout.Len() == 0 {
		t.Errorf("-list: exit %d, output %q", code, stdout.String())
	}
	// Negative budgets and depths are usage errors with a one-line
	// message, not silent no-op campaigns or abstraction panics.
	fig1 := filepath.Join("..", "..", "testdata", "fig1.clf")
	for _, args := range [][]string{
		{"-k", "-1", fig1},
		{"-runs", "-3", fig1},
		{"-blocking", "-runs", "-1", fig1},
		{"-p1-runs", "-1", fig1},
		{"-stop-after", "-1", fig1},
		{"-max-cycle-len", "-1", fig1},
	} {
		stdout.Reset()
		stderr.Reset()
		if code := run(args, &stdout, &stderr); code != 2 || strings.Count(stderr.String(), "\n") != 1 || stdout.Len() != 0 {
			t.Errorf("%q: exit %d, stderr %q, stdout %q; want exit 2 and one stderr line", args, code, stderr.String(), stdout.String())
		}
	}
	// The exit-code contract's other two values: 0 clean, 1 findings.
	if code := run([]string{"-workload", "cache4j", "-runs", "5"}, &stdout, &stderr); code != 0 {
		t.Errorf("deadlock-free workload: exit %d, want 0", code)
	}
	if code := run([]string{"-runs", "20", fig1}, &stdout, &stderr); code != 1 {
		t.Errorf("fig1 deadlock: exit %d, want 1", code)
	}
}

// TestWitnessReplayEndToEnd drives the full observability loop through
// the CLI on both program forms: fuzz with -witness-dir and -journal,
// then `dlfuzz replay` every emitted witness and require all of them to
// reproduce their deadlock (exit 0).
func TestWitnessReplayEndToEnd(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"clf-philosophers", []string{filepath.Join("..", "..", "testdata", "philosophers.clf")}},
		{"workload-lists", []string{"-workload", "lists"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			witDir := filepath.Join(dir, "witnesses")
			journal := filepath.Join(dir, "journal.jsonl")
			var stdout, stderr bytes.Buffer
			args := append([]string{
				"-runs", "40", "-parallel", "2",
				"-witness-dir", witDir, "-journal", journal,
			}, tc.args...)
			if code := run(args, &stdout, &stderr); code != 1 {
				t.Fatalf("fuzz exit %d, want 1; stderr: %s", code, stderr.String())
			}
			witnesses, err := filepath.Glob(filepath.Join(witDir, "*.jsonl"))
			if err != nil || len(witnesses) == 0 {
				t.Fatalf("no witness files emitted (%v); stdout:\n%s", err, stdout.String())
			}
			if _, err := os.Stat(journal); err != nil {
				t.Fatalf("journal not written: %v", err)
			}

			stdout.Reset()
			stderr.Reset()
			if code := run([]string{"replay", "-q", witDir}, &stdout, &stderr); code != 0 {
				t.Fatalf("replay exit %d, want 0\nstdout:\n%s\nstderr:\n%s",
					code, stdout.String(), stderr.String())
			}
			want := fmt.Sprintf("%d of %d witnesses reproduced", len(witnesses), len(witnesses))
			if !bytes.Contains(stdout.Bytes(), []byte(want)) {
				t.Errorf("replay output missing %q:\n%s", want, stdout.String())
			}
		})
	}
}

// TestReplayUsageErrors covers the replay subcommand's failure exits.
func TestReplayUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"replay"}, &stdout, &stderr); code != 2 {
		t.Errorf("no arguments: exit %d, want 2", code)
	}
	if code := run([]string{"replay", filepath.Join(t.TempDir(), "missing.jsonl")}, &stdout, &stderr); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
	empty := t.TempDir()
	if code := run([]string{"replay", empty}, &stdout, &stderr); code != 2 {
		t.Errorf("empty directory: exit %d, want 2", code)
	}
}

// TestRunBlockingGolden pins the -blocking campaign's end-to-end output
// on a CLF channel cycle and on a built-in blocking workload: run
// counts, verdict keys, and stuck-thread lines are deterministic for a
// fixed run count at any -parallel setting.
func TestRunBlockingGolden(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		golden string
	}{
		{
			"clf-chancycle",
			[]string{"-blocking", "-runs", "20", "-parallel", "2",
				filepath.Join("..", "..", "testdata", "chancycle.clf")},
			"chancycle-blocking.golden",
		},
		{
			"workload-wgleak",
			[]string{"-blocking", "-runs", "20", "-parallel", "2", "-workload", "wg-forgotten-done"},
			"wgleak-blocking.golden",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			if code != 1 {
				t.Errorf("exit code = %d, want 1 (deadlocks found); stderr: %s", code, stderr.String())
			}
			if stderr.Len() != 0 {
				t.Errorf("unexpected stderr: %s", stderr.String())
			}
			checkGolden(t, filepath.Join("testdata", c.golden), stdout.Bytes())
		})
	}
}

// TestRunBlockingClean: a correct program exits 0 under -blocking.
func TestRunBlockingClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-blocking", "-runs", "10", "-workload", "chan-pipeline-ok"}, &stdout, &stderr)
	if code != 0 {
		t.Errorf("exit code = %d, want 0; stdout: %s stderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "blocked=0") {
		t.Errorf("output missing clean summary: %s", stdout.String())
	}
}

// TestRunSaturationRows pins the multi-seed Phase I saturation rows
// EXPERIMENTS.md quotes: a fixed workload model exhausts its relation in
// the first observation run, while a generated program keeps finding
// cycles after it. Each row is deterministic for a fixed -seed.
func TestRunSaturationRows(t *testing.T) {
	gen5 := filepath.Join(t.TempDir(), "gen-medium-005.clf")
	if err := os.WriteFile(gen5, []byte(gen.Generate(5, gen.Medium())), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{
			"workload-lists",
			[]string{"-workload", "lists", "-p1-runs", "8", "-seed", "1"},
			[]string{
				"observation campaign: 8 of 8 runs completed, 432 raw deps merged to 54\n",
				"new cycles by run: [27 0 0 0 0 0 0 0]\n",
				"potential deadlock cycles: 27 (+0 provably false by happens-before)\n",
			},
		},
		{
			"gen-medium-5",
			[]string{"-p1-runs", "8", "-seed", "1", gen5},
			[]string{
				"observation campaign: 8 of 8 runs completed, 116 raw deps merged to 21\n",
				"new cycles by run: [7 0 5 0 0 0 0 0]\n",
				"potential deadlock cycles: 15 (+0 provably false by happens-before)\n",
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != 1 {
				t.Errorf("exit code = %d, want 1 (deadlocks found); stderr: %s", code, stderr.String())
			}
			for _, line := range c.want {
				if !strings.Contains(stdout.String(), line) {
					t.Errorf("output lacks %q:\n%s", line, stdout.String())
				}
			}
		})
	}
}
