package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dlfuzz/internal/lang/gen"
	"dlfuzz/internal/obs"
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
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no arguments: exit %d, want 2", code)
	}
	if code := run([]string{filepath.Join(t.TempDir(), "missing.clf")}, &stdout, &stderr); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
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

// TestRunPhaseIOnly pins -runs 0: the report is the full pipeline's
// report cut before its Phase II section, and the flags that only
// Phase II or -blocking use are a one-line usage error that writes no
// file.
func TestRunPhaseIOnly(t *testing.T) {
	var full, stdout, stderr bytes.Buffer
	if code := run([]string{"-runs", "30", philosophers}, &full, &stderr); code != 1 {
		t.Fatalf("full pipeline: exit %d, want 1; stderr: %s", code, stderr.String())
	}
	phase1, _, ok := strings.Cut(full.String(), "\n== "+philosophers+": Phase II")
	if !ok {
		t.Fatalf("full pipeline printed no Phase II section:\n%s", full.String())
	}
	if code := run([]string{"-runs", "0", philosophers}, &stdout, &stderr); code != 0 {
		t.Errorf("-runs 0: exit %d, want 0; stderr: %s", code, stderr.String())
	}
	if stdout.String() != phase1 {
		t.Errorf("-runs 0 output:\n%s\nwant the full report's Phase I section:\n%s", stdout.String(), phase1)
	}

	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.jsonl")
	witDir := filepath.Join(dir, "witnesses")
	for _, args := range [][]string{
		{"-runs", "0", "-journal", journal, philosophers},
		{"-runs", "0", "-witness-dir", witDir, philosophers},
		{"-runs", "0", "-blocking", philosophers},
	} {
		stdout.Reset()
		stderr.Reset()
		if code := run(args, &stdout, &stderr); code != 2 || strings.Count(stderr.String(), "\n") != 1 || stdout.Len() != 0 {
			t.Errorf("%q: exit %d, stderr %q, stdout %q; want exit 2 and one stderr line", args, code, stderr.String(), stdout.String())
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("usage errors left files behind: %v (%v)", entries, err)
	}
}

// TestRunPhaseIOnlyUsageErrors covers the non-analysis exit paths of a
// Phase I-only run (-runs 0): bad inputs are exit 2, and an unknown
// finder names the registered ones.
func TestRunPhaseIOnlyUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-runs", "0", "-workload", "no-such-workload"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
	stderr.Reset()
	if code := run([]string{"-runs", "0", "-finder", "no-such-finder", "-workload", "lists"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown finder: exit %d, want 2", code)
	}
	if !bytes.Contains(stderr.Bytes(), []byte("igoodlock")) {
		t.Errorf("unknown-finder error does not list the registered finders: %s", stderr.String())
	}
	if code := run([]string{"-runs", "0"}, &stdout, &stderr); code != 2 {
		t.Errorf("no program: exit %d, want 2", code)
	}
	if code := run([]string{"-runs", "0", filepath.Join(t.TempDir(), "missing.clf")}, &stdout, &stderr); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
	fig1 := filepath.Join("..", "..", "testdata", "fig1.clf")
	for _, args := range [][]string{
		{"-runs", "0", "-k", "-1", fig1},
		{"-runs", "0", "-p1-runs", "-1", fig1},
		{"-runs", "0", "-max-cycle-len", "-1", fig1},
	} {
		stdout.Reset()
		stderr.Reset()
		if code := run(args, &stdout, &stderr); code != 2 || strings.Count(stderr.String(), "\n") != 1 || stdout.Len() != 0 {
			t.Errorf("%q: exit %d, stderr %q, stdout %q; want exit 2 and one stderr line", args, code, stderr.String(), stdout.String())
		}
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

// TestReplayRecordedWitness replays the witness files `dlfuzz run
// -record` writes (TestRecordWitnessGolden's goldens). Both reproduce
// and print the outcome report the recording run printed: the
// deadlocking run renders without naming a target cycle, and the
// completed run reproduces its completion. The completed witness
// diverges with its schedule cut short, and against a program that
// ends before the schedule is spent: a FAIL line, the divergence error
// on stderr, exit 1.
func TestReplayRecordedWitness(t *testing.T) {
	deadlock := filepath.Join("testdata", "record-deadlock.jsonl")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"replay", deadlock}, &stdout, &stderr); code != 0 {
		t.Fatalf("deadlock witness: exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "\noutcome: deadlock (") || !strings.Contains(out, "1 of 1 witnesses reproduced") ||
		strings.Contains(out, "target cycle") || strings.Contains(out, "different cycle than targeted") {
		t.Errorf("deadlock witness rendering:\n%s", out)
	}

	stdout.Reset()
	stderr.Reset()
	completed := filepath.Join("testdata", "record-completed.jsonl")
	if code := run([]string{"replay", "-q", completed}, &stdout, &stderr); code != 0 {
		t.Fatalf("completed witness: exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	want := "ok   " + completed + ": run reproduced at step 52\n" +
		"outcome: completed (52 steps, 56 events, 4 threads, 7 objects)\n" +
		"1 of 1 witnesses reproduced\n"
	if stdout.String() != want || stderr.Len() != 0 {
		t.Errorf("completed witness: stdout %q, stderr %q; want stdout %q", stdout.String(), stderr.String(), want)
	}

	// Two changes to the recorded run: its schedule cut short, and a
	// program that ends before the schedule is spent.
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.clf")
	if err := os.WriteFile(empty, []byte("fn main() { }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, change := range map[string]func(*obs.Witness){
		"truncated": func(w *obs.Witness) { w.Schedule = w.Schedule[:len(w.Schedule)/2] },
		"shorter":   func(w *obs.Witness) { w.Program = "clf:" + empty },
	} {
		wit, err := readWitnessFile(completed)
		if err != nil {
			t.Fatal(err)
		}
		change(wit)
		path := filepath.Join(dir, name+".jsonl")
		if err := writeFile(path, wit.Encode); err != nil {
			t.Fatal(err)
		}
		stdout.Reset()
		stderr.Reset()
		if code := run([]string{"replay", path}, &stdout, &stderr); code != 1 {
			t.Fatalf("%s witness: exit %d, want 1\nstdout:\n%s\nstderr:\n%s", name, code, stdout.String(), stderr.String())
		}
		if !strings.HasPrefix(stdout.String(), "FAIL "+path+"\n") ||
			!strings.HasPrefix(stderr.String(), "dlfuzz replay: "+path+": obs: replay diverged from the recorded schedule after ") {
			t.Errorf("%s witness: stdout %q, stderr %q", name, stdout.String(), stderr.String())
		}
	}
}

// TestReplayRuntimeError replays witnesses whose programs were edited
// after the recording so that the replay reaches a CLF runtime error: a
// division by zero, and a channel misuse the scheduler aborts on. Each
// is a witness that no longer reproduces: a FAIL line, the positioned
// message on stderr, and exit 1, while the other witnesses of the
// directory still replay.
func TestReplayRuntimeError(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct{ name, recorded, edited string }{
		{"div", "fn main() {\n    var a = 1;\n    var b = 0;\n}\n", "fn main() {\n    var a = 1;\n    var b = a / 0;\n}\n"},
		{"misuse", "fn main() {\n    var ch = newchan;\n    close ch;\n}\n", "fn main() {\n    var ch = newchan;\n    close ch; close ch;\n}\n"},
	} {
		src := filepath.Join(dir, c.name+".clf")
		if err := os.WriteFile(src, []byte(c.recorded), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run([]string{"run", "-record", filepath.Join(dir, c.name+".jsonl"), src}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: record exit %d\n%s", c.name, code, stderr.String())
		}
		if err := os.WriteFile(src, []byte(c.edited), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"run", "-record", filepath.Join(dir, "ok.jsonl"), "-seed", "5", "-max-steps", "20", philosophers}, &stdout, &stderr); code != 0 {
		t.Fatalf("record exit %d\n%s", code, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"replay", "-q", dir}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	div, misuse := filepath.Join(dir, "div.jsonl"), filepath.Join(dir, "misuse.jsonl")
	for _, want := range []string{"FAIL " + div + "\n", "FAIL " + misuse + "\n", "ok   " + filepath.Join(dir, "ok.jsonl") + ": run reproduced", "1 of 3 witnesses reproduced\n"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
	wantErr := "dlfuzz replay: " + div + ": " + filepath.Join(dir, "div.clf") + ":3:15: runtime error: division by zero\n" +
		"dlfuzz replay: " + misuse + ": " + filepath.Join(dir, "misuse.clf") + ":3:1: runtime error: t0 closes closed channel o2:Chan@" + filepath.Join(dir, "misuse.clf") + ":2\n"
	if stderr.String() != wantErr {
		t.Errorf("stderr:\n%s\nwant:\n%s", stderr.String(), wantErr)
	}
}

// TestReplayDirWithJournal replays a directory that holds a journal
// beside the witnesses, as `-witness-dir W -journal W/journal.jsonl`
// leaves it: the journal is skipped with one stderr line, and every
// witness reproduces.
func TestReplayDirWithJournal(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.jsonl")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-runs", "30", "-witness-dir", dir, "-journal", journal, philosophers}, &stdout, &stderr); code != 1 {
		t.Fatalf("fuzz exit %d, want 1; stderr: %s", code, stderr.String())
	}
	witnesses, err := filepath.Glob(filepath.Join(dir, "cycle-*.jsonl"))
	if err != nil || len(witnesses) == 0 {
		t.Fatalf("no witness files emitted (%v); stdout:\n%s", err, stdout.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"replay", "-q", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("replay exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	want := fmt.Sprintf("%d of %d witnesses reproduced\n", len(witnesses), len(witnesses))
	if !strings.HasSuffix(stdout.String(), want) {
		t.Errorf("replay output lacks %q:\n%s", want, stdout.String())
	}
	if got := stderr.String(); strings.Count(got, "\n") != 1 || !strings.Contains(got, "skipping "+journal+": ") {
		t.Errorf("stderr %q, want one line skipping the journal", got)
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
	// A journal is not a witness: named on the command line it is an
	// error, and a directory holding nothing else has no witnesses.
	journal := filepath.Join(empty, "journal.jsonl")
	if err := os.WriteFile(journal, []byte(`{"k":"journal"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, arg := range []string{journal, empty} {
		if code := run([]string{"replay", arg}, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", arg, code)
		}
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
