package dlfuzz_test

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// alwaysDeadlocks is a CLF program that deadlocks on every schedule:
// each worker holds its first lock before it waits for the other's.
const alwaysDeadlocks = `
fn worker(first, second, mine, theirs) {
    sync (first) {
        signal mine;
        await theirs;
        sync (second) { }
    }
}

fn main() {
    var a = new Object;
    var b = new Object;
    var x = newlatch;
    var y = newlatch;
    var t1 = spawn worker(a, b, x, y);
    var t2 = spawn worker(b, a, y, x);
    join t1;
    join t2;
}
`

// TestExitCodeContract pins the exit status of all four commands, and
// of dlfuzz's run and replay subcommands, as processes: 0 for a clean
// result, 1 for findings (a deadlock found, an observation that
// deadlocked every attempt, a witness that no longer reproduces, a
// failed validation or benchmark gate), 2 for a usage error. dlstatic
// only counts potential cycles and confirms none, so it has no status
// 1.
func TestExitCodeContract(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every command")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := t.TempDir()
	build := exec.Command(goTool, "build", "-o", bin, "./cmd/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	dir := t.TempDir()
	deadlock := filepath.Join(dir, "deadlock.clf")
	if err := os.WriteFile(deadlock, []byte(alwaysDeadlocks), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := t.TempDir() // a corpus directory with no manifest
	// A witness of a program that has changed since the recording: its
	// replay runs out of recorded schedule.
	changed := filepath.Join(dir, "changed.clf")
	stale := filepath.Join(dir, "stale.jsonl")
	if err := os.WriteFile(changed, []byte("fn main() { }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	record := exec.Command(filepath.Join(bin, "dlfuzz"), "run", "-record", stale, changed)
	if out, err := record.CombinedOutput(); err != nil {
		t.Fatalf("dlfuzz run -record: %v\n%s", err, out)
	}
	if err := os.WriteFile(changed, []byte(alwaysDeadlocks), 0o644); err != nil {
		t.Fatal(err)
	}
	// A witness of a program edited since the recording so that its
	// replay reaches a runtime error.
	faulty := filepath.Join(dir, "faulty.clf")
	faultyWit := filepath.Join(dir, "faulty.jsonl")
	if err := os.WriteFile(faulty, []byte("fn main() { var a = 1; var b = 0; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	record = exec.Command(filepath.Join(bin, "dlfuzz"), "run", "-record", faultyWit, faulty)
	if out, err := record.CombinedOutput(); err != nil {
		t.Fatalf("dlfuzz run -record: %v\n%s", err, out)
	}
	if err := os.WriteFile(faulty, []byte("fn main() { var a = 1; var b = a / 0; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		cmd  string
		args []string
		want int
	}{
		{"dlfuzz", []string{"-runs", "5", "testdata/prodcons.clf"}, 0},
		{"dlfuzz", []string{"-runs", "20", "testdata/fig1.clf"}, 1},
		{"dlfuzz", []string{"-runs", "-1", "testdata/fig1.clf"}, 2},
		{"dlfuzz", []string{"-runs", "0", "testdata/fig1.clf"}, 0},
		{"dlfuzz", []string{"-runs", "0", deadlock}, 1},
		{"dlfuzz", []string{"-runs", "0", "-blocking", "testdata/fig1.clf"}, 2},
		{"dlfuzz", []string{"run", "-seed", "3", "testdata/fig1.clf"}, 0},
		{"dlfuzz", []string{"run", deadlock}, 1},
		{"dlfuzz", []string{"run"}, 2},
		{"dlfuzz", []string{"replay", "testdata/golden/witness/fig1.jsonl"}, 0},
		{"dlfuzz", []string{"replay", stale}, 1},
		{"dlfuzz", []string{"replay", faultyWit}, 1},
		{"dlfuzz", []string{"replay"}, 2},
		{"dlstatic", []string{"testdata/fig1.clf"}, 0},
		{"dlstatic", nil, 2},
		{"dlgen", []string{"generate", "-seed", "1"}, 0},
		{"dlgen", []string{"status", "-dir", empty}, 1},
		{"dlgen", nil, 2},
		{"dlbench", []string{"-imprecision", "-runs", "1"}, 0},
		{"dlbench", []string{"-bakeoff-json", filepath.Join(dir, "bakeoff.json"), "-bakeoff-corpus", empty}, 1},
		{"dlbench", []string{"-runs", "-1"}, 2},
		{"dlbench", []string{"-check-sound"}, 2},
	}
	for _, c := range cases {
		cmd := exec.Command(filepath.Join(bin, c.cmd), c.args...)
		out, err := cmd.CombinedOutput()
		got := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			got = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("%s %q: %v", c.cmd, c.args, err)
		}
		if got != c.want {
			t.Errorf("%s %q: exit %d, want %d\n%s", c.cmd, c.args, got, c.want, out)
		}
	}
}
