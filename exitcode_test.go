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

// TestExitCodeContract pins the exit status of all six commands as
// processes: 0 for a clean result, 1 for findings (a deadlock found, an
// observation that deadlocked every attempt, a failed validation or
// benchmark gate), 2 for a usage error. dlstatic only counts potential
// cycles and confirms none, so it has no status 1.
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

	cases := []struct {
		cmd  string
		args []string
		want int
	}{
		{"dlfuzz", []string{"-runs", "5", "testdata/prodcons.clf"}, 0},
		{"dlfuzz", []string{"-runs", "20", "testdata/fig1.clf"}, 1},
		{"dlfuzz", []string{"-runs", "-1", "testdata/fig1.clf"}, 2},
		{"igoodlock", []string{"testdata/fig1.clf"}, 0},
		{"igoodlock", []string{deadlock}, 1},
		{"igoodlock", []string{"-workload", "no-such-workload"}, 2},
		{"clfrun", []string{"-seed", "3", "testdata/fig1.clf"}, 0},
		{"clfrun", []string{deadlock}, 1},
		{"clfrun", nil, 2},
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
