package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dlfuzz/internal/obs"
)

func readWitness(t *testing.T, path string) *obs.Witness {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := obs.ReadWitness(f)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWriteWitnessTargets renders a captured witness, which names its
// target cycle, and the two witnesses `dlfuzz run -record` wrote, which
// target none: those name no target and no targeted-cycle verdict, and
// the one that did not deadlock says so.
func TestWriteWitnessTargets(t *testing.T) {
	recorded := filepath.Join("..", "..", "cmd", "dlfuzz", "testdata")
	for _, c := range []struct {
		path      string
		want, not []string
	}{
		{filepath.Join("..", "..", "testdata", "golden", "witness", "fig1.jsonl"),
			[]string{"target cycle 0, ", "(reproduces the targeted cycle)\n"}, nil},
		{filepath.Join(recorded, "record-deadlock.jsonl"),
			[]string{"(sched seed 13, exec-index/k=10)\n", "  deadlock at step 33\n"},
			[]string{"target cycle", "targeted"}},
		{filepath.Join(recorded, "record-completed.jsonl"),
			[]string{"(sched seed 5, exec-index/k=10)\n", "  no deadlock\n"},
			[]string{"target cycle", "targeted", "deadlock at step"}},
	} {
		var b strings.Builder
		WriteWitness(&b, readWitness(t, c.path))
		out := b.String()
		for _, s := range c.want {
			if !strings.Contains(out, s) {
				t.Errorf("%s: rendering lacks %q:\n%s", c.path, s, out)
			}
		}
		for _, s := range c.not {
			if strings.Contains(out, s) {
				t.Errorf("%s: rendering has %q:\n%s", c.path, s, out)
			}
		}
	}
}
