package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunUsageErrors pins the usage errors run reports itself, each
// with exit status 2 and a one-line reason on stderr, before any
// campaign or output file is started.
func TestRunUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-runs", "-1"}, "-runs must not be negative"},
		{[]string{"-check-sound"}, "-check-sound requires -bakeoff-json"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", c.args, code)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%q: stderr %q, want it to contain %q", c.args, stderr.String(), c.want)
		}
	}
}

// TestRunImprecision runs the smallest complete study through run and
// checks it reports to the injected stdout.
func TestRunImprecision(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-imprecision", "-runs", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Section 5.4: iGoodlock imprecision on Jigsaw") {
		t.Errorf("stdout lacks the study header:\n%s", stdout.String())
	}
}

// blankWallColumns makes Table 1 comparable across runs: it collapses
// the column padding and blanks the three wall-time columns
// (normal-ms, igoodlock-ms, df-ms) of every data row.
func blankWallColumns(table string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(table, "\n"), "\n") {
		f := strings.Fields(line)
		if len(f) == 12 && f[0] != "program" && !strings.HasPrefix(f[0], "-") {
			f[2], f[3], f[4] = "*", "*", "*"
		}
		b.WriteString(strings.Join(f, " "))
		b.WriteString("\n")
	}
	return b.String()
}

// TestTable1Golden pins dlbench -table 1 through run at -parallel 1 and
// 4 against one golden of stdout (wall-time columns blanked) plus exit
// status. Regenerate with DLFUZZ_UPDATE_GOLDEN=1.
func TestTable1Golden(t *testing.T) {
	golden := filepath.Join("..", "..", "testdata", "golden", "cli", "dlbench-table1.txt")
	var serial string
	for _, width := range []string{"1", "4"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-table", "1", "-parallel", width}, &stdout, &stderr)
		got := fmt.Sprintf("%s[exit %d]\n", blankWallColumns(stdout.String()), code)
		if serial == "" {
			serial = got
		} else if got != serial {
			t.Errorf("-parallel %s diverged from -parallel 1:\n--- parallel 1 ---\n%s\n--- parallel %s ---\n%s",
				width, serial, width, got)
		}
	}
	if os.Getenv("DLFUZZ_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(serial), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with DLFUZZ_UPDATE_GOLDEN=1 to create it)", err)
	}
	if serial != string(want) {
		t.Errorf("output diverged from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, serial, want)
	}
}
