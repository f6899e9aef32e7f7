package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dlfuzz/internal/workloads"
)

// checkGolden compares got with the golden file at path. With
// DLFUZZ_UPDATE_GOLDEN=1 it rewrites the file instead; the same switch
// regenerates every golden in the module.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if os.Getenv("DLFUZZ_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with DLFUZZ_UPDATE_GOLDEN=1 to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output diverged from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// cliGoldenDir holds one golden per CLI case: the command's stdout
// followed by its exit status.
var cliGoldenDir = filepath.Join("..", "..", "testdata", "golden", "cli")

// cliCase is one dlfuzz invocation pinned by a golden; the width flag
// is added by the test.
type cliCase struct {
	golden string
	args   []string
}

// cliCases lists dlfuzz on every testdata CLF program, the first five
// corpus programs and every built-in workload, and dlfuzz -blocking on
// each blocking-suite workload, all at default budgets.
func cliCases(t *testing.T) []cliCase {
	t.Helper()
	testdata := filepath.Join("..", "..", "testdata")
	clf, err := filepath.Glob(filepath.Join(testdata, "*.clf"))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := filepath.Glob(filepath.Join(testdata, "corpus", "*.clf"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(gen)
	if len(gen) < 5 {
		t.Fatalf("corpus has %d programs, want at least 5", len(gen))
	}
	var cases []cliCase
	for _, file := range append(clf, gen[:5]...) {
		name := strings.TrimSuffix(filepath.Base(file), ".clf")
		cases = append(cases, cliCase{"dlfuzz-" + name, []string{file}})
	}
	for _, w := range workloads.All() {
		cases = append(cases, cliCase{"dlfuzz-workload-" + w.Name, []string{"-workload", w.Name}})
	}
	for _, w := range workloads.Blocking() {
		cases = append(cases, cliCase{"dlfuzz-blocking-" + w.Name, []string{"-blocking", "-workload", w.Name}})
	}
	return cases
}

// runGolden drives run at -parallel 1 and 4, requires byte-identical
// stdout and exit status at both widths, and returns them in golden
// form.
func runGolden(t *testing.T, args []string) []byte {
	t.Helper()
	var serial []byte
	for _, width := range []string{"1", "4"} {
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"-parallel", width}, args...), &stdout, &stderr)
		got := []byte(fmt.Sprintf("%s[exit %d]\n", stdout.Bytes(), code))
		if serial == nil {
			serial = got
		} else if !bytes.Equal(got, serial) {
			t.Errorf("-parallel %s diverged from -parallel 1:\n--- parallel 1 ---\n%s\n--- parallel %s ---\n%s",
				width, serial, width, got)
		}
	}
	return serial
}

// TestCLIGolden pins the dlfuzz CLI end to end: every case's stdout
// and exit status, at two campaign widths, against one golden file.
func TestCLIGolden(t *testing.T) {
	for _, c := range cliCases(t) {
		c := c
		t.Run(c.golden, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, filepath.Join(cliGoldenDir, c.golden+".txt"), runGolden(t, c.args))
		})
	}
}
