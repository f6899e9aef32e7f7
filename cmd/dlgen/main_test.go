package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"dlfuzz/internal/lang/gen"
)

// TestGenerateDeterministicOutput pins the CLI's generate path: the
// printed program is exactly gen.Generate's output for the same flags.
func TestGenerateDeterministicOutput(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"generate", "-seed", "7", "-preset", "small"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	want := gen.Generate(7, gen.Small())
	if out.String() != want {
		t.Fatalf("generate output differs from gen.Generate(7, small)")
	}
}

// TestHarvestStatusRoundTrip drives harvest into a temp corpus and then
// re-validates it through status -check, all via the CLI surface.
func TestHarvestStatusRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "corpus")
	var out, errw bytes.Buffer
	code := run([]string{"harvest", "-dir", dir, "-seeds", "15", "-max-programs", "4",
		"-confirm-runs", "3"}, &out, &errw)
	if code != 0 {
		t.Fatalf("harvest: exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "programs") {
		t.Fatalf("harvest summary missing: %s", out.String())
	}

	out.Reset()
	errw.Reset()
	if code := run([]string{"status", "-dir", dir, "-check"}, &out, &errw); code != 0 {
		t.Fatalf("status -check: exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "validation: ok") {
		t.Fatalf("status -check did not report validation: %s", out.String())
	}
}

// TestMinimizeCLI minimizes a generated file and checks the result is
// still a program (the key-preservation property itself is covered by
// the corpus package tests).
func TestMinimizeCLI(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "prog.clf")
	var out, errw bytes.Buffer
	if code := run([]string{"generate", "-seed", "5", "-o", file}, &out, &errw); code != 0 {
		t.Fatalf("generate -o: exit %d, stderr: %s", code, errw.String())
	}
	out.Reset()
	errw.Reset()
	if code := run([]string{"minimize", file}, &out, &errw); code != 0 {
		t.Fatalf("minimize: exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "fn main()") {
		t.Fatal("minimized output lost fn main")
	}
	if !strings.Contains(errw.String(), "keys preserved") {
		t.Fatalf("minimize summary missing: %s", errw.String())
	}
}

// TestUsageErrors pins the exit-code contract for bad invocations.
func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"frobnicate"},
		{"generate", "-preset", "jumbo"},
		{"minimize"},
		{"harvest", "-p1-runs", "-1"},
		{"harvest", "-max-steps", "-1"},
		{"minimize", "-p1-runs", "-2", "x.clf"},
		{"minimize", "-max-steps", "-2", "x.clf"},
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

// TestStatusMissingCorpus pins exit 1 when the corpus does not exist.
func TestStatusMissingCorpus(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"status", "-dir", filepath.Join(t.TempDir(), "nope")}, &out, &errw); code != 1 {
		t.Fatalf("status on missing corpus: exit %d, want 1", code)
	}
}
