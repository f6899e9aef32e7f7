package main

import (
	"bytes"
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
