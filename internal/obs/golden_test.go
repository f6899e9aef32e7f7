package obs_test

// Witness byte goldens: the JSONL a capture encodes is pinned per
// scenario under testdata/golden/witness, so any change to the capture
// path or the encoder that moves one byte fails here. Regenerate with
//
//	DLFUZZ_UPDATE_GOLDEN=1 go test -run TestWitnessGolden ./internal/obs

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dlfuzz"
	"dlfuzz/internal/analysis"
	"dlfuzz/internal/campaign"
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/harness"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/obs"
	"dlfuzz/internal/sched"
	"dlfuzz/internal/workloads"
)

const witnessGoldenDir = "../../testdata/golden/witness"

// goldenCase is one pinned witness: a program, the variant its two
// phases run under, and the checker config overrides the capture uses.
// seed < 0 takes the first reproducing seed of a 60-run campaign;
// otherwise the capture runs at that seed directly.
type goldenCase struct {
	name    string
	ref     string
	prog    func(*sched.Ctx)
	variant harness.Variant
	tweak   func(*fuzzer.Config)
	target  int
	seed    int64
}

// clfBody parses a committed CLF program under the path the CLI would
// name it by, so locations read as in `dlfuzz testdata/NAME.clf`.
func clfBody(t testing.TB, name string) func(*sched.Ctx) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("../../testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	p, err := dlfuzz.ParseCLF("testdata/"+name, string(src))
	if err != nil {
		t.Fatal(err)
	}
	return p.WithOutput(io.Discard).Body()
}

func workloadBody(t testing.TB, name string) func(*sched.Ctx) {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("workload %s missing", name)
	}
	return w.Prog
}

func goldenCases(t testing.TB) []goldenCase {
	vs := harness.Variants()
	return []goldenCase{
		{name: "lists-v2", ref: "workload:lists", prog: workloadBody(t, "lists"), variant: vs[1], seed: -1},
		{name: "dbcp-kobject-budgets", ref: "workload:dbcp", prog: workloadBody(t, "dbcp"), variant: vs[0],
			tweak: func(c *fuzzer.Config) { c.YieldBudget, c.PauseTimeout = 3, 200 }, seed: -1},
		{name: "fig1", ref: "clf:testdata/fig1.clf", prog: clfBody(t, "fig1.clf"), variant: vs[1], seed: -1},
		{name: "philosophers", ref: "clf:testdata/philosophers.clf", prog: clfBody(t, "philosophers.clf"), variant: vs[1], seed: -1},
		// Ignore-context with a 5-step pause timeout: this run thrashes,
		// yields and evicts on its way to the deadlock.
		{name: "swing-thrash-yield-evict", ref: "workload:swing", prog: workloadBody(t, "swing"), variant: vs[3],
			tweak: func(c *fuzzer.Config) { c.PauseTimeout = 5 }, seed: 0},
	}
}

// captureGolden runs Phase I and, when the case asks for it, a serial
// campaign, then captures the case's witness.
func captureGolden(t testing.TB, c goldenCase) *obs.Witness {
	t.Helper()
	p1, err := analysis.ObserveMany(c.prog, c.variant.Goodlock, analysis.CampaignOptions{Runs: 1, Seed: 1})
	if err != nil {
		t.Fatalf("%s phase 1: %v", c.name, err)
	}
	if len(p1.Cycles) <= c.target {
		t.Fatalf("%s: %d cycles, want target %d", c.name, len(p1.Cycles), c.target)
	}
	cyc := p1.Cycles[c.target]
	cfg := c.variant.Fuzzer
	if c.tweak != nil {
		c.tweak(&cfg)
	}
	seed := c.seed
	if seed < 0 {
		sum := campaign.ConfirmCycles(c.prog, []*igoodlock.Cycle{cyc}, cfg, 60, 0, campaign.Options{Parallelism: 1}).Cycles[0]
		if sum.Example == nil {
			t.Fatalf("%s: cycle not reproduced in 60 runs", c.name)
		}
		seed = sum.ExampleSeed
	}
	wit, err := obs.Capture(c.prog, c.ref, cyc, c.target, cfg, seed, 0)
	if err != nil {
		t.Fatalf("%s: capture: %v", c.name, err)
	}
	return wit
}

// TestWitnessGolden pins the encoded bytes of five witnesses, covering
// both non-trivial abstractions, serialized yield budget and pause
// timeout, CLF and Go programs, and all four steering point kinds.
func TestWitnessGolden(t *testing.T) {
	update := os.Getenv("DLFUZZ_UPDATE_GOLDEN") != ""
	if update {
		if err := os.MkdirAll(witnessGoldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range goldenCases(t) {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := captureGolden(t, c).Encode(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(witnessGoldenDir, c.name+".jsonl")
			if update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with DLFUZZ_UPDATE_GOLDEN=1 to capture): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("witness differs from %s:\ngot:\n%s", path, buf.Bytes())
			}
		})
	}
}

// TestReplayRejectsTruncatedSchedules replays every golden witness and
// every strict prefix of its schedule. The full schedule must
// reproduce; a cut one runs out before the program does, and replay
// must report that as a divergence rather than finish the run on
// random decisions.
func TestReplayRejectsTruncatedSchedules(t *testing.T) {
	cut := 0
	for _, c := range goldenCases(t) {
		f, err := os.Open(filepath.Join(witnessGoldenDir, c.name+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		wit, err := obs.ReadWitness(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := obs.Replay(c.prog, wit); err != nil {
			t.Fatalf("%s: full schedule: %v", c.name, err)
		}
		full := wit.Schedule
		for n := range full {
			wit.Schedule = full[:n]
			_, err := obs.Replay(c.prog, wit)
			if err == nil || !strings.Contains(err.Error(), "diverged") {
				t.Errorf("%s: schedule cut to %d of %d decisions: got %v, want a divergence", c.name, n, len(full), err)
			}
			cut++
		}
	}
	t.Logf("%d truncated schedules rejected", cut)
}
