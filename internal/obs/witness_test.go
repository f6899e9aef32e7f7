package obs_test

// Witness round-trip contract: capture → encode → decode → replay must
// reproduce the recorded deadlock, byte-for-byte deterministically, on
// every workload and at every campaign parallelism.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"dlfuzz"
	"dlfuzz/internal/analysis"
	"dlfuzz/internal/campaign"
	"dlfuzz/internal/corpus"
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/harness"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/obs"
	"dlfuzz/internal/sched"
	"dlfuzz/internal/workloads"
)

// confirmedCycle runs Phase I and a serial reproduction campaign on a
// named workload and hands back everything witness capture needs: the
// program, the first candidate cycle, the checker config, and the
// scheduler seed of the first run that reproduced it.
func confirmedCycle(t testing.TB, name string) (func(*sched.Ctx), *igoodlock.Cycle, fuzzer.Config, int64) {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("workload %s missing", name)
	}
	v := harness.DefaultVariant()
	p1, err := analysis.ObserveMany(w.Prog, v.Goodlock, analysis.CampaignOptions{Runs: 1, Seed: 1})
	if err != nil {
		t.Fatalf("%s phase 1: %v", name, err)
	}
	if len(p1.Cycles) == 0 {
		t.Fatalf("%s: no cycles", name)
	}
	cyc := p1.Cycles[0]
	sum := campaign.ConfirmCycles(w.Prog, []*igoodlock.Cycle{cyc}, v.Fuzzer, 60, 0, campaign.Options{Parallelism: 1}).Cycles[0]
	if sum.Example == nil {
		t.Fatalf("%s: cycle not reproduced in 60 runs", name)
	}
	return w.Prog, cyc, v.Fuzzer, sum.ExampleSeed
}

// TestWitnessRoundTrip is the tentpole contract across three workloads:
// the captured witness encodes deterministically, decodes back to the
// same value, and replays to the same deadlock.
func TestWitnessRoundTrip(t *testing.T) {
	for _, name := range []string{"lists", "maps", "dbcp"} {
		t.Run(name, func(t *testing.T) {
			prog, cyc, cfg, seed := confirmedCycle(t, name)
			wit, err := obs.Capture(prog, "workload:"+name, cyc, 0, cfg, seed, 0)
			if err != nil {
				t.Fatalf("capture: %v", err)
			}
			if !wit.Reproduced() {
				t.Fatalf("capture of a reproducing seed has key %q != cycle key %q",
					wit.DeadlockKey, wit.CycleKey)
			}
			var a, b bytes.Buffer
			if err := wit.Encode(&a); err != nil {
				t.Fatalf("encode: %v", err)
			}
			if err := wit.Encode(&b); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatal("two encodings of the same witness differ")
			}
			dec, err := obs.ReadWitness(bytes.NewReader(a.Bytes()))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			var c bytes.Buffer
			if err := dec.Encode(&c); err != nil {
				t.Fatalf("encode decoded: %v", err)
			}
			if !bytes.Equal(a.Bytes(), c.Bytes()) {
				t.Fatal("decode → encode is not byte-stable")
			}

			rep, err := obs.Replay(prog, dec)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if !rep.Reproduced {
				t.Fatal("replay did not reproduce the targeted cycle")
			}
			if rep.DeadlockKey != wit.DeadlockKey {
				t.Fatalf("replay deadlock key %q, want %q", rep.DeadlockKey, wit.DeadlockKey)
			}
		})
	}
}

// captureTarget is one confirmed cycle's witnessing execution: the
// candidate the run was biased toward and its scheduler seed.
type captureTarget struct {
	name   string
	prog   func(*sched.Ctx)
	cycle  *igoodlock.Cycle
	target int
	cfg    fuzzer.Config
	seed   int64
}

// confirmedTargets runs Phase I and a serial 40-run multi-cycle
// campaign on prog and returns the witnessing execution of every
// confirmed cycle, as dlfuzz -witness-dir picks it.
func confirmedTargets(t testing.TB, name string, prog func(*sched.Ctx)) []captureTarget {
	t.Helper()
	v := harness.DefaultVariant()
	p1, err := analysis.ObserveMany(prog, v.Goodlock, analysis.CampaignOptions{Runs: 1, Seed: 1})
	if err != nil || len(p1.Cycles) == 0 {
		return nil
	}
	multi := campaign.ConfirmCycles(prog, p1.Cycles, v.Fuzzer, 40, 0, campaign.Options{Parallelism: 1})
	var out []captureTarget
	for i, sum := range multi.Cycles {
		if !sum.Confirmed() {
			continue
		}
		target, seed := i, sum.ExampleSeed
		if sum.Example == nil {
			target, seed = sum.CrossExampleTarget, sum.CrossExampleSeed
		}
		out = append(out, captureTarget{name: name, prog: prog, cycle: p1.Cycles[target], target: target, cfg: v.Fuzzer, seed: seed})
	}
	return out
}

// workloadTargets covers every confirmed cycle of the built-in
// workloads.
func workloadTargets(t testing.TB) []captureTarget {
	t.Helper()
	var out []captureTarget
	for _, w := range workloads.All() {
		out = append(out, confirmedTargets(t, "workload:"+w.Name, w.Prog)...)
	}
	if len(out) == 0 {
		t.Fatal("no confirmed cycles")
	}
	return out
}

// allConfirmedTargets covers the workloads and the first five programs
// of the committed corpus.
func allConfirmedTargets(t testing.TB) []captureTarget {
	t.Helper()
	out := workloadTargets(t)
	m, err := corpus.Load("../../testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range m.Entries[:5] {
		ref := "testdata/corpus/" + e.File
		src, err := os.ReadFile("../../" + ref)
		if err != nil {
			t.Fatal(err)
		}
		p, err := dlfuzz.ParseCLF(ref, string(src))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, confirmedTargets(t, "clf:"+ref, p.WithOutput(io.Discard).Body())...)
	}
	return out
}

// TestCaptureMatchesPlainRun pins two guarantees over every confirmed
// cycle of the workloads and of five corpus programs. Observers don't
// steer: the capture reaches the exact run a hook-free checker run
// reaches from the same seed. And warm shells are invisible: three
// rounds of captures and replays through the pooled shells, interleaved
// across programs, deeply equal references taken on a fresh scheduler
// and policy.
func TestCaptureMatchesPlainRun(t *testing.T) {
	targets := allConfirmedTargets(t)
	t.Logf("%d confirmed cycles", len(targets))
	if len(targets) < 60 {
		t.Fatalf("only %d confirmed cycles", len(targets))
	}
	wits := make([]*obs.Witness, len(targets))
	reps := make([]*obs.ReplayReport, len(targets))
	for i, c := range targets {
		wit, err := obs.CaptureFresh(c.prog, c.name, c.cycle, c.target, c.cfg, c.seed, 0)
		if err != nil {
			t.Fatalf("%s cycle %d: fresh capture: %v", c.name, c.target, err)
		}
		plain := fuzzer.Run(c.prog, c.cycle, c.cfg, c.seed, 0)
		if wit.DeadlockStep != plain.Result.Deadlock.Step {
			t.Fatalf("%s: capture deadlocked at step %d, plain run at %d",
				c.name, wit.DeadlockStep, plain.Result.Deadlock.Step)
		}
		if got, want := wit.DeadlockKey, fuzzer.DeadlockKey(plain.Result.Deadlock, c.cfg); got != want {
			t.Fatalf("%s: capture deadlock key %q, plain run %q", c.name, got, want)
		}
		if len(wit.Schedule) != plain.Result.Steps {
			t.Fatalf("%s: %d schedule decisions recorded for a %d-step run",
				c.name, len(wit.Schedule), plain.Result.Steps)
		}
		rep, err := obs.ReplayFresh(c.prog, wit)
		if err != nil {
			t.Fatalf("%s: fresh replay: %v", c.name, err)
		}
		wits[i], reps[i] = wit, rep
	}
	for round := 1; round <= 3; round++ {
		for i, c := range targets {
			wit, err := obs.Capture(c.prog, c.name, c.cycle, c.target, c.cfg, c.seed, 0)
			if err != nil {
				t.Fatalf("round %d, %s: capture: %v", round, c.name, err)
			}
			if !reflect.DeepEqual(wit, wits[i]) {
				t.Fatalf("round %d, %s cycle %d: warm capture differs from fresh", round, c.name, c.target)
			}
			rep, err := obs.Replay(c.prog, wit)
			if err != nil {
				t.Fatalf("round %d, %s: replay: %v", round, c.name, err)
			}
			if !reflect.DeepEqual(rep, reps[i]) {
				t.Fatalf("round %d, %s cycle %d: warm replay differs from fresh", round, c.name, c.target)
			}
		}
	}
}

// TestConcurrentCaptures captures and replays from two goroutines at
// once; each borrows its own shell, and every result must equal the
// serial one (run under -race in CI).
func TestConcurrentCaptures(t *testing.T) {
	var targets []captureTarget
	for _, name := range []string{"lists", "dbcp"} {
		w, _ := workloads.ByName(name)
		targets = append(targets, confirmedTargets(t, "workload:"+name, w.Prog)...)
	}
	want := make([]*obs.Witness, len(targets))
	for i, c := range targets {
		wit, err := obs.CaptureFresh(c.prog, c.name, c.cycle, c.target, c.cfg, c.seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = wit
	}
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func(g int) {
			for round := 0; round < 3; round++ {
				for k := range targets {
					i := (k + g*len(targets)/2) % len(targets)
					c := targets[i]
					wit, err := obs.Capture(c.prog, c.name, c.cycle, c.target, c.cfg, c.seed, 0)
					if err == nil && !reflect.DeepEqual(wit, want[i]) {
						err = fmt.Errorf("goroutine %d: %s cycle %d: concurrent capture differs", g, c.name, c.target)
					}
					if err == nil {
						_, err = obs.Replay(c.prog, wit)
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 2; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestWitnessParallelismInvariant captures a witness out of campaigns at
// parallelism 1, 2 and all-cores: the campaign engine's deterministic
// merge means the example seed — and therefore the whole witness file —
// is identical at every setting.
func TestWitnessParallelismInvariant(t *testing.T) {
	w, _ := workloads.ByName("lists")
	v := harness.DefaultVariant()
	p1, err := analysis.ObserveMany(w.Prog, v.Goodlock, analysis.CampaignOptions{Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cyc := p1.Cycles[0]
	var ref []byte
	for _, par := range []int{1, 2, 0} {
		sum := campaign.ConfirmCycles(w.Prog, []*igoodlock.Cycle{cyc}, v.Fuzzer, 60, 0, campaign.Options{Parallelism: par}).Cycles[0]
		if sum.Example == nil {
			t.Fatalf("parallelism %d: not reproduced", par)
		}
		wit, err := obs.Capture(w.Prog, "workload:lists", cyc, 0, v.Fuzzer, sum.ExampleSeed, 0)
		if err != nil {
			t.Fatalf("parallelism %d: capture: %v", par, err)
		}
		var buf bytes.Buffer
		if err := wit.Encode(&buf); err != nil {
			t.Fatalf("parallelism %d: encode: %v", par, err)
		}
		if ref == nil {
			ref = buf.Bytes()
		} else if !bytes.Equal(ref, buf.Bytes()) {
			t.Errorf("parallelism %d: witness differs from serial reference", par)
		}
	}
}

// TestReplayRejectsTamperedSchedule: replay must fail loudly — not
// silently fall back to random scheduling — when the recorded schedule
// does not drive the program where the witness claims.
func TestReplayRejectsTamperedSchedule(t *testing.T) {
	prog, cyc, cfg, seed := confirmedCycle(t, "lists")
	wit, err := obs.Capture(prog, "workload:lists", cyc, 0, cfg, seed, 0)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	wit.Schedule[0] = 97 // no such thread: the first decision diverges
	if _, err := obs.Replay(prog, wit); err == nil {
		t.Fatal("replay of a tampered schedule succeeded")
	}
}

// TestReadWitnessRejectsGarbage covers the reader's validation: a
// non-witness stream and an empty stream must both error.
func TestReadWitnessRejectsGarbage(t *testing.T) {
	if _, err := obs.ReadWitness(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := obs.ReadWitness(bytes.NewReader([]byte(`{"k":"run","seed":3}` + "\n"))); err == nil {
		t.Error("journal line accepted as witness header")
	}
}

// TestWitnessCycleReconstruction checks the decoded witness can rebuild
// an igoodlock.Cycle whose key matches the recorded one, which is what
// replay verification matches the re-executed deadlock against.
func TestWitnessCycleReconstruction(t *testing.T) {
	prog, cyc, cfg, seed := confirmedCycle(t, "maps")
	wit, err := obs.Capture(prog, "workload:maps", cyc, 0, cfg, seed, 0)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	var buf bytes.Buffer
	if err := wit.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := obs.ReadWitness(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := fuzzer.CycleKey(dec.Cycle(), cfg)
	want := fuzzer.CycleKey(cyc, cfg)
	if got != want {
		t.Fatalf("reconstructed cycle key %q, want %q", got, want)
	}
	if !reflect.DeepEqual(dec.Components, wit.Components) {
		t.Fatal("components changed across encode/decode")
	}
}

// FuzzReadWitness holds the witness decoder to the no-panic contract:
// any input either fails with an error or decodes to a witness whose
// checker configuration and target cycle are usable, and which replays
// (to success or an error) against its built-in workload. The committed
// regression seed under testdata/fuzz is a dbcp witness whose config
// says "k":-1, which used to decode and then crash replay with a
// slice-bounds panic in the abstraction.
func FuzzReadWitness(f *testing.F) {
	prog, cyc, cfg, seed := confirmedCycle(f, "dbcp")
	wit, err := obs.Capture(prog, "workload:dbcp", cyc, 0, cfg, seed, 0)
	if err != nil {
		f.Fatalf("capture: %v", err)
	}
	var buf bytes.Buffer
	if err := wit.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := obs.ReadWitness(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := w.Config.FuzzerConfig(); err != nil {
			t.Fatalf("accepted witness has an unusable config: %v", err)
		}
		_ = w.Cycle().Key()
		if name, ok := strings.CutPrefix(w.Program, "workload:"); ok {
			if wl, ok := workloads.ByName(name); ok {
				_, _ = obs.Replay(wl.Prog, w)
			}
		}
	})
}
