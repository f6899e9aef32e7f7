package obs_test

// Witness round-trip contract: capture → encode → decode → replay must
// reproduce the recorded deadlock, byte-for-byte deterministically, on
// every workload and at every campaign parallelism.

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dlfuzz/internal/analysis"
	"dlfuzz/internal/campaign"
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

// TestCaptureMatchesPlainRun pins the observers-don't-steer guarantee:
// the instrumented capture execution must reach the exact run result a
// hook-free checker run reaches from the same seed.
func TestCaptureMatchesPlainRun(t *testing.T) {
	prog, cyc, cfg, seed := confirmedCycle(t, "lists")
	plain := fuzzer.Run(prog, cyc, cfg, seed, 0)
	wit, err := obs.Capture(prog, "workload:lists", cyc, 0, cfg, seed, 0)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	if wit.DeadlockStep != plain.Result.Deadlock.Step {
		t.Fatalf("capture deadlocked at step %d, plain run at %d",
			wit.DeadlockStep, plain.Result.Deadlock.Step)
	}
	if got, want := wit.DeadlockKey, fuzzer.DeadlockKey(plain.Result.Deadlock, cfg); got != want {
		t.Fatalf("capture deadlock key %q, plain run %q", got, want)
	}
	if len(wit.Schedule) != plain.Result.Steps {
		t.Fatalf("%d schedule decisions recorded for a %d-step run",
			len(wit.Schedule), plain.Result.Steps)
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
