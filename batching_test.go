package dlfuzz_test

// Differential suite for the batched-Work scheduler protocol. Ctx.Work
// posts one batched request and receives its n grants without n channel
// handshakes; Options.UnbatchedWork forces the reference protocol of one
// Step request per step. The two protocols must be indistinguishable to
// everything above the scheduler: same event streams, same Results, same
// campaign reports at every parallelism. These tests pin that equivalence
// over every built-in workload and every committed CLF program, and guard
// the batch path's allocation rate.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dlfuzz"
	"dlfuzz/internal/campaign"
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/sched"
	"dlfuzz/internal/workloads"
)

// eventRecorder captures the full event stream of one execution.
type eventRecorder struct {
	events []sched.Ev
}

func (r *eventRecorder) OnEvent(ev sched.Ev) { r.events = append(r.events, ev) }

// diffProgs collects every program the differential suite runs: the
// built-in workloads, the hand-written testdata CLF programs, and the
// committed generated corpus.
func diffProgs(t *testing.T) map[string]func(*sched.Ctx) {
	t.Helper()
	progs := make(map[string]func(*sched.Ctx))
	for _, w := range workloads.All() {
		progs["workload/"+w.Name] = w.Prog
	}
	for _, pattern := range []string{"*.clf", filepath.Join("corpus", "gen-*.clf")} {
		files, err := filepath.Glob(filepath.Join("testdata", pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := dlfuzz.ParseCLF(file, string(src))
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			progs["clf/"+filepath.Base(file)] = prog.Body()
		}
	}
	if len(progs) < 10 {
		t.Fatalf("differential corpus suspiciously small: %d programs", len(progs))
	}
	return progs
}

// TestBatchedWorkSchedDifferential runs every program under both
// protocols at several seeds and requires byte-identical executions:
// the same Result (reflect.DeepEqual, including the deadlock witness)
// and the same event stream, event by event.
func TestBatchedWorkSchedDifferential(t *testing.T) {
	for name, prog := range diffProgs(t) {
		name, prog := name, prog
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{0, 1, 7, 42} {
				run := func(unbatched bool) (*sched.Result, []sched.Ev) {
					rec := &eventRecorder{}
					res := sched.New(sched.Options{
						Seed:          seed,
						Observers:     []sched.Observer{rec},
						UnbatchedWork: unbatched,
					}).Run(prog)
					return res, rec.events
				}
				bres, bevents := run(false)
				ures, uevents := run(true)
				if !reflect.DeepEqual(bres, ures) {
					t.Fatalf("seed %d: results diverged\nbatched   %+v\nunbatched %+v", seed, bres, ures)
				}
				if !reflect.DeepEqual(bevents, uevents) {
					for i := range bevents {
						if i >= len(uevents) || !reflect.DeepEqual(bevents[i], uevents[i]) {
							t.Fatalf("seed %d: event %d diverged\nbatched   %+v\nunbatched %+v",
								seed, i, bevents[i], uevents[i])
						}
					}
					t.Fatalf("seed %d: event streams diverged in length: %d vs %d",
						seed, len(bevents), len(uevents))
				}
			}
		})
	}
}

// TestBatchedWorkCampaignDifferential extends the equivalence through
// Phase II: for each workload, one multi-cycle campaign per protocol at
// parallelism 1, 2 and 4 must produce reflect.DeepEqual summaries and
// byte-equal rendered reports.
func TestBatchedWorkCampaignDifferential(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			find, err := dlfuzz.Find(w.Prog, dlfuzz.DefaultFindOptions())
			if err != nil {
				t.Fatal(err)
			}
			if len(find.Cycles) == 0 {
				t.Skipf("%s reports no cycles", w.Name)
			}
			cfg := fuzzer.DefaultConfig()
			unbatched := cfg
			unbatched.UnbatchedWork = true
			const runs = 24
			for _, par := range []int{1, 2, 4} {
				opts := campaign.Options{Parallelism: par}
				bsum := campaign.ConfirmCycles(w.Prog, find.Cycles, cfg, runs, 0, opts)
				usum := campaign.ConfirmCycles(w.Prog, find.Cycles, unbatched, runs, 0, opts)
				if !reflect.DeepEqual(bsum, usum) {
					t.Fatalf("parallelism %d: summaries diverged\nbatched   %+v\nunbatched %+v",
						par, bsum, usum)
				}
				if br, ur := fmt.Sprintf("%+v", bsum), fmt.Sprintf("%+v", usum); br != ur {
					t.Fatalf("parallelism %d: rendered reports diverged\nbatched   %s\nunbatched %s",
						par, br, ur)
				}
			}
		})
	}
}

// TestBatchedWorkAllocations guards the batch path's allocation rate: a
// pooled execution of the Work-heavy lists workload must stay under one
// allocation per scheduling decision. (The bench module's
// alloc_kb_per_check and sched.allocs_per_step track allocation across
// the whole check; this is the in-tree regression tripwire for the
// scheduler itself.)
func TestBatchedWorkAllocations(t *testing.T) {
	w, ok := workloads.ByName("lists")
	if !ok {
		t.Fatal("lists workload missing")
	}
	pool := sched.NewPool()
	res := pool.Run(sched.Options{Seed: 1}, w.Prog)
	if res.Steps == 0 {
		t.Fatal("lists run took no steps")
	}
	allocs := testing.AllocsPerRun(50, func() {
		pool.Run(sched.Options{Seed: 1}, w.Prog)
	})
	if perStep := allocs / float64(res.Steps); perStep > 1.0 {
		t.Errorf("pooled batched run allocates %.3f per step (%.0f allocs / %d steps); want <= 1.0",
			perStep, allocs, res.Steps)
	}
}
