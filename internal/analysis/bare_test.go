package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dlfuzz/internal/lang"
	"dlfuzz/internal/lang/gen"
	"dlfuzz/internal/predict"
	"dlfuzz/internal/sched"
	"dlfuzz/internal/workloads"
)

// observeAllObserved is the reference observation loop: every attempt
// runs under the full pipeline, as observeRun did before later attempts
// ran bare.
func observeAllObserved(prog func(*sched.Ctx), base int64, maxSteps int, withHistory bool) runOutcome {
	ro := runOutcome{seed: base}
	for attempt := 0; attempt < maxObserveAttempts; attempt++ {
		s := base + int64(attempt)
		ro.seed = s
		ro.attempts = attempt + 1

		var p Pipeline
		tracker := p.HB()
		rec := p.LockDeps(tracker)
		stats := p.Stats()
		var hist *predict.History
		if withHistory {
			hist = Attach(&p, predict.NewHistory())
		}
		res := p.Run(prog, Exec{Seed: s, MaxSteps: maxSteps})
		if res.Outcome != sched.Completed {
			if res.Outcome == sched.Deadlock && res.Deadlock != nil {
				ro.deadlocks = append(ro.deadlocks, res.Deadlock)
			}
			continue
		}
		ro.completed = true
		ro.deps = rec.Deps()
		ro.hist = hist
		ro.steps = res.Steps
		ro.events = res.Events
		ro.stats = stats
		return ro
	}
	return ro
}

// bareDiffProgram is one program of the differential, with the step
// bound its suite runs under.
type bareDiffProgram struct {
	name     string
	body     func(*sched.Ctx)
	maxSteps int
}

func bareDiffPrograms(t *testing.T) []bareDiffProgram {
	var progs []bareDiffProgram
	for _, w := range workloads.All() {
		progs = append(progs, bareDiffProgram{"workload/" + w.Name, w.Prog, 0})
	}
	// The blocking models run under a tight bound: spin-not-flagged
	// never completes, so each of its attempts runs to the limit.
	for _, w := range workloads.Blocking() {
		progs = append(progs, bareDiffProgram{"blocking/" + w.Name, w.Prog, 5_000})
	}
	clf := func(name, src string) {
		prog, err := lang.Parse(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		progs = append(progs, bareDiffProgram{name, lang.NewInterp(prog, nil).Main(), 200_000})
	}
	for _, dir := range []string{"testdata", "testdata/corpus"} {
		files, err := filepath.Glob(filepath.Join("..", "..", dir, "*.clf"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: %v (%d files)", dir, err, len(files))
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			clf(dir+"/"+filepath.Base(f), string(src))
		}
	}
	for seed := int64(1); seed <= 8; seed++ {
		clf("large/"+gen.FileName(seed), gen.Generate(seed, gen.Large()))
	}
	return progs
}

// TestBareRetriesMatchObservedReference pins the bare-retry observation
// loop to the reference that observes every attempt: the full campaign
// observation (per-run stats, witnessed deadlocks, attempt, step and
// event totals, candidates) and the merged relation with every run's
// history must be deeply equal, at one and four runs, at widths 1 and
// 4, under a finder without history and one with it.
func TestBareRetriesMatchObservedReference(t *testing.T) {
	if testing.Short() {
		t.Skip("differential over every program")
	}
	cfg := predict.DefaultConfig()
	syncFinder, err := predict.ByName("sync")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range bareDiffPrograms(t) {
		t.Run(p.name, func(t *testing.T) {
			for _, runs := range []int{1, 4} {
				for _, finder := range []predict.CandidateFinder{nil, syncFinder} {
					opts := CampaignOptions{Runs: runs, Parallelism: 1, ClosureParallelism: 1,
						Seed: 1, MaxSteps: p.maxSteps, Finder: finder}
					wantCO, wantObs, wantErr := observeMany(p.body, cfg, opts, observeAllObserved)
					for _, width := range []int{1, 4} {
						opts.Parallelism = width
						gotCO, gotObs, gotErr := observeMany(p.body, cfg, opts, observeRun)
						where := fmt.Sprintf("runs %d, width %d, history %v", runs, width, finder != nil)
						if gotErr != wantErr {
							t.Fatalf("%s: err %v, reference %v", where, gotErr, wantErr)
						}
						if !reflect.DeepEqual(gotCO, wantCO) {
							t.Fatalf("%s: campaign observation differs\ngot  %+v\nwant %+v", where, gotCO, wantCO)
						}
						if !reflect.DeepEqual(gotObs, wantObs) {
							t.Fatalf("%s: merged relation or histories differ", where)
						}
					}
				}
			}
		})
	}
}
