package analysis

import (
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
// loop to the reference that observes every attempt, one observation
// run at a time: observeRun's outcome (seed, attempts, witnessed
// deadlocks, relation, history, step, event and per-kind totals) must
// be deeply equal to the reference's for the run bases of a four-run
// campaign, with and without history. It also holds the campaign at
// width 4 to width 1, through ObserveMany under a finder without
// history and one with it, and through ObserveRelation's merged
// relation and histories.
func TestBareRetriesMatchObservedReference(t *testing.T) {
	if testing.Short() {
		t.Skip("differential over every program")
	}
	cfg := predict.DefaultConfig()
	syncFinder, err := predict.ByName("sync")
	if err != nil {
		t.Fatal(err)
	}
	const runs, seed = 4, 1
	for _, p := range bareDiffPrograms(t) {
		t.Run(p.name, func(t *testing.T) {
			for i := int64(0); i < runs; i++ {
				base := seed + i*maxObserveAttempts
				for _, withHistory := range []bool{false, true} {
					got := observeRun(p.body, base, p.maxSteps, withHistory)
					want := observeAllObserved(p.body, base, p.maxSteps, withHistory)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("run base %d, history %v: outcome differs\ngot  %+v\nwant %+v", base, withHistory, got, want)
					}
				}
			}
			opts := func(width int, finder predict.CandidateFinder) CampaignOptions {
				return CampaignOptions{Runs: runs, Parallelism: width, ClosureParallelism: 1,
					Seed: seed, MaxSteps: p.maxSteps, Finder: finder}
			}
			for _, finder := range []predict.CandidateFinder{nil, syncFinder} {
				want, wantErr := ObserveMany(p.body, cfg, opts(1, finder))
				got, gotErr := ObserveMany(p.body, cfg, opts(4, finder))
				if gotErr != wantErr || !reflect.DeepEqual(got, want) {
					t.Fatalf("ObserveMany, history %v: width 4 differs from width 1\ngot  %+v (%v)\nwant %+v (%v)",
						finder != nil, got, gotErr, want, wantErr)
				}
			}
			wantCO, wantObs, wantErr := ObserveRelation(p.body, cfg, opts(1, nil))
			gotCO, gotObs, gotErr := ObserveRelation(p.body, cfg, opts(4, nil))
			if gotErr != wantErr || !reflect.DeepEqual(gotCO, wantCO) {
				t.Fatalf("ObserveRelation: width 4 campaign differs from width 1\ngot  %+v (%v)\nwant %+v (%v)",
					gotCO, gotErr, wantCO, wantErr)
			}
			if !reflect.DeepEqual(gotObs, wantObs) {
				t.Fatal("ObserveRelation: width 4 merged relation or histories differ from width 1")
			}
		})
	}
}
