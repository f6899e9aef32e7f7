// Command dlbench regenerates the paper's evaluation: Table 1 and all
// four graphs of Figure 2, printed as text tables. EXPERIMENTS.md in the
// repository root records a reference run next to the paper's numbers.
//
//	dlbench                  # everything (paper-scale: 100 runs/cycle)
//	dlbench -table 1         # just Table 1
//	dlbench -fig 2a          # one Figure 2 graph
//	dlbench -imprecision     # the Section 5.4 Jigsaw imprecision study
//	dlbench -runs 20         # smaller campaigns
//	dlbench -parallel 1      # serial campaigns (same numbers, slower)
//	dlbench -stop-after 5    # stop a cycle's campaign at 5 reproductions
//	dlbench -pipeline-json BENCH_pipeline.json -workload lists \
//	        -cpuprofile cpu.out -memprofile mem.out   # profile one workload
//	dlbench -pipeline-json BENCH_pipeline.json \
//	        -metrics-out BENCH_metrics.txt   # + campaign metrics snapshot
//	dlbench -bakeoff-json BENCH_bakeoff.json  # Phase I finder bakeoff
//	dlbench -bakeoff-json BENCH_bakeoff.json -bakeoff-entries 5 -check-sound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dlfuzz"
	"dlfuzz/internal/analysis"
	"dlfuzz/internal/campaign"
	"dlfuzz/internal/cliflag"
	"dlfuzz/internal/harness"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/lang/gen"
	"dlfuzz/internal/lockset"
	"dlfuzz/internal/obs"
	"dlfuzz/internal/report"
	"dlfuzz/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command with its I/O injected. Exit status: 0
// success, 1 a failed benchmark or gate (an I/O error, a sound finder
// with unconfirmed candidates), 2 usage error.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("dlbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table        = fs.String("table", "", "regenerate one table (\"1\")")
		fig          = fs.String("fig", "", "regenerate one figure graph (\"2a\", \"2b\", \"2c\", \"2d\")")
		imprecision  = fs.Bool("imprecision", false, "run the Section 5.4 imprecision study on Jigsaw")
		pipelineJSON = fs.String("pipeline-json", "", "write a machine-readable Check benchmark over the Figure-2 workloads to this file and exit")
		phase1JSON   = fs.String("phase1-json", "", "write a machine-readable Phase I campaign + sharded closure benchmark to this file and exit")
		bakeoffJSON  = fs.String("bakeoff-json", "", "write a Phase I finder bakeoff over the committed corpus to this file and exit")
		bakeoffDir   = fs.String("bakeoff-corpus", "testdata/corpus", "corpus directory for -bakeoff-json")
		bakeoffN     = fs.Int("bakeoff-entries", 0, "cap corpus entries for -bakeoff-json (0 = all)")
		checkSound   = fs.Bool("check-sound", false, "with -bakeoff-json: fail if a sound finder has Phase-II-unconfirmed candidates")
		workload     = fs.String("workload", "", "restrict -pipeline-json to one workload (useful with the profile flags)")
		runs         = fs.Int("runs", 100, "Phase II execution budget per workload (shared across its cycles)")
		p1runs       = fs.Int("p1-runs", 1, "Phase I observation runs per workload (-phase1-json defaults to 8)")
		p1par        = fs.Int("p1-parallel", 0, "Phase I campaign and closure workers (0 = all cores); results are identical")
		genSeeds     = fs.Int("gen-seeds", 0, "with -phase1-json: also bench Phase I over N generated programs (medium preset, seeds 1..N)")
		maxCycles    = fs.Int("max-cycles", 0, "cap cycles per benchmark (0 = all)")
		parallel     = fs.Int("parallel", 0, "campaign workers (0 = all cores, 1 = serial); results are identical")
		stopAfter    = fs.Int("stop-after", 0, "stop each campaign after N targeted reproductions (0 = run all seeds)")
		metricsOut   = fs.String("metrics-out", "", "write an expvar-style campaign metrics snapshot of the -pipeline-json run to this file")
		cpuprofile   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile   = fs.String("memprofile", "", "write a heap profile at exit to this file")
	)
	if err := cliflag.Parse(fs, args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "dlbench:", err)
		return 1
	}

	// A bad -workload is a usage error: report it like flag parsing does
	// (exit status 2, message on stderr) and list what would have worked.
	// Validated before the profile files are created, so a typo does not
	// leave truncated profile output behind. CLF refs ("clf:PATH",
	// "clf/NAME") are resolved later, against the filesystem.
	if *workload != "" && !strings.HasPrefix(*workload, "clf") {
		if _, ok := figure2Workload(*workload); !ok {
			fmt.Fprintf(stderr, "dlbench: unknown workload %q\nvalid workloads: %s\n",
				*workload, strings.Join(figure2WorkloadNames(), ", "))
			return 2
		}
	}
	if *checkSound && *bakeoffJSON == "" {
		fmt.Fprintln(stderr, "dlbench: -check-sound requires -bakeoff-json")
		return 2
	}
	if *metricsOut != "" && *pipelineJSON == "" {
		fmt.Fprintln(stderr, "dlbench: -metrics-out requires -pipeline-json")
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			if err := writeHeapProfile(*memprofile); err != nil && code == 0 {
				code = fail(err)
			}
		}()
	}

	var err error
	if *bakeoffJSON != "" {
		err = bakeoffBench(stdout, *bakeoffJSON, *bakeoffDir, *bakeoffN, *runs, *parallel, *checkSound)
	} else {
		err = regenerate(stdout, *table, *fig, *imprecision, *pipelineJSON, *phase1JSON, *workload, *metricsOut,
			*runs, *maxCycles, *parallel, *stopAfter, *p1runs, *p1par, *genSeeds)
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// writeHeapProfile writes a heap profile of the settled heap to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle the heap so the profile shows retained state
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// bakeoffBench writes BENCH_bakeoff.json: every registered Phase I
// finder over the committed corpus, each finder's candidates confirmed
// by the same Phase II budget, so precision (false-positive rate) and
// closure cost are tracked side by side across revisions. With
// checkSound it doubles as the CI gate: a finder that declares itself
// sound must have zero Phase-II-unconfirmed candidates.
func bakeoffBench(w io.Writer, path, dir string, maxEntries, confirmRuns, parallel int, checkSound bool) error {
	// The default -runs (100, the Phase II paper budget) is excessive per
	// bakeoff candidate; unless overridden, let RunBakeoff pick its
	// default of 5 confirmations per candidate.
	if confirmRuns == 100 {
		confirmRuns = 0
	}
	b, err := harness.RunBakeoff(dir, harness.BakeoffOptions{
		ConfirmRuns: confirmRuns,
		MaxEntries:  maxEntries,
		Parallelism: parallel,
		Log:         func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) },
	})
	if err != nil {
		return err
	}
	for _, f := range b.Finders {
		fmt.Fprintf(w, "finder %-10s sound=%-5v candidates=%-4d confirmed=%-4d unconfirmed=%-3d fp-rate=%.2f closure=%.1fms\n",
			f.Finder, f.Sound, f.Candidates, f.Confirmed, f.Unconfirmed, f.FalsePositiveRate, f.ClosureMs)
	}
	if err := b.WriteJSON(path); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d corpus entries, %d confirm runs per candidate)\n", path, b.Entries, b.ConfirmRuns)
	if checkSound {
		for _, f := range b.Finders {
			if f.Sound && f.Unconfirmed > 0 {
				return fmt.Errorf("sound finder %q has %d unconfirmed candidates", f.Finder, f.Unconfirmed)
			}
		}
		fmt.Fprintln(w, "check-sound: every sound finder confirmed all of its candidates")
	}
	return nil
}

// regenerate writes the paper's tables and figures, or one of the
// machine-readable benchmarks, to w.
func regenerate(w io.Writer, table, fig string, imprecision bool, pipelineJSON, phase1JSON, workload, metricsOut string, runs, maxCycles, parallel, stopAfter, p1runs, p1par, genSeeds int) error {
	copts := campaign.Options{Parallelism: parallel, StopAfter: stopAfter}

	if pipelineJSON != "" {
		return pipelineBench(w, pipelineJSON, metricsOut, workload, runs, parallel, p1runs, p1par)
	}
	if phase1JSON != "" {
		return phase1Bench(w, phase1JSON, p1runs, p1par, genSeeds)
	}

	all := table == "" && fig == "" && !imprecision
	if table == "1" || all {
		if err := table1(w, runs, maxCycles, parallel, stopAfter); err != nil {
			return err
		}
	}
	wantFig := func(name string) bool { return all || fig == name }
	if wantFig("2a") || wantFig("2b") || wantFig("2c") {
		points, err := harness.BuildFigure2(runs, maxCycles, 0, copts)
		if err != nil {
			return err
		}
		report.WriteFigure2(w, points)
	}
	if wantFig("2d") {
		points, err := harness.BuildCorrelation(runs, maxCycles, 0, copts)
		if err != nil {
			return err
		}
		report.WriteCorrelation(w, points)
	}
	if imprecision || all {
		if err := imprecisionStudy(w, runs, copts); err != nil {
			return err
		}
	}
	return nil
}

func table1(w io.Writer, runs, maxCycles, parallel, stopAfter int) error {
	fmt.Fprintln(w, "Table 1: two-phase results per benchmark")
	opt := harness.Table1Options{
		Runs: runs, BaselineRuns: runs, MaxCycles: maxCycles,
		Parallelism: parallel, StopAfter: stopAfter,
	}
	var rows []harness.Table1Row
	for _, wl := range workloads.All() {
		row, err := harness.BuildTable1Row(wl, opt)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	report.WriteTable1(w, rows)
	fmt.Fprintln(w)
	return nil
}

// imprecisionStudy reproduces Section 5.4: how many of Jigsaw's
// potential cycles are provably false (happens-before ordered) and how
// many the checker confirms.
func imprecisionStudy(w io.Writer, runs int, copts campaign.Options) error {
	wl, _ := workloads.ByName("jigsaw")
	v := harness.DefaultVariant()
	p1, err := analysis.ObserveMany(wl.Prog, v.Goodlock, analysis.CampaignOptions{Runs: 1, Seed: 1})
	if err != nil {
		return err
	}
	// One multi-cycle campaign covers all of Jigsaw's candidates with a
	// runs-per-cycle budget equivalent to the old per-cycle loop.
	multi := campaign.ConfirmCycles(wl.Prog, p1.Cycles, v.Fuzzer, runs*len(p1.Cycles), 0, copts)
	confirmed := len(multi.Confirmed())
	total := len(p1.Cycles) + len(p1.FalsePositives)
	fmt.Fprintln(w, "Section 5.4: iGoodlock imprecision on Jigsaw")
	fmt.Fprintf(w, "  potential cycles reported:        %d\n", total)
	fmt.Fprintf(w, "  confirmed real by DeadlockFuzzer: %d\n", confirmed)
	fmt.Fprintf(w, "  provably false (happens-before):  %d\n", len(p1.FalsePositives))
	fmt.Fprintf(w, "  undetermined:                     %d\n", total-confirmed-len(p1.FalsePositives))
	fmt.Fprintln(w, "  (paper: 283 reported, 29 confirmed, 18 provably false, rest undetermined)")
	return nil
}

// pipelineRow is one workload's entry in BENCH_pipeline.json.
type pipelineRow struct {
	Workload string `json:"workload"`
	// Interp marks CLF rows with the interpreter back end ("vm" or
	// "tree"); Go-coded workloads leave it empty.
	Interp     string `json:"interp,omitempty"`
	Cycles     int    `json:"cycles"`
	Confirmed  int    `json:"confirmed"`
	Executions int    `json:"executions"`
	Steps      int    `json:"steps"`
	// Phase1Ms times observation + closure, Phase2Ms the confirmation
	// campaign; WallMs is their sum (the whole Check).
	Phase1Ms int64 `json:"phase1Ms"`
	Phase2Ms int64 `json:"phase2Ms"`
	WallMs   int64 `json:"wallMs"`
	// StepsPerSec is Phase II scheduler throughput (campaign steps over
	// the Phase II wall time); AllocsPerStep is heap allocations per
	// step over the whole pipeline (runtime mallocs delta / Steps). Both
	// are machine-dependent, unlike Executions and Steps.
	StepsPerSec   float64 `json:"stepsPerSec"`
	AllocsPerStep float64 `json:"allocsPerStep"`
}

// figure2Workload looks a benchmark up by name.
func figure2Workload(name string) (workloads.Workload, bool) {
	for _, w := range harness.Figure2Benchmarks() {
		if w.Name == name {
			return w, true
		}
	}
	return workloads.Workload{}, false
}

// figure2WorkloadNames lists the valid -workload values in bench order.
func figure2WorkloadNames() []string {
	var names []string
	for _, w := range harness.Figure2Benchmarks() {
		names = append(names, w.Name)
	}
	return names
}

// pipelineBench runs the full Check pipeline on the Figure-2 workloads
// (or just the -workload one) and writes a machine-readable benchmark
// file, so the cost of the multi-cycle campaign (executions, steps, wall
// time, allocation rate) is tracked across revisions. The two phases run
// (and are timed) separately, so a regression report can say which one
// moved. Executions and Steps are deterministic for a fixed runs value;
// the wall-time columns, StepsPerSec and AllocsPerStep are
// machine-dependent.
func pipelineBench(w io.Writer, path, metricsOut, only string, runs, parallel, p1runs, p1par int) error {
	type doc struct {
		Runs        int           `json:"runs"`
		Parallelism int           `json:"parallelism"`
		P1Runs      int           `json:"p1Runs"`
		Gomaxprocs  int           `json:"gomaxprocs"`
		Workloads   []pipelineRow `json:"workloads"`
	}
	// Gomaxprocs qualifies the machine-dependent columns: StepsPerSec is
	// a serial-hot-path number and the closure speedups in the phase1
	// bench only mean anything with more than one core.
	out := doc{Runs: runs, Parallelism: parallel, P1Runs: max(p1runs, 1), Gomaxprocs: runtime.GOMAXPROCS(0)}
	// One metrics accumulator spans every workload's campaign, so the
	// snapshot describes the whole benchmark run. Left nil (no per-run
	// hook, no timing) unless -metrics-out asks for it.
	var metrics *obs.Metrics
	if metricsOut != "" {
		metrics = &obs.Metrics{}
	}
	// benchOne runs the full Check pipeline (Phase I observe + Phase II
	// confirm) on one body and measures it into a row. The raw Phase II
	// duration and malloc delta come back alongside, so the CLF aggregate
	// rows can sum them without re-rounding.
	benchOne := func(name, interp string, body func(*dlfuzz.Ctx)) (pipelineRow, time.Duration, uint64, error) {
		opts := dlfuzz.DefaultCheckOptions()
		opts.Find.Runs = p1runs
		opts.Find.Parallelism = p1par
		opts.Confirm.Runs = runs
		opts.Confirm.Parallelism = parallel
		if metrics != nil {
			opts.Confirm.OnRun = metrics.Record
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		find, err := dlfuzz.Find(body, opts.Find)
		phase1 := time.Since(start)
		if err != nil {
			return pipelineRow{}, 0, 0, fmt.Errorf("pipeline bench %s: %w", name, err)
		}
		start = time.Now()
		multi := dlfuzz.ConfirmAll(body, find.Cycles, opts.Confirm)
		phase2 := time.Since(start)
		runtime.ReadMemStats(&after)
		row := pipelineRow{
			Workload:   name,
			Interp:     interp,
			Cycles:     len(find.Cycles),
			Confirmed:  len(multi.Confirmed()),
			Executions: multi.Executions,
			Steps:      multi.Steps,
			Phase1Ms:   phase1.Milliseconds(),
			Phase2Ms:   phase2.Milliseconds(),
			WallMs:     (phase1 + phase2).Milliseconds(),
		}
		mallocs := after.Mallocs - before.Mallocs
		if row.Steps > 0 {
			row.StepsPerSec = math.Round(float64(row.Steps) / phase2.Seconds())
			row.AllocsPerStep = math.Round(float64(mallocs)/float64(row.Steps)*1000) / 1000
		}
		return row, phase2, mallocs, nil
	}
	for _, wl := range harness.Figure2Benchmarks() {
		if only != "" && wl.Name != only {
			continue
		}
		row, _, _, err := benchOne(wl.Name, "", wl.Prog)
		if err != nil {
			return err
		}
		out.Workloads = append(out.Workloads, row)
	}
	clfRows, err := clfPipelineRows(only, benchOne)
	if err != nil {
		return err
	}
	out.Workloads = append(out.Workloads, clfRows...)
	if only != "" && len(out.Workloads) == 0 {
		return fmt.Errorf("pipeline bench: unknown workload %q", only)
	}
	if metrics != nil {
		f, err := os.Create(metricsOut)
		if err != nil {
			return err
		}
		if err := metrics.WriteSnapshot(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", metricsOut)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return f.Close()
}

// clfCorpusDir is where the committed CLF corpus lives, relative to the
// repository root dlbench runs from.
const clfCorpusDir = "testdata/corpus"

// clfBenchExtras are committed non-corpus programs every full sweep
// benches alongside the corpus. The minimized corpus entries are
// lock-dense (nearly every statement is a scheduling point), which
// bounds any interpreter's advantage by the shared handshake cost;
// dense.clf is compute-bound, so the pair brackets the VM-vs-tree
// ratio from both sides. Extras stay out of the clf/corpus aggregate.
var clfBenchExtras = []string{"testdata/dense.clf"}

// clfPipelineRows benches the CLF hot path: every committed corpus
// program (plus an explicit `clf:PATH` -workload ref) runs the same
// Check pipeline as the Go workloads, once per interpreter back end, so
// BENCH_pipeline.json tracks bytecode-VM vs tree-walker throughput side
// by side. Two aggregate rows (clf/corpus@vm, clf/corpus@tree) sum the
// per-entry campaigns; their stepsPerSec ratio is the corpus-wide VM
// speedup the docs quote. The -workload filter composes: a Go workload
// name selects no CLF rows, "clf/NAME" selects one corpus entry, and
// "clf:PATH" benches a program outside the corpus.
func clfPipelineRows(only string, benchOne func(name, interp string, body func(*dlfuzz.Ctx)) (pipelineRow, time.Duration, uint64, error)) ([]pipelineRow, error) {
	type clfProg struct {
		name  string
		prog  *dlfuzz.Program
		extra bool // non-corpus extra: benched, but outside the corpus aggregate
	}
	var progs []clfProg
	load := func(name, path string) error {
		src, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("pipeline bench %s: %w", name, err)
		}
		p, err := dlfuzz.ParseCLF(filepath.Base(path), string(src))
		if err != nil {
			return fmt.Errorf("pipeline bench %s: %w", name, err)
		}
		progs = append(progs, clfProg{name: name, prog: p})
		return nil
	}
	switch {
	case strings.HasPrefix(only, "clf:"):
		path := strings.TrimPrefix(only, "clf:")
		name := "clf/" + strings.TrimSuffix(filepath.Base(path), ".clf")
		if err := load(name, path); err != nil {
			return nil, err
		}
	case only == "" || strings.HasPrefix(only, "clf/"):
		files, err := filepath.Glob(filepath.Join(clfCorpusDir, "gen-*.clf"))
		if err != nil {
			return nil, err
		}
		for _, file := range files {
			name := "clf/" + strings.TrimSuffix(filepath.Base(file), ".clf")
			if only != "" && only != name {
				continue
			}
			if err := load(name, file); err != nil {
				return nil, err
			}
		}
		for _, path := range clfBenchExtras {
			name := "clf/" + strings.TrimSuffix(filepath.Base(path), ".clf")
			if only != "" && only != name {
				continue
			}
			if err := load(name, path); err != nil {
				return nil, err
			}
			progs[len(progs)-1].extra = true
		}
		if only != "" && len(progs) == 0 {
			return nil, fmt.Errorf("pipeline bench: no corpus entry %q in %s", only, clfCorpusDir)
		}
	default:
		return nil, nil // a Go -workload restriction selects no CLF rows
	}
	var rows []pipelineRow
	for _, interp := range []string{"vm", "tree"} {
		var ncorpus int
		var steps, execs int
		var cycles, confirmed int
		var wall time.Duration
		var p1ms int64
		var mallocs uint64
		for _, cp := range progs {
			body := cp.prog.Body()
			if interp == "tree" {
				body = cp.prog.TreeWalkBody()
			}
			row, phase2, m, err := benchOne(cp.name+"@"+interp, interp, body)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
			if cp.extra {
				continue
			}
			ncorpus++
			steps += row.Steps
			execs += row.Executions
			cycles += row.Cycles
			confirmed += row.Confirmed
			wall += phase2
			p1ms += row.Phase1Ms
			mallocs += m
		}
		if ncorpus > 1 {
			agg := pipelineRow{
				Workload:   "clf/corpus@" + interp,
				Interp:     interp,
				Cycles:     cycles,
				Confirmed:  confirmed,
				Executions: execs,
				Steps:      steps,
				Phase1Ms:   p1ms,
				Phase2Ms:   wall.Milliseconds(),
				WallMs:     p1ms + wall.Milliseconds(),
			}
			if steps > 0 {
				agg.StepsPerSec = math.Round(float64(steps) / wall.Seconds())
				agg.AllocsPerStep = math.Round(float64(mallocs)/float64(steps)*1000) / 1000
			}
			rows = append(rows, agg)
		}
	}
	return rows, nil
}

// phase1Row is one workload's entry in BENCH_phase1.json: the campaign's
// dedup and saturation stats plus its wall time.
type phase1Row struct {
	Workload       string `json:"workload"`
	Runs           int    `json:"runs"`
	Completed      int    `json:"completed"`
	RawDeps        int    `json:"rawDeps"`
	MergedDeps     int    `json:"mergedDeps"`
	Cycles         int    `json:"cycles"`
	FalsePositives int    `json:"falsePositives"`
	NewCyclesByRun []int  `json:"newCyclesByRun"`
	Phase1Ms       int64  `json:"phase1Ms"`
}

// closureTiming is the sharded-closure benchmark on the synthetic wide
// relation at one cycle-length bound: serial wall time vs 2 and 4
// workers, plus the 4-worker speedup. On a single-core host the speedup
// hovers around 1.0 (the Gomaxprocs field says so); the differential
// tests assert the outputs are byte-identical regardless.
type closureTiming struct {
	MaxLen   int     `json:"maxLen"`
	Cycles   int     `json:"cycles"`
	SerialMs int64   `json:"serialMs"`
	W2Ms     int64   `json:"w2Ms"`
	W4Ms     int64   `json:"w4Ms"`
	Speedup4 float64 `json:"speedup4"`
}

// phase1Bench writes BENCH_phase1.json: multi-seed campaign stats for
// the saturation workloads (plus genSeeds generated programs, whose
// newCyclesByRun curves keep discovering where the fixed models flatten
// after run 1) and wall-time measurements of the sharded closure on the
// synthetic wide relation.
func phase1Bench(w io.Writer, path string, p1runs, p1par, genSeeds int) error {
	if p1runs <= 1 {
		p1runs = 8
	}
	type doc struct {
		P1Runs      int             `json:"p1Runs"`
		Parallelism int             `json:"parallelism"`
		Gomaxprocs  int             `json:"gomaxprocs"`
		Workloads   []phase1Row     `json:"workloads"`
		Closure     []closureTiming `json:"closure"`
	}
	out := doc{P1Runs: p1runs, Parallelism: p1par, Gomaxprocs: runtime.GOMAXPROCS(0)}

	for _, name := range []string{"lists", "maps", "dbcp"} {
		wl, ok := workloads.ByName(name)
		if !ok {
			return fmt.Errorf("phase1 bench: unknown workload %q", name)
		}
		opts := dlfuzz.DefaultFindOptions()
		opts.Seed = 1
		opts.Runs = p1runs
		opts.Parallelism = p1par
		start := time.Now()
		rep, err := dlfuzz.Find(wl.Prog, opts)
		wall := time.Since(start)
		if err != nil {
			return fmt.Errorf("phase1 bench %s: %w", name, err)
		}
		out.Workloads = append(out.Workloads, phase1Row{
			Workload:       name,
			Runs:           rep.ObservationRuns,
			Completed:      rep.CompletedRuns,
			RawDeps:        rep.RawDeps,
			MergedDeps:     rep.Deps,
			Cycles:         len(rep.Cycles),
			FalsePositives: len(rep.FalsePositives),
			NewCyclesByRun: rep.NewCyclesByRun,
			Phase1Ms:       wall.Milliseconds(),
		})
	}

	cfg := gen.Medium()
	for seed := int64(1); seed <= int64(genSeeds); seed++ {
		name := fmt.Sprintf("gen/%s-%03d", cfg.Preset, seed)
		src := gen.Generate(seed, cfg)
		p, err := dlfuzz.ParseCLF(gen.FileName(seed), src)
		if err != nil {
			return fmt.Errorf("phase1 bench %s: %w", name, err)
		}
		opts := dlfuzz.DefaultFindOptions()
		opts.Seed = 1
		opts.Runs = p1runs
		opts.Parallelism = p1par
		opts.MaxSteps = 200000
		start := time.Now()
		rep, err := dlfuzz.Find(p.Body(), opts)
		wall := time.Since(start)
		if err != nil {
			// A generated program can deadlock every observation attempt;
			// the row records the empty campaign rather than failing the
			// whole benchmark.
			fmt.Fprintf(w, "phase1 bench %s: %v\n", name, err)
		}
		out.Workloads = append(out.Workloads, phase1Row{
			Workload:       name,
			Runs:           rep.ObservationRuns,
			Completed:      rep.CompletedRuns,
			RawDeps:        rep.RawDeps,
			MergedDeps:     rep.Deps,
			Cycles:         len(rep.Cycles),
			FalsePositives: len(rep.FalsePositives),
			NewCyclesByRun: rep.NewCyclesByRun,
			Phase1Ms:       wall.Milliseconds(),
		})
	}

	deps := igoodlock.WideRelation(64, 32, 2)
	for _, maxLen := range []int{2, 3} {
		cfg := igoodlock.WideConfig(maxLen)
		time1, cycles := timeClosure(deps, cfg, 1)
		time2, _ := timeClosure(deps, cfg, 2)
		time4, _ := timeClosure(deps, cfg, 4)
		t := closureTiming{
			MaxLen:   maxLen,
			Cycles:   cycles,
			SerialMs: time1.Milliseconds(),
			W2Ms:     time2.Milliseconds(),
			W4Ms:     time4.Milliseconds(),
		}
		if time4 > 0 {
			t.Speedup4 = math.Round(float64(time1)/float64(time4)*100) / 100
		}
		out.Closure = append(out.Closure, t)
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return f.Close()
}

// timeClosure runs the sharded closure at the given width and returns
// the best of three wall times (the benchmark is short; the minimum
// discards scheduler and GC noise) plus the cycle count.
func timeClosure(deps []*lockset.Dep, cfg igoodlock.Config, workers int) (time.Duration, int) {
	best := time.Duration(math.MaxInt64)
	cycles := 0
	for i := 0; i < 3; i++ {
		start := time.Now()
		got := igoodlock.FindParallel(deps, cfg, workers)
		if d := time.Since(start); d < best {
			best = d
		}
		cycles = len(got)
	}
	return best, cycles
}
