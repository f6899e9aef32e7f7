package lang_test

// Differential suite for the CLF bytecode VM. Interp runs programs on
// slot-indexed bytecode; TreeWalkMain runs them on the test-only
// tree-walking reference back end. The two must be indistinguishable to
// everything above the interpreter: same event streams, same Results,
// same print bytes, same campaign reports at every parallelism. These
// tests pin that equivalence over the committed CLF programs, the
// generated-program presets, and full Phase I+II campaigns — the same
// contract the root batching_test.go pins for the scheduler protocols.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"dlfuzz"
	"dlfuzz/internal/campaign"
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/lang"
	"dlfuzz/internal/lang/gen"
	"dlfuzz/internal/sched"
)

// testdata is the directory of the module's committed CLF programs.
var testdata = filepath.Join("..", "..", "testdata")

// vmAndTree parses src once per back end and returns the program body
// on the VM (through dlfuzz, as every caller runs it) and on the
// tree-walker, each printing to its own writer.
func vmAndTree(t *testing.T, name, src string, vmOut, treeOut io.Writer) (vm, tree func(*sched.Ctx)) {
	t.Helper()
	vmProg, err := dlfuzz.ParseCLF(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	treeProg, err := lang.Parse(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return vmProg.WithOutput(vmOut).Body(), lang.TreeWalkMain(lang.NewInterp(treeProg, treeOut))
}

// diffSources collects the CLF sources the VM differential runs: every
// committed testdata program, the committed generated corpus, and fresh
// generator output from every preset at several seeds.
func diffSources(t *testing.T) map[string]string {
	t.Helper()
	srcs := make(map[string]string)
	for _, pattern := range []string{"*.clf", filepath.Join("corpus", "gen-*.clf")} {
		files, err := filepath.Glob(filepath.Join(testdata, pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			srcs[filepath.Base(file)] = string(src)
		}
	}
	for _, cfg := range []gen.Config{gen.Small(), gen.Medium(), gen.Large(), gen.Blocking()} {
		for _, seed := range []int64{1, 17, 99} {
			name := fmt.Sprintf("gen-%s-%d.clf", cfg.Preset, seed)
			srcs[name] = gen.Generate(seed, cfg)
		}
	}
	if len(srcs) < 20 {
		t.Fatalf("differential corpus suspiciously small: %d programs", len(srcs))
	}
	return srcs
}

// TestVMTreeSchedDifferential runs every program under both back ends at
// several seeds and requires byte-identical executions: the same Result
// (reflect.DeepEqual, including the deadlock witness), the same event
// stream event by event, and the same print output byte for byte.
func TestVMTreeSchedDifferential(t *testing.T) {
	for name, src := range diffSources(t) {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var vmOut, treeOut bytes.Buffer
			vmBody, treeBody := vmAndTree(t, name, src, &vmOut, &treeOut)
			for _, seed := range []int64{0, 1, 7, 42} {
				run := func(body func(*sched.Ctx), out *bytes.Buffer) (res *sched.Result, events []sched.Ev, print string) {
					out.Reset()
					rec := &streamRecorder{}
					defer func() {
						// CLF runtime errors surface as panics; a
						// differential run treats them as an outcome and
						// compares the messages.
						if r := recover(); r != nil {
							res, events, print = nil, rec.events, fmt.Sprintf("panic: %v\n%s", r, out.String())
						}
					}()
					res = sched.New(sched.Options{
						Seed:      seed,
						Observers: []sched.Observer{rec},
					}).Run(body)
					return res, rec.events, out.String()
				}
				vres, vevents, vprint := run(vmBody, &vmOut)
				tres, tevents, tprint := run(treeBody, &treeOut)
				if !reflect.DeepEqual(vres, tres) {
					t.Fatalf("seed %d: results diverged\nvm   %+v\ntree %+v", seed, vres, tres)
				}
				if vprint != tprint {
					t.Fatalf("seed %d: print output diverged\nvm   %q\ntree %q", seed, vprint, tprint)
				}
				if !reflect.DeepEqual(vevents, tevents) {
					for i := range vevents {
						if i >= len(tevents) || !reflect.DeepEqual(vevents[i], tevents[i]) {
							t.Fatalf("seed %d: event %d diverged\nvm   %+v\ntree %+v",
								seed, i, vevents[i], tevents[i])
						}
					}
					t.Fatalf("seed %d: event streams diverged in length: %d vs %d",
						seed, len(vevents), len(tevents))
				}
			}
		})
	}
}

// TestVMTreeCampaignDifferential extends the equivalence through the full
// two-phase pipeline: for each committed testdata program with candidate
// cycles, one multi-cycle confirm campaign per back end at parallelism
// 1, 2 and 4 must produce reflect.DeepEqual summaries and byte-equal
// rendered reports. Parallel campaigns also exercise the VM's pooled
// per-run state under concurrent executions of one shared body.
func TestVMTreeCampaignDifferential(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(testdata, "*.clf"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			t.Parallel()
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			vmBody, treeBody := vmAndTree(t, file, string(src), io.Discard, io.Discard)
			find, err := dlfuzz.Find(vmBody, dlfuzz.DefaultFindOptions())
			if err != nil {
				t.Skipf("%s: observation failed: %v", file, err)
			}
			if len(find.Cycles) == 0 {
				t.Skipf("%s reports no cycles", file)
			}
			cfg := fuzzer.DefaultConfig()
			const runs = 24
			for _, par := range []int{1, 2, 4} {
				opts := campaign.Options{Parallelism: par}
				vsum := campaign.ConfirmCycles(vmBody, find.Cycles, cfg, runs, 0, opts)
				tsum := campaign.ConfirmCycles(treeBody, find.Cycles, cfg, runs, 0, opts)
				if !reflect.DeepEqual(vsum, tsum) {
					t.Fatalf("parallelism %d: summaries diverged\nvm   %+v\ntree %+v", par, vsum, tsum)
				}
				if vr, tr := fmt.Sprintf("%+v", vsum), fmt.Sprintf("%+v", tsum); vr != tr {
					t.Fatalf("parallelism %d: rendered reports diverged\nvm   %s\ntree %s", par, vr, tr)
				}
			}
		})
	}
}

// TestVMTreeBlockingDifferential pins the equivalence for blocking
// campaigns: generated blocking-preset programs and the channel/WaitGroup
// testdata programs must classify identically under both back ends at
// parallelism 1, 2 and 4.
func TestVMTreeBlockingDifferential(t *testing.T) {
	srcs := map[string]string{}
	for _, seed := range []int64{2, 23} {
		srcs[fmt.Sprintf("gen-blocking-%d.clf", seed)] = gen.Generate(seed, gen.Blocking())
	}
	for _, name := range []string{"chancycle.clf", "wgleak.clf", "prodcons.clf"} {
		src, err := os.ReadFile(filepath.Join(testdata, name))
		if err != nil {
			t.Fatal(err)
		}
		srcs[name] = string(src)
	}
	for name, src := range srcs {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			vmBody, treeBody := vmAndTree(t, name, src, io.Discard, io.Discard)
			opts := dlfuzz.DefaultBlockingOptions()
			opts.Runs = 30
			for _, par := range []int{1, 2, 4} {
				opts.Parallelism = par
				vrep := dlfuzz.FindBlocking(vmBody, opts)
				trep := dlfuzz.FindBlocking(treeBody, opts)
				if !reflect.DeepEqual(vrep, trep) {
					t.Fatalf("parallelism %d: blocking reports diverged\nvm   %+v\ntree %+v",
						par, vrep, trep)
				}
			}
		})
	}
}

// TestVMTreeWarmSetConcurrentRuns runs philosophers through sched.New
// on 8 goroutines at once, half of them on each back end, so warm
// scheduler shells move between goroutines and between back ends. Every
// run must equal the serial one: the same Result, or the same panic,
// and the same event stream (run under -race in CI). Goroutine g runs
// seeds 4g..4g+3, on the tree-walker when g is even.
func TestVMTreeWarmSetConcurrentRuns(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(testdata, "philosophers.clf"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Parse("philosophers.clf", string(src))
	if err != nil {
		t.Fatal(err)
	}
	bodies := []func(*sched.Ctx){lang.TreeWalkMain(lang.NewInterp(prog, nil)), lang.NewInterp(prog, nil).Main()}
	type run struct {
		res      *sched.Result
		panicked any
		events   []sched.Ev
	}
	observe := func(body func(*sched.Ctx), seed int64) (r run) {
		rec := &streamRecorder{}
		defer func() {
			r.panicked = recover()
			r.events = rec.events
		}()
		r.res = sched.New(sched.Options{Seed: seed, Observers: []sched.Observer{rec}}).Run(body)
		return r
	}
	const goroutines, seeds = 8, 4
	want := make([][]run, goroutines)
	for g := range want {
		for s := 0; s < seeds; s++ {
			want[g] = append(want[g], observe(bodies[g%2], int64(g*seeds+s)))
		}
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for round := 0; round < 3; round++ {
						for s := 0; s < seeds; s++ {
							if got := observe(bodies[g%2], int64(g*seeds+s)); !reflect.DeepEqual(got, want[g][s]) {
								t.Errorf("goroutine %d seed %d: concurrent run differs from the serial one", g, g*seeds+s)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}
