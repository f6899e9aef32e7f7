package dlfuzz_test

// Determinism regression suite. The scheduler's claim — an execution is
// a pure function of (program, policy, seed) — is what makes the
// paper's probabilities measurable and, since the campaign engine, what
// makes seed-sharding across workers sound. These tests pin the claim
// down for every built-in workload and every CLF program in testdata,
// and check the public Confirm API end to end at several worker counts.

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dlfuzz"
	"dlfuzz/internal/sched"
	"dlfuzz/internal/workloads"
)

var determinismSeeds = []int64{0, 1, 7, 42}

// sameResult compares everything a Result records.
func sameResult(a, b *sched.Result) bool {
	return reflect.DeepEqual(a, b)
}

// TestWorkloadDeterminism runs every workload twice per seed and
// demands identical results: outcome, steps, events, spawn and
// allocation counts, and the full deadlock witness if any.
func TestWorkloadDeterminism(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range determinismSeeds {
				first := dlfuzz.Run(w.Prog, seed)
				second := dlfuzz.Run(w.Prog, seed)
				if !sameResult(first, second) {
					t.Errorf("seed %d: runs diverged\nfirst  %+v\nsecond %+v", seed, first, second)
				}
			}
		})
	}
}

// TestCLFDeterminism does the same for every CLF program under
// testdata, including each run's print output (captured in separate
// buffers, so a mismatch can only come from the execution itself).
func TestCLFDeterminism(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.clf"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no testdata/*.clf programs")
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			t.Parallel()
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range determinismSeeds {
				run := func() (*sched.Result, string) {
					prog, err := dlfuzz.ParseCLF(file, string(src))
					if err != nil {
						t.Fatal(err)
					}
					var out bytes.Buffer
					res := dlfuzz.Run(prog.WithOutput(&out).Body(), seed)
					return res, out.String()
				}
				res1, out1 := run()
				res2, out2 := run()
				if !sameResult(res1, res2) {
					t.Errorf("seed %d: runs diverged\nfirst  %+v\nsecond %+v", seed, res1, res2)
				}
				if out1 != out2 {
					t.Errorf("seed %d: print output diverged:\n%q\n%q", seed, out1, out2)
				}
			}
		})
	}
}

// TestConfirmParallelismInvariant checks the public API's guarantee on
// a CLF program: the same ConfirmReport at every Parallelism setting.
func TestConfirmParallelismInvariant(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "philosophers.clf"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := dlfuzz.ParseCLF("philosophers.clf", string(src))
	if err != nil {
		t.Fatal(err)
	}
	body := prog.Body()
	find, err := dlfuzz.Find(body, dlfuzz.DefaultFindOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(find.Cycles) == 0 {
		t.Fatal("philosophers reported no cycles")
	}
	opts := dlfuzz.DefaultConfirmOptions()
	opts.Runs = 32
	opts.Parallelism = 1
	serial := dlfuzz.Confirm(body, find.Cycles[0], opts)
	if !serial.Confirmed() {
		t.Fatal("philosophers cycle not confirmed")
	}
	for _, par := range []int{0, 2, 4, 16} {
		opts.Parallelism = par
		if got := dlfuzz.Confirm(body, find.Cycles[0], opts); !reflect.DeepEqual(serial, got) {
			t.Errorf("parallelism %d diverged:\nserial %+v\ngot    %+v", par, serial, got)
		}
	}
	// Confirm targets one cycle, so report-wide ranks (here not even
	// parallel to it) are ignored rather than tripping the campaign's
	// length check.
	opts.Ranks = []float64{2, 1}
	if got := dlfuzz.Confirm(body, find.Cycles[0], opts); !reflect.DeepEqual(serial, got) {
		t.Errorf("ranks changed a single-cycle report:\nserial %+v\ngot    %+v", serial, got)
	}
}

// TestConfirmAllParallelismInvariant extends the guarantee to
// multi-cycle campaigns: one shared-budget campaign over all of the
// philosophers' cycles must produce byte-identical MultiReports at
// parallelism 1, 2 and all-cores.
func TestConfirmAllParallelismInvariant(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "philosophers.clf"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := dlfuzz.ParseCLF("philosophers.clf", string(src))
	if err != nil {
		t.Fatal(err)
	}
	body := prog.Body()
	find, err := dlfuzz.Find(body, dlfuzz.DefaultFindOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(find.Cycles) == 0 {
		t.Fatal("philosophers reported no cycles")
	}
	opts := dlfuzz.DefaultConfirmOptions()
	opts.Runs = 48
	opts.Parallelism = 1
	serial := dlfuzz.ConfirmAll(body, find.Cycles, opts)
	if len(serial.Confirmed()) == 0 {
		t.Fatal("no philosophers cycle confirmed")
	}
	for _, par := range []int{2, 0} {
		opts.Parallelism = par
		if got := dlfuzz.ConfirmAll(body, find.Cycles, opts); !reflect.DeepEqual(serial, got) {
			t.Errorf("parallelism %d diverged:\nserial %+v\ngot    %+v", par, serial, got)
		}
	}
}
