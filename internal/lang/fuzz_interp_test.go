package lang_test

// FuzzInterp closes the front-end fuzzing loop over both back ends: any
// program the parser accepts must execute without escaping panics, and
// the bytecode VM must be indistinguishable from the tree-walking
// reference. The target lives in an external test package so it can seed
// directly from the program generator (gen imports lang, so an
// in-package target would be an import cycle).
//
// The invariants:
//
//   - Interp.Run either returns a result or a *lang.RuntimeError; no
//     other panic may escape (scheduler aborts, interpreter bugs);
//   - the step bound always terminates the run, even for
//     malformed-but-parsable programs that loop or recurse forever
//     (while back edges and calls are scheduling points);
//   - the outcome is one of the scheduler's declared classifications;
//   - VM and tree-walker agree on the outcome, the RuntimeError, the
//     print output, and the full event stream.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dlfuzz/internal/lang"
	"dlfuzz/internal/lang/gen"
	"dlfuzz/internal/sched"
)

// streamRecorder captures an execution's event stream for the
// differential comparison.
type streamRecorder struct{ events []sched.Ev }

func (r *streamRecorder) OnEvent(ev sched.Ev) { r.events = append(r.events, ev) }

func FuzzInterp(f *testing.F) {
	for _, glob := range []string{
		filepath.Join("..", "..", "testdata", "*.clf"),
		filepath.Join("..", "..", "testdata", "corpus", "*.clf"),
	} {
		files, err := filepath.Glob(glob)
		if err != nil {
			f.Fatal(err)
		}
		for _, fn := range files {
			src, err := os.ReadFile(fn)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	// Generator output exercises the interpreter paths (factory calls,
	// field locks, data-dependent branches) the hand-written models skip.
	for seed := int64(1); seed <= 3; seed++ {
		f.Add(gen.Generate(seed, gen.Small()))
		f.Add(gen.Generate(seed, gen.Medium()))
	}
	// Blocking-preset output reaches the channel/WaitGroup scheduler
	// paths, including runs that end in a classified Stall.
	for seed := int64(1); seed <= 3; seed++ {
		f.Add(gen.Generate(seed, gen.Blocking()))
	}
	// Malformed-but-parsable slivers: unbounded loop and recursion must
	// hit the step bound, runtime type errors must surface as
	// *lang.RuntimeError.
	f.Add("fn main() { while true { work(1); } }")
	f.Add("fn f() { f(); } fn main() { f(); }")
	f.Add("fn main() { join 1; }")
	f.Add("fn main() { sync (nil) { } }")
	// Channel/WaitGroup misuse must surface as *lang.RuntimeError (the
	// interpreter converts the scheduler's misuse aborts), and blocked
	// programs must terminate through the stall path, not the step
	// bound.
	f.Add("fn main() { var ch = newchan; close ch; send ch; }")
	f.Add("fn main() { var ch = newchan; close ch; close ch; }")
	f.Add("fn main() { var wg = newwg; wgdone wg; }")
	f.Add("fn main() { var ch = newchan; var v = recv ch; }")
	f.Add("fn main() { var wg = newwg; wgadd wg, 1; wgwait wg; }")
	f.Add("fn main() { send 0; }")
	// Runtime and misuse errors while other threads are runnable, so
	// that unwinds interleave with them.
	for _, src := range lang.InterleavedUnwinds() {
		f.Add(src)
	}

	f.Fuzz(func(t *testing.T, src string) {
		prog, err := lang.Parse("fuzz.clf", src)
		if err != nil {
			return // front-end rejection is FuzzParser's domain
		}
		run := func(tree bool) (*sched.Result, error, string, []sched.Ev) {
			var out bytes.Buffer
			in := lang.NewInterp(prog, &out)
			run := in.Run
			if tree {
				run = func(opts sched.Options) (*sched.Result, error) { return lang.TreeWalkRun(in, opts) }
			}
			rec := &streamRecorder{}
			res, err := run(sched.Options{
				Seed: 1, MaxSteps: 20000,
				Observers: []sched.Observer{rec},
			})
			return res, err, out.String(), rec.events
		}
		res, err, vprint, vevents := run(false)
		tres, terr, tprint, tevents := run(true)
		if err != nil {
			var rt *lang.RuntimeError
			if !errors.As(err, &rt) {
				t.Fatalf("Run returned a non-runtime error: %T (%v)", err, err)
			}
		} else {
			if res == nil {
				t.Fatal("Run returned neither result nor error")
			}
			switch res.Outcome {
			case sched.Completed, sched.Deadlock, sched.Stall, sched.StepLimit:
			default:
				t.Fatalf("unknown outcome %v", res.Outcome)
			}
		}
		// The VM must be indistinguishable from the tree-walker.
		if (err == nil) != (terr == nil) {
			t.Fatalf("error presence diverged: vm %v, tree %v", err, terr)
		}
		if err != nil && err.Error() != terr.Error() {
			t.Fatalf("errors diverged:\nvm   %v\ntree %v", err, terr)
		}
		if vprint != tprint {
			t.Fatalf("print diverged:\nvm   %q\ntree %q", vprint, tprint)
		}
		if !reflect.DeepEqual(res, tres) {
			t.Fatalf("results diverged:\nvm   %+v\ntree %+v", res, tres)
		}
		if !reflect.DeepEqual(vevents, tevents) {
			for i := range vevents {
				if i >= len(tevents) || !reflect.DeepEqual(vevents[i], tevents[i]) {
					t.Fatalf("event %d diverged:\nvm   %+v\ntree %+v", i, vevents[i], tevents[i])
				}
			}
			t.Fatalf("event streams diverged in length: %d vs %d", len(vevents), len(tevents))
		}
	})
}
