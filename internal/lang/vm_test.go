package lang

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dlfuzz/internal/event"
	"dlfuzz/internal/sched"
)

// recEvents captures an execution's event stream.
type recEvents struct{ events []sched.Ev }

func (r *recEvents) OnEvent(ev sched.Ev) { r.events = append(r.events, ev) }

// runBoth executes src under the VM and the tree-walker at the given
// seed and fails the test unless the Results, event streams, print bytes
// and error strings all match; it returns the VM side's observations.
func runBoth(t *testing.T, src string, seed int64) (*sched.Result, error, string) {
	t.Helper()
	res, err, out, _ := runBothWith(t, src, sched.Options{Seed: seed, MaxSteps: 100000})
	return res, err, out
}

// runBothWith is runBoth under the given options, a stateless policy
// included; it also returns the VM side's event stream.
func runBothWith(t *testing.T, src string, opts sched.Options) (*sched.Result, error, string, []sched.Ev) {
	t.Helper()
	prog, err := Parse("vm.clf", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	type obs struct {
		res    *sched.Result
		err    error
		print  string
		events []sched.Ev
	}
	run := func(tree bool) obs {
		var out bytes.Buffer
		in := NewInterp(prog, &out)
		run := in.Run
		if tree {
			run = func(opts sched.Options) (*sched.Result, error) { return treeWalkRun(in, opts) }
		}
		rec := &recEvents{}
		opts := opts
		opts.Observers = []sched.Observer{rec}
		res, err := run(opts)
		return obs{res: res, err: err, print: out.String(), events: rec.events}
	}
	vm, tree := run(false), run(true)
	if (vm.err == nil) != (tree.err == nil) {
		t.Fatalf("error presence diverged: vm %v, tree %v", vm.err, tree.err)
	}
	if vm.err != nil && vm.err.Error() != tree.err.Error() {
		t.Fatalf("errors diverged:\nvm   %v\ntree %v", vm.err, tree.err)
	}
	if vm.print != tree.print {
		t.Fatalf("print diverged:\nvm   %q\ntree %q", vm.print, tree.print)
	}
	if !reflect.DeepEqual(vm.res, tree.res) {
		t.Fatalf("results diverged:\nvm   %+v\ntree %+v", vm.res, tree.res)
	}
	if !reflect.DeepEqual(vm.events, tree.events) {
		for i := range vm.events {
			if i >= len(tree.events) || !reflect.DeepEqual(vm.events[i], tree.events[i]) {
				t.Fatalf("event %d diverged:\nvm   %+v\ntree %+v", i, vm.events[i], tree.events[i])
			}
		}
		t.Fatalf("event streams diverged in length: %d vs %d", len(vm.events), len(tree.events))
	}
	return vm.res, vm.err, vm.print, vm.events
}

func TestVMRuntimeErrorParity(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"if-cond-not-bool", `fn main() { if 3 { } }`,
			"vm.clf:1:16: runtime error: expected bool, got int"},
		{"while-cond-not-bool", `fn main() { while nil { } }`,
			"vm.clf:1:19: runtime error: expected bool, got nil"},
		{"and-left-not-bool", `fn main() { var x = 1 && true; }`,
			"vm.clf:1:21: runtime error: expected bool, got int"},
		{"and-right-not-bool", `fn main() { var x = true && 1; }`,
			"vm.clf:1:29: runtime error: expected bool, got int"},
		{"or-right-not-bool", `fn main() { var x = false || "s"; }`,
			"vm.clf:1:30: runtime error: expected bool, got string"},
		{"not-not-bool", `fn main() { var x = !3; }`,
			"vm.clf:1:22: runtime error: expected bool, got int"},
		{"neg-not-int", `fn main() { var x = -true; }`,
			"vm.clf:1:22: runtime error: expected int, got bool"},
		{"arith-type", `fn main() { var x = 1 + true; }`,
			"vm.clf:1:23: runtime error: operator '+' requires ints, got int and bool"},
		{"div-zero", `fn main() { var x = 1 / 0; }`,
			"vm.clf:1:23: runtime error: division by zero"},
		{"mod-zero", `fn main() { var x = 1 % 0; }`,
			"vm.clf:1:23: runtime error: division by zero"},
		{"sync-not-object", `fn main() { sync (42) { } }`,
			"vm.clf:1:19: runtime error: sync requires an object, got int"},
		{"join-not-thread", `fn main() { join 1; }`,
			"vm.clf:1:13: runtime error: join requires a thread, got int"},
		{"await-not-latch", `fn main() { await 0; }`,
			"vm.clf:1:13: runtime error: expected latch, got int"},
		{"send-not-chan", `fn main() { send 0; }`,
			"vm.clf:1:13: runtime error: expected chan, got int"},
		{"recv-not-chan", `fn main() { var v = recv 5; }`,
			"vm.clf:1:21: runtime error: expected chan, got int"},
		{"wgadd-not-wg", `fn main() { wgadd 1, 2; }`,
			"vm.clf:1:13: runtime error: expected waitgroup, got int"},
		{"wgadd-n-not-int", `fn main() { var wg = newwg; wgadd wg, nil; }`,
			"vm.clf:1:39: runtime error: expected int, got nil"},
		{"work-not-int", `fn main() { work(nil); }`,
			"vm.clf:1:18: runtime error: expected int, got nil"},
		{"work-negative", `fn main() { work(0 - 3); }`,
			"vm.clf:1:13: runtime error: work(-3): negative amount"},
		{"newchan-cap-not-int", `fn main() { var ch = newchan(true); }`,
			"vm.clf:1:30: runtime error: expected int, got bool"},
		{"newchan-negative", `fn main() { var ch = newchan(0 - 1); }`,
			"vm.clf:1:22: runtime error: newchan(-1): negative capacity"},
		{"field-owner", `fn main() { var x = 1; x.f = 2; }`,
			"vm.clf:1:25: runtime error: field access requires an object, got int"},
		{"field-unset", `fn main() { var o = new Object; print(o.f); }`,
			"vm.clf:1:40: runtime error: read of unset field Object.f"},
		{"call-depth", `fn f() { f(); } fn main() { f(); }`,
			"vm.clf:1:10: runtime error: call depth exceeds 1000 (runaway recursion?)"},
		{"chan-misuse", `fn main() { var ch = newchan; close ch; close ch; }`,
			"runtime error: t0 closes closed channel"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			_, err, _ := runBoth(t, c.src, 1)
			if err == nil {
				t.Fatalf("no error, want %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %q, want contains %q", err.Error(), c.want)
			}
		})
	}
}

func TestVMPrintParity(t *testing.T) {
	src := `
fn helper(l) { sync (l) { work(1); } }
fn main() {
    var o = new Object;
    var l = newlatch;
    var ch = newchan(1);
    var wg = newwg;
    var t = spawn helper(o);
    print(1, true, false, nil, "str");
    print("concat:" + 3, "b:" + true, "n:" + nil, "o:" + o);
    print(o, l, ch, wg, t);
    print(2 + 3 * 4, 7 / 2, 7 % 2, -5);
    print(1 < 2, 2 <= 1, 1 == 1, 1 != 1, nil == nil, o == o, o != o);
    join t;
    signal l;
}`
	_, err, out := runBoth(t, src, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"1 true false nil str",
		"concat:3 b:true n:nil o:o2:Object@vm.clf:4",
		"14 3 1 -5",
		"true false true false true true false",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestVMSlotReuse pins the resolver's frame-slot assignment: sibling
// scopes share slots, loop bodies redeclare per iteration, inner scopes
// shadow outer names, and same-scope redeclaration rebinds.
func TestVMSlotReuse(t *testing.T) {
	src := `
fn main() {
    var x = 1;
    { var a = 10; print("a", a, x); }
    { var b = 20; print("b", b, x); }
    var i = 0;
    while i < 3 {
        var x = i * 100;
        print("loop", i, x);
        i = i + 1;
    }
    print("after", x, i);
    { var x = 99; x = x + 1; print("shadow", x); }
    print("outer", x);
    var x = 7;
    print("rebound", x);
}`
	_, err, out := runBoth(t, src, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := `a 10 1
b 20 1
loop 0 0
loop 1 100
loop 2 200
after 1 3
shadow 100
outer 1
rebound 7
`
	if out != want {
		t.Errorf("output:\n%s\nwant:\n%s", out, want)
	}
}

// TestVMUnwindParity pins the panic-unwind event streams: returns and
// runtime errors inside nested sync blocks must release monitors
// innermost-first and post Return events exactly like the walker's
// stacked defers. runBoth compares the streams event by event.
func TestVMUnwindParity(t *testing.T) {
	cases := []struct{ name, src string }{
		{"return-inside-sync", `
fn f(a, b) {
    sync (a) { sync (b) { work(1); return 42; } }
}
fn main() {
    var a = new Object;
    var b = new Object;
    print(f(a, b));
}`},
		{"return-partial-syncs", `
fn f(a, b) {
    sync (a) { work(1); }
    sync (b) { if true { return 1; } }
    return 2;
}
fn main() { print(f(new Object, new Object)); }`},
		{"error-inside-nested-sync", `
fn g(a) { sync (a) { var x = 1 + nil; } }
fn f(a, b) { sync (b) { g(a); } }
fn main() { f(new Object, new Object); }`},
		{"error-in-spawned-thread", `
fn w(a) { sync (a) { work(1); join 3; } }
fn main() {
    var a = new Object;
    var t = spawn w(a);
    join t;
}`},
		{"bare-return-and-falloff", `
fn f(n) { if n > 0 { return; } work(1); }
fn g() { work(1); }
fn main() { f(1); f(0); g(); print(f(1), g()); }`},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, seed := range []int64{0, 1, 7} {
				runBoth(t, c.src, seed)
			}
		})
	}
	// Unwinds and misuse errors while two or more other threads are
	// runnable: every post of the unwind is a scheduling point where they
	// may run. For each runtime-error case some seed must show at least
	// two other threads running inside the failing thread's unwind.
	for _, c := range interleavedUnwinds {
		c := c
		t.Run(c.name, func(t *testing.T) {
			best := 0
			for seed := int64(0); seed < 64; seed++ {
				_, err, _, events := runBothWith(t, c.src, sched.Options{Seed: seed, MaxSteps: 100000})
				if err == nil {
					t.Fatalf("seed %d: no runtime error", seed)
				}
				best = max(best, othersInUnwind(events))
			}
			if c.unwinds && best < 2 {
				t.Errorf("at most %d other threads ran inside the unwind at seeds 0-63, want 2", best)
			}
		})
	}
}

// interleavedUnwinds are programs whose thread fails while two or more
// other threads are runnable. FuzzInterp seeds from them too. unwinds
// marks a runtime error, which unwinds the failing thread's calls; a
// misuse error ends the run where it happens.
var interleavedUnwinds = []struct {
	name, src string
	unwinds   bool
}{
	{"error-two-calls-deep-in-spawned-thread", `
fn spin(o, n) { sync (o) { var i = 0; while i < n { work(1); i = i + 1; } } }
fn g(a, b) { sync (a) { sync (b) { work(1); var x = 1 + nil; } } }
fn f(a, b) { var r = g(a, b); }
fn main() {
    var a = new Object;
    var b = new Object;
    var s1 = spawn spin(new Object, 40);
    var s2 = spawn spin(new Object, 40);
    var t = spawn f(a, b);
    join s1;
    join s2;
    join t;
}`, true},
	{"error-in-main-while-children-hold-locks", `
fn hold(o, n) { sync (o) { var i = 0; while i < n { work(1); i = i + 1; } } }
fn g(a, b) { sync (a) { sync (b) { work(2); var x = nil.f; } } }
fn f(a, b) { g(a, b); }
fn main() {
    var t1 = spawn hold(new Object, 40);
    var t2 = spawn hold(new Object, 40);
    work(3);
    f(new Object, new Object);
}`, true},
	{"call-depth-overflow-inside-sync", `
fn spin(l, n) { await l; var i = 0; while i < n { work(1); i = i + 1; } }
fn r(o, l, d) { sync (o) { if d == 995 { signal l; } r(o, l, d + 1); } }
fn main() {
    var l = newlatch;
    var s1 = spawn spin(l, 100);
    var s2 = spawn spin(l, 100);
    r(new Object, l, 0);
}`, true},
	{"double-close-in-spawned-thread", `
fn spin(n) { var i = 0; while i < n { work(1); i = i + 1; } }
fn closer(ch, o) { sync (o) { work(2); close ch; close ch; } }
fn main() {
    var s1 = spawn spin(40);
    var s2 = spawn spin(40);
    var t = spawn closer(newchan, new Object);
    join t;
}`, false},
	{"negative-waitgroup-in-spawned-thread", `
fn spin(n) { var i = 0; while i < n { work(1); i = i + 1; } }
fn done(wg, o) { sync (o) { work(2); wgdone wg; } }
fn main() {
    var s1 = spawn spin(40);
    var s2 = spawn spin(40);
    var t = spawn done(newwg, new Object);
    join t;
}`, false},
}

// othersInUnwind returns how many threads other than the failing one
// emitted events inside its unwind: the failing thread posts the run's
// last event, its Exit, and its unwind is its trailing run of Release
// and Return events before that.
func othersInUnwind(events []sched.Ev) int {
	if len(events) == 0 || events[len(events)-1].Kind != event.KindExit {
		return 0
	}
	failing := events[len(events)-1].Thread
	others := map[event.TID]bool{}
	var window []event.TID
	for i := len(events) - 2; i >= 0; i-- {
		ev := events[i]
		if ev.Thread != failing {
			window = append(window, ev.Thread)
			continue
		}
		if ev.Kind != event.KindRelease && ev.Kind != event.KindReturn {
			break
		}
		for _, o := range window {
			others[o] = true
		}
		window = window[:0]
	}
	return len(others)
}

// lowestPolicy grants the lowest enabled TID, so a run's schedule can be
// worked out by hand.
type lowestPolicy struct{}

func (lowestPolicy) Next(_ *sched.Scheduler, enabled []event.TID) event.TID { return enabled[0] }

// TestVMMechanismCounters pins Result.CrossGrants and Result.Unwound on
// a run worked out by hand, under both back ends. With the lowest TID
// always granted:
//
//   - main (t0) posts Call(main), and its first grant hands it the turn:
//     cross-grant 1. It creates the latch and spawns a (t1), which runs
//     to its Call(w1) post, both self-grants.
//   - main's join a blocks, so a's Call is granted: cross-grant 2. a's
//     Step and Return are self-grants; its Exit unblocks main: 3.
//   - main spawns b (t2) and joins it; b's Call is granted: 4. b's
//     await never returns, and the run stalls.
//   - teardown ends main and b, still alive: Unwound 2.
func TestVMMechanismCounters(t *testing.T) {
	src := `
fn w1() { work(1); }
fn w2(l) { await l; }
fn main() {
    var l = newlatch;
    var a = spawn w1();
    join a;
    var b = spawn w2(l);
    join b;
}`
	res, err, _, _ := runBothWith(t, src, sched.Options{Policy: lowestPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != sched.Stall || res.CrossGrants != 4 || res.Unwound != 2 {
		t.Errorf("%v with %d cross-grants and %d threads unwound, want stall with 4 and 2",
			res.Outcome, res.CrossGrants, res.Unwound)
	}
}

// TestVMChannelValueParity pins value transport through channels: the
// scheduler carries boxed values, so every kind must round-trip through
// send/recv with identity and printing intact.
func TestVMChannelValueParity(t *testing.T) {
	src := `
fn producer(ch, o) {
    send ch, 1;
    send ch, true;
    send ch, "s";
    send ch, nil;
    send ch, o;
    send ch;
    close ch;
}
fn main() {
    var ch = newchan(2);
    var o = new Object;
    var t = spawn producer(ch, o);
    print(recv ch, recv ch, recv ch, recv ch);
    var got = recv ch;
    print(got, got == o);
    print(recv ch);
    print(recv ch);
    join t;
}`
	_, err, out := runBoth(t, src, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1 true s nil") || !strings.Contains(out, "true") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

// TestVMPooledRunsIdentical drives one Interp through repeated and
// interleaved executions: pooled frames and heaps must leave no residue,
// so every run prints the same bytes and an unset-field read still
// errors after a run that set fields.
func TestVMPooledRunsIdentical(t *testing.T) {
	src := `
fn main() {
    var o = new Object;
    o.x = 1;
    o.y = o.x + 1;
    print(o.x, o.y);
    var i = 0;
    var sum = 0;
    while i < 10 { sum = sum + i; i = i + 1; }
    print(sum);
}`
	prog, err := Parse("pool.clf", src)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	in := NewInterp(prog, &out)
	var first string
	for i := 0; i < 5; i++ {
		out.Reset()
		if _, err := in.Run(sched.Options{Seed: 3}); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if i == 0 {
			first = out.String()
			continue
		}
		if out.String() != first {
			t.Fatalf("run %d diverged:\n%q\nfirst:\n%q", i, out.String(), first)
		}
	}

	// A field set in one run must be unset in the next (zeroed heap).
	unset, err := Parse("unset.clf", `
fn main() {
    var o = new Object;
    o.x = 5;
    var p = new Object;
    print(p.x);
}`)
	if err != nil {
		t.Fatal(err)
	}
	in2 := NewInterp(unset, nil)
	for i := 0; i < 3; i++ {
		_, err := in2.Run(sched.Options{Seed: 1})
		if err == nil || !strings.Contains(err.Error(), "read of unset field Object.x") {
			t.Fatalf("run %d: err = %v, want unset-field error", i, err)
		}
	}
}

// TestVMCompileCache verifies a Program lowers once: repeated Main()
// calls share the cached compiled form.
func TestVMCompileCache(t *testing.T) {
	prog, err := Parse("c.clf", `fn main() { work(1); }`)
	if err != nil {
		t.Fatal(err)
	}
	cp1 := prog.compile()
	cp2 := prog.compile()
	if cp1 != cp2 {
		t.Fatal("compile() did not cache")
	}
	if cp1.main == nil || cp1.main.name != "main" {
		t.Fatalf("main not resolved: %+v", cp1.main)
	}
}
