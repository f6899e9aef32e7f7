package lang

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dlfuzz/internal/sched"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("t.clf", `fn main() { var x = 1 + 2; // comment
		sync (x) { } /* block */ }`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]TokKind, len(toks))
	for i, tok := range toks {
		kinds[i] = tok.Kind
	}
	want := []TokKind{
		TokFn, TokIdent, TokLParen, TokRParen, TokLBrace,
		TokVar, TokIdent, TokAssign, TokInt, TokPlus, TokInt, TokSemi,
		TokSync, TokLParen, TokIdent, TokRParen, TokLBrace, TokRBrace,
		TokRBrace, TokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(kinds), len(want), kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("p.clf", "fn main() {\n  work(1);\n}")
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks {
		if tok.Kind == TokWork {
			if tok.Pos.Line != 2 || tok.Pos.Col != 3 {
				t.Errorf("work at %v, want p.clf:2:3", tok.Pos)
			}
			if tok.Pos.Loc() != "p.clf:2" {
				t.Errorf("Loc() = %q", tok.Pos.Loc())
			}
			return
		}
	}
	t.Fatal("work token not found")
}

func TestLexStringsAndOperators(t *testing.T) {
	toks, err := Lex("t.clf", `"a\nb" == != <= >= && || ! < >`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokString || toks[0].Text != "a\nb" {
		t.Errorf("string literal: %+v", toks[0])
	}
	want := []TokKind{TokEq, TokNeq, TokLe, TokGe, TokAndAnd, TokOrOr, TokBang, TokLt, TokGt, TokEOF}
	for i, k := range want {
		if toks[i+1].Kind != k {
			t.Errorf("token %d: got %v, want %v", i+1, toks[i+1].Kind, k)
		}
	}
}

func TestLexErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{`"unterminated`, "unterminated string"},
		{`/* open`, "unterminated block comment"},
		{`a & b`, "did you mean '&&'"},
		{`a | b`, "did you mean '||'"},
		{`@`, "unexpected character"},
		{`"bad \q esc"`, "unknown escape"},
	}
	for _, c := range cases {
		if _, err := Lex("e.clf", c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Lex(%q): err = %v, want contains %q", c.src, err, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{`fn main() {`, "unterminated block"},
		{`main() {}`, "expected 'fn'"},
		{`fn main() { var = 3; }`, "expected identifier"},
		{`fn main() { spawn 3; }`, "spawn requires a function call"},
		{`fn main() { work(1) }`, "expected ';'"},
		{`fn main() { if { } }`, "expected expression"},
		{`fn main() { x = ; }`, "expected expression"},
	}
	for _, c := range cases {
		if _, err := Parse("e.clf", c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q): err = %v, want contains %q", c.src, err, c.want)
		}
	}
}

func TestResolveErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{`fn f() {}`, "no main function"},
		{`fn main(x) {}`, "main must take no parameters"},
		{`fn main() {} fn main() {}`, "redeclared"},
		{`fn main() { x = 1; }`, "assignment to undefined variable"},
		{`fn main() { print(y); }`, "undefined variable y"},
		{`fn main() { f(); }`, "undefined function f"},
		{`fn f(a, a) {} fn main() {}`, "duplicate parameter"},
		{`fn f(a) {} fn main() { f(1, 2); }`, "takes 1 arguments, got 2"},
		{`fn main() { { var z = 1; } print(z); }`, "undefined variable z"},
	}
	for _, c := range cases {
		if _, err := Parse("e.clf", c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q): err = %v, want contains %q", c.src, err, c.want)
		}
	}
}

// runCLF parses and runs src once with the given seed, returning the
// result and printed output.
func runCLF(t *testing.T, src string, seed int64) (*sched.Result, string) {
	t.Helper()
	prog, err := Parse("t.clf", src)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	res, err := NewInterp(prog, &out).Run(sched.Options{Seed: seed, MaxSteps: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	return res, out.String()
}

// TestInterpConcurrentPrint runs one Interp from four goroutines at
// once, as parallel campaign workers do, and requires every print()
// line to arrive whole on the shared writer. Under -race it also
// guards the writes themselves.
func TestInterpConcurrentPrint(t *testing.T) {
	prog, err := Parse("t.clf", `fn main() { print("hello", 1); print("world", 2); }`)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, in := range []*Interp{NewInterp(prog, &out), NewInterp(prog, &out).TreeWalk()} {
		out.Reset()
		const workers, runs = 4, 50
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				for i := 0; i < runs; i++ {
					if _, err := in.Run(sched.Options{Seed: seed}); err != nil {
						t.Error(err)
						return
					}
				}
			}(int64(w))
		}
		wg.Wait()
		lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
		if len(lines) != 2*workers*runs {
			t.Fatalf("got %d lines, want %d", len(lines), 2*workers*runs)
		}
		for _, l := range lines {
			if l != "hello 1" && l != "world 2" {
				t.Fatalf("torn print line %q", l)
			}
		}
	}
}

func TestInterpArithmeticAndControl(t *testing.T) {
	_, out := runCLF(t, `
		fn fib(n) {
			if n < 2 { return n; }
			return fib(n - 1) + fib(n - 2);
		}
		fn main() {
			var i = 0;
			var sum = 0;
			while i < 5 {
				sum = sum + fib(i);
				i = i + 1;
			}
			print("sum", sum, 7 % 3, -2 * 3, 10 / 4);
			print(1 < 2, 2 <= 1, 3 == 3, 3 != 3, !false, true && false, true || false);
			print("concat: " + 42);
		}`, 1)
	want := "sum 7 1 -6 2\ntrue false true false true false true\nconcat: 42\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestInterpObjectsAndEquality(t *testing.T) {
	_, out := runCLF(t, `
		fn main() {
			var a = new Object;
			var b = new Object;
			print(a == a, a == b, a != b, nil == nil, a == nil);
		}`, 1)
	if out != "true false true true false\n" {
		t.Errorf("output = %q", out)
	}
}

func TestInterpRuntimeErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{`fn main() { var x = 1 / 0; }`, "division by zero"},
		{`fn main() { var x = 1 % 0; }`, "division by zero"},
		{`fn main() { var x = 1 + true; }`, "requires ints"},
		{`fn main() { if 3 { } }`, "expected bool"},
		{`fn main() { sync (4) { } }`, "sync requires an object"},
		{`fn main() { join 4; }`, "join requires a thread"},
		{`fn main() { await 4; }`, "expected latch"},
		{`fn main() { work(0 - 1); }`, "negative amount"},
		{`fn loop() { loop(); } fn main() { loop(); }`, "call depth"},
	}
	for _, c := range cases {
		prog, err := Parse("e.clf", c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		_, err = NewInterp(prog, nil).Run(sched.Options{Seed: 1, MaxSteps: 100_000})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Run(%q): err = %v, want contains %q", c.src, err, c.want)
		}
	}
}

func TestInterpSyncIsReentrantAndNested(t *testing.T) {
	res, out := runCLF(t, `
		fn main() {
			var l = new Object;
			sync (l) {
				sync (l) {
					print("inside");
				}
			}
		}`, 1)
	if res.Outcome != sched.Completed || out != "inside\n" {
		t.Errorf("outcome %v output %q", res.Outcome, out)
	}
}

func TestInterpSpawnJoinLatch(t *testing.T) {
	res, out := runCLF(t, `
		fn child(started, l) {
			await started;
			sync (l) { print("child"); }
		}
		fn main() {
			var l = new Object;
			var started = newlatch;
			var t = spawn child(started, l);
			sync (l) { print("parent"); }
			signal started;
			join t;
			print("done");
		}`, 3)
	if res.Outcome != sched.Completed {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if !strings.HasSuffix(out, "done\n") || !strings.Contains(out, "child\n") || !strings.Contains(out, "parent\n") {
		t.Errorf("output = %q", out)
	}
}

func TestInterpDeterministicPerSeed(t *testing.T) {
	src := `
		fn w(l1, l2) { sync (l1) { sync (l2) { } } }
		fn main() {
			var a = new Object;
			var b = new Object;
			var t1 = spawn w(a, b);
			var t2 = spawn w(b, a);
			join t1;
			join t2;
		}`
	for seed := int64(0); seed < 10; seed++ {
		r1, _ := runCLF(t, src, seed)
		r2, _ := runCLF(t, src, seed)
		if r1.Outcome != r2.Outcome || r1.Steps != r2.Steps {
			t.Fatalf("seed %d not deterministic: %v/%d vs %v/%d",
				seed, r1.Outcome, r1.Steps, r2.Outcome, r2.Steps)
		}
	}
}

func TestTestdataProgramsParse(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.clf"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Parse(filepath.Base(f), string(src))
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if _, ok := prog.Func("main"); !ok {
			t.Errorf("%s: no main", f)
		}
	}
}

func TestFig1ProgramRuns(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "fig1.clf"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Parse("fig1.clf", string(src))
	if err != nil {
		t.Fatal(err)
	}
	in := NewInterp(prog, nil)
	completed, deadlocked := 0, 0
	for seed := int64(0); seed < 20; seed++ {
		res, err := in.Run(sched.Options{Seed: seed, MaxSteps: 100_000})
		if err != nil {
			t.Fatal(err)
		}
		switch res.Outcome {
		case sched.Completed:
			completed++
		case sched.Deadlock:
			deadlocked++
		default:
			t.Fatalf("seed %d: outcome %v", seed, res.Outcome)
		}
	}
	if completed < 15 {
		t.Errorf("fig1 should mostly complete under random scheduling: %d/20", completed)
	}
}

func TestInterpWaitNotify(t *testing.T) {
	// The latch is signaled while holding the monitor, so the notifier
	// can only acquire the monitor after the consumer's wait released
	// it — the classic race-free handshake.
	res, out := runCLF(t, `
		fn consumer(mon, ready) {
			sync (mon) {
				signal ready;
				waiton mon;
				print("consumed");
			}
		}
		fn main() {
			var mon = new Object;
			var ready = newlatch;
			var t = spawn consumer(mon, ready);
			await ready;
			sync (mon) {
				notify mon;
			}
			join t;
			print("done");
		}`, 7)
	if res.Outcome != sched.Completed {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if out != "consumed\ndone\n" {
		t.Errorf("output = %q", out)
	}
}

func TestInterpNotifyAll(t *testing.T) {
	res, out := runCLF(t, `
		fn waiter(mon, ready) {
			sync (mon) {
				signal ready;
				waiton mon;
			}
		}
		fn main() {
			var mon = new Object;
			var r1 = newlatch;
			var r2 = newlatch;
			var t1 = spawn waiter(mon, r1);
			var t2 = spawn waiter(mon, r2);
			await r1;
			await r2;
			sync (mon) {
				notifyall mon;
			}
			join t1;
			join t2;
			print("all done");
		}`, 3)
	if res.Outcome != sched.Completed || out != "all done\n" {
		t.Fatalf("outcome %v output %q", res.Outcome, out)
	}
}

func TestInterpWaitRequiresObject(t *testing.T) {
	prog, err := Parse("e.clf", `fn main() { waiton 3; }`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewInterp(prog, nil).Run(sched.Options{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "requires an object") {
		t.Errorf("err = %v", err)
	}
}

func TestInterpFields(t *testing.T) {
	_, out := runCLF(t, `
		fn main() {
			var acct = new Account;
			acct.balance = 100;
			acct.owner = "ada";
			acct.balance = acct.balance - 30;
			print(acct.owner, acct.balance);
			var other = new Account;
			other.balance = acct.balance * 2;
			print(other.balance);
		}`, 1)
	if out != "ada 70\n140\n" {
		t.Errorf("output = %q", out)
	}
}

func TestInterpFieldsSharedAcrossThreads(t *testing.T) {
	res, out := runCLF(t, `
		fn bump(counter, done) {
			sync (counter) {
				counter.n = counter.n + 1;
			}
			signal done;
		}
		fn main() {
			var counter = new Counter;
			counter.n = 0;
			var d1 = newlatch;
			var d2 = newlatch;
			spawn bump(counter, d1);
			spawn bump(counter, d2);
			await d1;
			await d2;
			print("n =", counter.n);
		}`, 5)
	if res.Outcome != sched.Completed || out != "n = 2\n" {
		t.Errorf("outcome %v output %q", res.Outcome, out)
	}
}

func TestInterpFieldsFreshPerExecution(t *testing.T) {
	// One Interp drives many runs; the heap must not leak across them.
	prog, err := Parse("t.clf", `
		fn main() {
			var o = new Object;
			o.x = 1;
			print(o.x);
		}`)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInterp(prog, nil)
	for seed := int64(0); seed < 3; seed++ {
		if _, err := in.Run(sched.Options{Seed: seed}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestInterpFieldErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{`fn main() { var o = new Object; print(o.missing); }`, "unset field"},
		{`fn main() { var x = 3; x.f = 1; }`, "field access requires an object"},
		{`fn main() { var x = 3; print(x.f); }`, "field access requires an object"},
	}
	for _, c := range cases {
		prog, err := Parse("e.clf", c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		_, err = NewInterp(prog, nil).Run(sched.Options{Seed: 1})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Run(%q): err = %v, want contains %q", c.src, err, c.want)
		}
	}
}

func TestParseFieldAssignErrors(t *testing.T) {
	if _, err := Parse("e.clf", `fn main() { 3 = 4; }`); err == nil || !strings.Contains(err.Error(), "cannot assign") {
		t.Errorf("err = %v", err)
	}
	if _, err := Parse("e.clf", `fn main() { var o = new Object; o. = 1; }`); err == nil {
		t.Error("expected parse error for missing field name")
	}
}

func TestInterpSyncOnFieldLock(t *testing.T) {
	// Locks stored in fields: the Jigsaw-style pattern where the
	// factory object carries its monitors.
	res, _ := runCLF(t, `
		fn worker(srv, delay) {
			work(delay);
			sync (srv.lockA) {
				sync (srv.lockB) {
				}
			}
		}
		fn main() {
			var srv = new Server;
			srv.lockA = new Object;
			srv.lockB = new Object;
			var t = spawn worker(srv, 0);
			join t;
		}`, 2)
	if res.Outcome != sched.Completed {
		t.Fatalf("outcome %v", res.Outcome)
	}
}

func TestASTPositions(t *testing.T) {
	// Every statement and expression node must carry the position of
	// its leading token — these feed the analyses' labels, so drift
	// here silently breaks cross-run identification.
	src := "fn f(a) { return a; }\n" + // line 1
		"fn main() {\n" + // line 2
		"    var o = new Object;\n" + // line 3
		"    var l = newlatch;\n" + // line 4
		"    o = f(o);\n" + // line 5
		"    sync (o) { waiton o; }\n" + // line 6
		"    if 1 < 2 { work(1); } else { print(\"x\"); }\n" + // line 7
		"    while false { }\n" + // line 8
		"    signal l;\n" + // line 9
		"    await l;\n" + // line 10
		"    var t = spawn f(o);\n" + // line 11
		"    join t;\n" + // line 12
		"    notify o;\n" + // line 13
		"    o.field = 1 + -2;\n" + // line 14
		"    print(o.field, !true, nil);\n" + // line 15
		"}"
	prog, err := Parse("pos.clf", src)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Funcs[0].Pos.Line != 1 || prog.Funcs[1].Pos.Line != 2 {
		t.Errorf("function positions: %v %v", prog.Funcs[0].Pos, prog.Funcs[1].Pos)
	}
	main := prog.Funcs[1]
	wantLines := []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	if len(main.Body.Stmts) != len(wantLines) {
		t.Fatalf("statement count %d, want %d", len(main.Body.Stmts), len(wantLines))
	}
	for i, s := range main.Body.Stmts {
		if got := s.stmtPos().Line; got != wantLines[i] {
			t.Errorf("stmt %d (%T) at line %d, want %d", i, s, got, wantLines[i])
		}
	}
	// Spot-check expression positions through the statements.
	sync := main.Body.Stmts[3].(*SyncStmt)
	if sync.Lock.exprPos().Line != 6 {
		t.Errorf("sync lock expr at %v", sync.Lock.exprPos())
	}
	iff := main.Body.Stmts[4].(*IfStmt)
	if iff.Cond.exprPos().Line != 7 {
		t.Errorf("if cond expr at %v", iff.Cond.exprPos())
	}
	fa := main.Body.Stmts[11].(*FieldAssignStmt)
	if fa.Val.exprPos().Line != 14 {
		t.Errorf("field assign value at %v", fa.Val.exprPos())
	}
	pr := main.Body.Stmts[12].(*PrintStmt)
	for _, arg := range pr.Args {
		if arg.exprPos().Line != 15 {
			t.Errorf("print arg (%T) at %v", arg, arg.exprPos())
		}
	}
}

func TestProdConsManySeeds(t *testing.T) {
	// The bounded producer/consumer must drain cleanly under every
	// schedule: wait/notify + fields under heavy interleaving stress.
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "prodcons.clf"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Parse("prodcons.clf", string(src))
	if err != nil {
		t.Fatal(err)
	}
	in := NewInterp(prog, nil)
	for seed := int64(0); seed < 50; seed++ {
		res, err := in.Run(sched.Options{Seed: seed, MaxSteps: 100_000})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Outcome != sched.Completed {
			t.Fatalf("seed %d: outcome %v", seed, res.Outcome)
		}
	}
}

func TestFormatAllValueKinds(t *testing.T) {
	res, out := runCLF(t, `
		fn noop() { }
		fn main() {
			var o = new Widget;
			var l = newlatch;
			var t = spawn noop();
			join t;
			print(o, l, t, "s", 1, true, nil);
		}`, 1)
	if res.Outcome != sched.Completed {
		t.Fatalf("outcome %v", res.Outcome)
	}
	for _, want := range []string{"Widget", "latch(", "thread(noop)", "s 1 true nil"} {
		if !strings.Contains(out, want) {
			t.Errorf("output %q missing %q", out, want)
		}
	}
}

func TestSyncOnLatchAndThreadMonitors(t *testing.T) {
	// Latches and thread handles expose their identity object's
	// monitor, like any Java object.
	res, _ := runCLF(t, `
		fn noop() { }
		fn main() {
			var l = newlatch;
			var t = spawn noop();
			sync (l) { }
			sync (t) { }
			join t;
		}`, 1)
	if res.Outcome != sched.Completed {
		t.Fatalf("outcome %v", res.Outcome)
	}
}

func TestStringComparisonIsTypeError(t *testing.T) {
	prog, err := Parse("e.clf", `fn main() { var x = "a" < "b"; }`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewInterp(prog, nil).Run(sched.Options{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "requires ints") {
		t.Errorf("err = %v", err)
	}
}

func TestWhileLoopHitsStepLimit(t *testing.T) {
	prog, err := Parse("e.clf", `fn main() { while true { } }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewInterp(prog, nil).Run(sched.Options{Seed: 1, MaxSteps: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != sched.StepLimit {
		t.Fatalf("outcome %v, want step-limit (loop back edges must be scheduling points)", res.Outcome)
	}
}
