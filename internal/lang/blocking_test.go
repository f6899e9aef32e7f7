package lang

import (
	"strings"
	"testing"

	"dlfuzz/internal/sched"
)

func TestLexBlockingKeywords(t *testing.T) {
	toks, err := Lex("t.clf", `newchan newwg send recv close wgadd wgdone wgwait`)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokKind{
		TokNewChan, TokNewWG, TokSend, TokRecv, TokClose,
		TokWGAdd, TokWGDone, TokWGWait, TokEOF,
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(want))
	}
	for i := range want {
		if toks[i].Kind != want[i] {
			t.Errorf("token %d: got %v, want %v", i, toks[i].Kind, want[i])
		}
	}
}

func TestParseBlockingForms(t *testing.T) {
	prog, err := Parse("t.clf", `
		fn main() {
			var ch = newchan;
			var buf = newchan(3);
			var wg = newwg;
			send ch;
			send buf, 42;
			close ch;
			wgadd wg, 2;
			wgdone wg;
			wgwait wg;
			var v = recv buf;
			print(v);
		}`)
	if err != nil {
		t.Fatal(err)
	}
	main, _ := prog.Func("main")
	stmts := main.Body.Stmts
	// Spot-check the statement shapes.
	if v, ok := stmts[0].(*VarStmt); !ok {
		t.Errorf("stmt 0: %T", stmts[0])
	} else if nc, ok := v.Init.(*NewChanExpr); !ok || nc.Cap != nil {
		t.Errorf("stmt 0 init: %T cap=%v", v.Init, nc)
	}
	if v, ok := stmts[1].(*VarStmt); !ok {
		t.Errorf("stmt 1: %T", stmts[1])
	} else if nc, ok := v.Init.(*NewChanExpr); !ok || nc.Cap == nil {
		t.Errorf("stmt 1 init: %T", v.Init)
	}
	if v, ok := stmts[2].(*VarStmt); !ok {
		t.Errorf("stmt 2: %T", stmts[2])
	} else if _, ok := v.Init.(*NewWGExpr); !ok {
		t.Errorf("stmt 2 init: %T", v.Init)
	}
	if s, ok := stmts[3].(*SendStmt); !ok || s.Val != nil {
		t.Errorf("stmt 3: %T", stmts[3])
	}
	if s, ok := stmts[4].(*SendStmt); !ok || s.Val == nil {
		t.Errorf("stmt 4: %T", stmts[4])
	}
	if _, ok := stmts[5].(*CloseStmt); !ok {
		t.Errorf("stmt 5: %T", stmts[5])
	}
	if _, ok := stmts[6].(*WGAddStmt); !ok {
		t.Errorf("stmt 6: %T", stmts[6])
	}
	if _, ok := stmts[7].(*WGDoneStmt); !ok {
		t.Errorf("stmt 7: %T", stmts[7])
	}
	if _, ok := stmts[8].(*WGWaitStmt); !ok {
		t.Errorf("stmt 8: %T", stmts[8])
	}
	if v, ok := stmts[9].(*VarStmt); !ok {
		t.Errorf("stmt 9: %T", stmts[9])
	} else if _, ok := v.Init.(*RecvExpr); !ok {
		t.Errorf("stmt 9 init: %T", v.Init)
	}
}

func TestParseBlockingErrors(t *testing.T) {
	cases := []string{
		`fn main() { send; }`,             // missing channel
		`fn main() { wgadd wg; }`,         // missing count
		`fn main() { var x = newchan(; }`, // bad capacity
		`fn main() { close; }`,            // missing channel
	}
	for _, src := range cases {
		if _, err := Parse("e.clf", src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestInterpChanRendezvous(t *testing.T) {
	res, out := runCLF(t, `
		fn producer(ch) {
			send ch, 7;
			send ch, 8;
			close ch;
		}
		fn main() {
			var ch = newchan;
			var t = spawn producer(ch);
			print(recv ch);
			print(recv ch);
			print(recv ch);
			join t;
		}`, 3)
	if res.Outcome != sched.Completed {
		t.Fatalf("outcome %v", res.Outcome)
	}
	// Third recv hits a closed, drained channel and yields nil.
	if out != "7\n8\nnil\n" {
		t.Errorf("output = %q", out)
	}
}

func TestInterpBufferedChanFIFO(t *testing.T) {
	res, out := runCLF(t, `
		fn main() {
			var ch = newchan(3);
			send ch, 1;
			send ch, 2;
			send ch, 3;
			print(recv ch, recv ch, recv ch);
		}`, 1)
	if res.Outcome != sched.Completed || out != "1 2 3\n" {
		t.Errorf("outcome %v output %q", res.Outcome, out)
	}
}

func TestInterpWaitGroup(t *testing.T) {
	res, out := runCLF(t, `
		fn worker(wg, n) {
			work(n);
			wgdone wg;
		}
		fn main() {
			var wg = newwg;
			wgadd wg, 2;
			spawn worker(wg, 3);
			spawn worker(wg, 5);
			wgwait wg;
			print("joined");
		}`, 5)
	if res.Outcome != sched.Completed || out != "joined\n" {
		t.Errorf("outcome %v output %q", res.Outcome, out)
	}
}

func TestInterpRecvPrecedence(t *testing.T) {
	// `recv` binds a postfix operand: `recv a.ch` receives from the
	// field, not from `a` then selecting a field of the result.
	res, out := runCLF(t, `
		fn main() {
			var a = new Box;
			a.ch = newchan(1);
			send a.ch, 9;
			print(recv a.ch);
		}`, 1)
	if res.Outcome != sched.Completed || out != "9\n" {
		t.Errorf("outcome %v output %q", res.Outcome, out)
	}
}

func TestInterpChanDeadlockVerdicts(t *testing.T) {
	// Two threads receive on channels nobody sends to: main exits, the
	// workers are stuck forever — a partial deadlock.
	prog, err := Parse("t.clf", `
		fn sink(ch) { var v = recv ch; }
		fn main() {
			var a = newchan;
			var b = newchan;
			spawn sink(a);
			spawn sink(b);
		}`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewInterp(prog, nil).Run(sched.Options{Seed: 2, MaxSteps: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != sched.Stall || res.Blocked == nil {
		t.Fatalf("outcome %v blocked %v", res.Outcome, res.Blocked)
	}
	if !res.Blocked.Partial {
		t.Errorf("expected partial deadlock: %v", res.Blocked)
	}
	if len(res.Blocked.Threads) != 2 {
		t.Errorf("stuck threads = %d, want 2", len(res.Blocked.Threads))
	}
	for _, bt := range res.Blocked.Threads {
		if bt.Kind != sched.BlockChanRecv {
			t.Errorf("kind = %v, want recv", bt.Kind)
		}
	}
}

func TestInterpWGTotalDeadlock(t *testing.T) {
	prog, err := Parse("t.clf", `
		fn main() {
			var wg = newwg;
			wgadd wg, 1;
			wgwait wg;
		}`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewInterp(prog, nil).Run(sched.Options{Seed: 1, MaxSteps: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != sched.Stall || res.Blocked == nil || res.Blocked.Partial {
		t.Fatalf("outcome %v blocked %v", res.Outcome, res.Blocked)
	}
	if !strings.HasPrefix(res.Blocked.Key(), "total:") {
		t.Errorf("key = %q", res.Blocked.Key())
	}
}

func TestInterpMisuseErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{`fn main() { var ch = newchan(1); close ch; send ch, 1; }`, "closed channel"},
		{`fn main() { var ch = newchan; close ch; close ch; }`, "closes closed"},
		{`fn main() { var wg = newwg; wgdone wg; }`, "negative"},
		{`fn main() { var ch = newchan(0 - 1); }`, "negative capacity"},
		{`fn main() { send 3; }`, "expected chan"},
		{`fn main() { var x = recv nil; }`, "expected chan"},
		{`fn main() { wgwait 4; }`, "expected waitgroup"},
		{`fn main() { var wg = newwg; wgadd wg, true; }`, "expected int"},
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
		var rt *RuntimeError
		if err != nil {
			if e, ok := err.(*RuntimeError); ok {
				rt = e
			}
		}
		if rt == nil {
			t.Errorf("Run(%q): err %T, want *RuntimeError", c.src, err)
		} else if rt.Pos.Line == 0 {
			t.Errorf("Run(%q): RuntimeError without position: %v", c.src, rt)
		}
	}
}

func TestInterpBlockingDeterministic(t *testing.T) {
	src := `
		fn fwd(in, out) { send out, recv in; }
		fn main() {
			var a = newchan;
			var b = newchan(1);
			var wg = newwg;
			wgadd wg, 1;
			var t = spawn fwd(a, b);
			send a, 11;
			print(recv b);
			wgdone wg;
			wgwait wg;
			join t;
		}`
	for seed := int64(0); seed < 8; seed++ {
		r1, o1 := runCLF(t, src, seed)
		r2, o2 := runCLF(t, src, seed)
		if r1.Outcome != r2.Outcome || r1.Steps != r2.Steps || o1 != o2 {
			t.Fatalf("seed %d not deterministic", seed)
		}
		if r1.Outcome != sched.Completed || o1 != "11\n" {
			t.Fatalf("seed %d: outcome %v output %q", seed, r1.Outcome, o1)
		}
	}
}
