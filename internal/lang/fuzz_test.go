package lang

// Native Go fuzz targets for the CLF front end, seeded with every
// program under testdata/. The invariants the targets lock in:
//
//   - neither the lexer nor the parser panics on any input;
//   - every token the streaming lexer yields carries a valid,
//     non-decreasing source position inside the input (positions
//     become statement labels, so a bogus one would corrupt cycle
//     identification downstream);
//   - Parse either succeeds with a resolvable program that has a main
//     function, or fails with a positioned *Error naming the file;
//   - whenever lexing the whole input fails, Parse returns exactly that
//     error: the parser pulls tokens one at a time, but a lexing error
//     anywhere in the file still wins over any parse or resolve error.
//
// scripts/ci.sh runs FuzzParser (and FuzzInterp, fuzz_interp_test.go)
// for a short smoke window on every CI pass; longer runs
// (`go test -fuzz=FuzzParser ./internal/lang/`) explore further from
// the same corpus.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// seedCorpus adds every testdata CLF program — the hand-written models
// and the minimized generator corpus under testdata/corpus — to the fuzz
// corpus.
func seedCorpus(f *testing.F) {
	f.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.clf"))
	if err != nil {
		f.Fatal(err)
	}
	if len(files) == 0 {
		f.Fatal("no testdata/*.clf seed programs found")
	}
	generated, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.clf"))
	if err != nil {
		f.Fatal(err)
	}
	files = append(files, generated...)
	for _, fn := range files {
		src, err := os.ReadFile(fn)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	// Hand-picked slivers that steer the fuzzer toward the tricky
	// lexer states: comments, escapes, two-rune operators.
	f.Add(`/* unterminated`)
	f.Add(`"esc \n \t \" \\"`)
	f.Add(`a && b || c <= d != e`)
	f.Add("fn main() { var x = 1; }")
	// Blocking-op surface syntax: statement keywords with operand
	// lists, the optional newchan capacity, and recv as a prefix
	// operator inside larger expressions.
	f.Add("fn main() { var ch = newchan; send ch; close ch; }")
	f.Add("fn main() { var ch = newchan(2); send ch, 1 + 2; var v = recv ch; }")
	f.Add("fn main() { var wg = newwg; wgadd wg, 2; wgdone wg; wgwait wg; }")
	f.Add("fn main() { var x = recv recv nil; }")
	f.Add("fn main() { send; }")
	f.Add("fn main() { var c = newchan(; }")
	// A parse error followed by a lexing error: the lexing error wins.
	f.Add("fn main() { var = 1; } /* unterminated")
	f.Add("fn main( { } var s = \"open")
}

// checkError asserts a front-end failure is well-formed: a positioned
// *Error attributing a non-empty message to the named file.
func checkError(t *testing.T, err error, file string) {
	t.Helper()
	le, ok := err.(*Error)
	if !ok {
		t.Fatalf("front end returned %T (%v), want *lang.Error", err, err)
	}
	if le.Msg == "" {
		t.Fatal("error with empty message")
	}
	if le.Pos.File != file || le.Pos.Line < 1 || le.Pos.Col < 1 {
		t.Fatalf("error position %v is not a valid position in %s", le.Pos, file)
	}
	if !strings.HasPrefix(err.Error(), file+":") {
		t.Fatalf("error %q does not lead with its position", err.Error())
	}
}

func FuzzLexer(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, src string) {
		lx := NewLexer("fuzz.clf", src)
		lines := strings.Count(src, "\n") + 1
		prev := Pos{Line: 1, Col: 1}
		for i := 0; ; i++ {
			tok, err := lx.Next()
			if err != nil {
				checkError(t, err, "fuzz.clf")
				return
			}
			p := tok.Pos
			if p.File != "fuzz.clf" || p.Line < 1 || p.Col < 1 {
				t.Fatalf("token %d has invalid position %v", i, p)
			}
			if p.Line > lines {
				t.Fatalf("token %d position %v past the %d-line input", i, p, lines)
			}
			if p.Line < prev.Line || (p.Line == prev.Line && p.Col < prev.Col) {
				t.Fatalf("token %d position %v went backwards from %v", i, p, prev)
			}
			prev = p
			if tok.Kind == TokEOF {
				return
			}
			if i > len(src) {
				t.Fatalf("%d tokens from a %d-byte input without EOF", i, len(src))
			}
		}
	})
}

func FuzzParser(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse("fuzz.clf", src)
		if _, lexErr := Lex("fuzz.clf", src); lexErr != nil {
			if err == nil || err.Error() != lexErr.Error() {
				t.Fatalf("Parse returned %v, want the lexing error %v", err, lexErr)
			}
		}
		if err != nil {
			if prog != nil {
				t.Fatal("Parse returned both a program and an error")
			}
			checkError(t, err, "fuzz.clf")
			return
		}
		if prog == nil {
			t.Fatal("Parse returned neither program nor error")
		}
		// A successful parse resolved: main exists and the program
		// survives a second resolve pass (resolution is idempotent).
		if _, ok := prog.Func("main"); !ok {
			t.Fatal("parsed program has no main")
		}
		if err := Resolve(prog); err != nil {
			t.Fatalf("re-resolving a parsed program failed: %v", err)
		}
	})
}
