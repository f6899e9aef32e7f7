// Package lang implements CLF ("concurrent lock fuzzing" language), a
// small Java-flavoured concurrent language that serves as the
// instrumented-program front-end of this reproduction: the interpreter
// executes CLF programs on the deterministic scheduler, emitting exactly
// the dynamic statements the paper's analyses observe — Acquire/Release
// (from sync blocks), Call/Return (from function calls), New (from
// allocations), plus spawn/join/work.
//
// The pipeline is conventional: Parse (pulling tokens from the Lexer
// one at a time) -> Resolve -> compile -> Interp.
// Programs look like:
//
//	fn worker(l1, l2, slow) {
//	    if slow { work(40); }
//	    sync (l1) {
//	        sync (l2) { }
//	    }
//	}
//
//	fn main() {
//	    var o1 = new Object;
//	    var o2 = new Object;
//	    var t1 = spawn worker(o1, o2, true);
//	    var t2 = spawn worker(o2, o1, false);
//	    join t1;
//	    join t2;
//	}
package lang

import (
	"fmt"
	"strconv"
)

// Pos is a source position.
type Pos struct {
	File string
	Line int
	Col  int
}

// String renders the position as file:line:col.
func (p Pos) String() string {
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Loc renders the position as a statement label (file:line), the
// granularity the analyses use.
func (p Pos) Loc() string {
	return p.File + ":" + strconv.Itoa(p.Line)
}

// TokKind enumerates token kinds.
type TokKind int

// Token kinds. Keywords occupy the tail of the enum.
const (
	TokEOF TokKind = iota
	TokIdent
	TokInt
	TokString

	// Punctuation and operators.
	TokLParen
	TokRParen
	TokLBrace
	TokRBrace
	TokComma
	TokSemi
	TokDot
	TokAssign // =
	TokPlus
	TokMinus
	TokStar
	TokSlash
	TokPercent
	TokEq  // ==
	TokNeq // !=
	TokLt
	TokLe
	TokGt
	TokGe
	TokAndAnd
	TokOrOr
	TokBang

	// Keywords.
	TokFn
	TokVar
	TokIf
	TokElse
	TokWhile
	TokSync
	TokSpawn
	TokJoin
	TokWork
	TokNew
	TokNewLatch
	TokAwait
	TokSignal
	TokWaitOn
	TokNotify
	TokNotifyAll
	TokReturn
	TokPrint
	TokTrue
	TokFalse
	TokNil
	TokNewChan
	TokNewWG
	TokSend
	TokRecv
	TokClose
	TokWGAdd
	TokWGDone
	TokWGWait
)

var tokNames = map[TokKind]string{
	TokEOF:       "end of file",
	TokIdent:     "identifier",
	TokInt:       "integer",
	TokString:    "string",
	TokLParen:    "'('",
	TokRParen:    "')'",
	TokLBrace:    "'{'",
	TokRBrace:    "'}'",
	TokComma:     "','",
	TokSemi:      "';'",
	TokAssign:    "'='",
	TokPlus:      "'+'",
	TokMinus:     "'-'",
	TokStar:      "'*'",
	TokSlash:     "'/'",
	TokPercent:   "'%'",
	TokEq:        "'=='",
	TokNeq:       "'!='",
	TokLt:        "'<'",
	TokLe:        "'<='",
	TokGt:        "'>'",
	TokGe:        "'>='",
	TokAndAnd:    "'&&'",
	TokOrOr:      "'||'",
	TokBang:      "'!'",
	TokFn:        "'fn'",
	TokVar:       "'var'",
	TokIf:        "'if'",
	TokElse:      "'else'",
	TokWhile:     "'while'",
	TokSync:      "'sync'",
	TokSpawn:     "'spawn'",
	TokJoin:      "'join'",
	TokWork:      "'work'",
	TokNew:       "'new'",
	TokNewLatch:  "'newlatch'",
	TokAwait:     "'await'",
	TokSignal:    "'signal'",
	TokWaitOn:    "'waiton'",
	TokNotify:    "'notify'",
	TokNotifyAll: "'notifyall'",
	TokReturn:    "'return'",
	TokPrint:     "'print'",
	TokTrue:      "'true'",
	TokFalse:     "'false'",
	TokNil:       "'nil'",
	TokNewChan:   "'newchan'",
	TokNewWG:     "'newwg'",
	TokSend:      "'send'",
	TokRecv:      "'recv'",
	TokClose:     "'close'",
	TokWGAdd:     "'wgadd'",
	TokWGDone:    "'wgdone'",
	TokWGWait:    "'wgwait'",
}

// String names the token kind for diagnostics.
func (k TokKind) String() string {
	if s, ok := tokNames[k]; ok {
		return s
	}
	return fmt.Sprintf("TokKind(%d)", int(k))
}

var keywords = map[string]TokKind{
	"fn":        TokFn,
	"var":       TokVar,
	"if":        TokIf,
	"else":      TokElse,
	"while":     TokWhile,
	"sync":      TokSync,
	"spawn":     TokSpawn,
	"join":      TokJoin,
	"work":      TokWork,
	"new":       TokNew,
	"newlatch":  TokNewLatch,
	"await":     TokAwait,
	"signal":    TokSignal,
	"waiton":    TokWaitOn,
	"notify":    TokNotify,
	"notifyall": TokNotifyAll,
	"return":    TokReturn,
	"print":     TokPrint,
	"true":      TokTrue,
	"false":     TokFalse,
	"nil":       TokNil,
	"newchan":   TokNewChan,
	"newwg":     TokNewWG,
	"send":      TokSend,
	"recv":      TokRecv,
	"close":     TokClose,
	"wgadd":     TokWGAdd,
	"wgdone":    TokWGDone,
	"wgwait":    TokWGWait,
}

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string
	Pos  Pos
}

// Error is a positioned front-end error (lexing, parsing, or resolution).
type Error struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s", e.Pos, e.Msg)
}

func errf(pos Pos, format string, args ...any) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
