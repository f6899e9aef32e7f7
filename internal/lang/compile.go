package lang

// The CLF bytecode compiler. compile lowers a resolved AST into flat
// instruction streams: one compiledFunc per declaration, each a slice of
// pointer-free, slot-addressed instructions. An instruction names its
// literal by index into its function's constant pool and its statement
// label by index into the program's label table, which holds one
// pre-rendered event.Loc per source line; it stores the exact line and
// column the tree-walker would report in a runtime error, the file being
// held once per program. Nothing of the AST survives compilation.
// The VM (vm.go) executes the streams; byte-identity with the walker is
// the contract, so every instruction documents which interp.go path it
// mirrors, including evaluation order and error positions.

import (
	"fmt"
	"slices"

	"dlfuzz/internal/event"
)

type opcode uint8

const (
	opConst      opcode = iota // push consts[in.k]
	opLoad                     // push slots[in.a]
	opStore                    // slots[in.a] = pop (var decl and assignment)
	opJump                     // pc = in.a
	opBrFalse                  // pop; must be bool (error at in.pos); jump to in.a when false
	opBrTrue                   // pop; must be bool; jump to in.a when true
	opNot                      // pop; must be bool (error at operand pos); push negation
	opNeg                      // pop; must be int (error at operand pos); push negation
	opBinop                    // pop r, pop l; apply TokKind(in.a); errors at in.pos
	opBinopK                   // pop l; apply TokKind(in.a) with constant right operand consts[in.k]
	opBinopS                   // pop l; apply TokKind(in.a) with right operand slots[in.k]
	opBinopKS                  // opBinopK storing the result in slots[in.b] instead of pushing
	opBinopSS                  // opBinopS storing the result in slots[in.b] instead of pushing
	opEq                       // pop r, pop l; push equality (in.a != 0 negates)
	opPop                      // discard top (ExprStmt)
	opPrint                    // pop in.a args; print space-joined + newline
	opBoolChk                  // top must be bool; error at in.pos (evalBool of a subexpression)
	opIntChk                   // top must be int; error at in.pos (evalInt of a subexpression)
	opChanChk                  // top must be chan; error at in.pos (evalChan before a later operand)
	opWGChk                    // top must be waitgroup; error at in.pos
	opNewObj                   // c.New(type name strs[in.a], labels[in.k]); push
	opNewLatch                 // c.NewLatch(labels[in.k]); push
	opNewWG                    // c.NewWaitGroup(labels[in.k]); push
	opNewChan                  // in.a != 0: pop capacity (int-checked; negative error at in.pos); c.NewChan; push
	opRecv                     // pop chan (error at in.pos); c.Recv(labels[in.k]); push
	opSend                     // pop value if in.a != 0 (else nil), pop chan (pre-checked); c.Send(labels[in.k])
	opClose                    // pop chan (error at in.pos); c.Close(labels[in.k])
	opWGAdd                    // pop n (pre-checked int), pop wg (pre-checked); c.WGAdd(labels[in.k])
	opWGDone                   // pop wg (error at in.pos); c.WGDone(labels[in.k])
	opWGWait                   // pop wg (error at in.pos); c.WGWait(labels[in.k])
	opSyncEnter                // pop lockable (error at in.pos); c.Acquire(labels[in.k]); push sync stack
	opSyncExit                 // pop sync stack; c.Release
	opWork                     // pop n (pre-checked int; negative error at in.pos); c.Work(labels[in.k])
	opStep                     // c.Step(labels[in.k]) — while-loop back edge
	opJoin                     // pop thread (error at in.pos); c.Join(labels[in.k])
	opAwait                    // pop latch (error at in.pos); c.Await(labels[in.k])
	opSignal                   // pop latch (error at in.pos); c.Signal(labels[in.k])
	opWaitOn                   // top lockable (error at in.pos); post Wait at labels[in.k]
	opWaitResume               // pop lockable; post the Acquire that ends the Wait (c.Wait's second half)
	opNotify                   // pop lockable (error at in.pos); c.Notify/NotifyAll (in.a = all)
	opFieldGet                 // pop object (error at in.pos); push field in.a ("unset" error at in.pos)
	opFieldOwner               // pop; must be a plain object (error at in.pos); push back
	opFieldSet                 // pop value, pop object (pre-checked); write field in.a
	opCall                     // pop in.b args; invoke funcs[in.a] at labels[in.k]; push result
	opSpawn                    // pop in.b args; c.Spawn funcs[in.a] at labels[in.k]; push thread handle
	opReturn                   // return pop if in.a != 0, else nil
)

// instr is one VM instruction: an opcode and int32 operands, with no
// pointer for the garbage collector to scan.
type instr struct {
	op  opcode
	a   int32  // slot / jump target / field id / func index / flag / TokKind / type-name string
	b   int32  // argument count (opCall, opSpawn); destination slot (opBinopKS, opBinopSS)
	k   int32  // constant index (opConst, opBinopK, opBinopKS); right slot (opBinopS, opBinopSS); label index (scheduling points)
	pos srcPos // source position for runtime errors
}

// srcPos is a line and column in the program's one source file.
type srcPos struct{ line, col int32 }

func at(p Pos) srcPos { return srcPos{line: int32(p.Line), col: int32(p.Col)} }

// compiledFunc is one lowered function.
type compiledFunc struct {
	name    string
	nslots  int // named-variable slots; the operand stack starts here
	frame   int // nslots + deepest operand-stack use
	code    []instr
	consts  []vval // literal pool: opConst and opBinopK operands
	declLbl int32  // the label of the declaration's line (main's call site)
}

// compiledProg is the bytecode form of a Program.
type compiledProg struct {
	file     string
	funcs    []*compiledFunc
	main     *compiledFunc
	fields   []string    // interned field names, for "unset field" messages
	maxFrame int         // the largest compiledFunc.frame
	labels   []event.Loc // one "file:line" label per source line that has one
	strs     []string    // string literals and type names, see vmRun.str
}

// errAt is rtErrf at a position in the program's file.
func (cp *compiledProg) errAt(p srcPos, format string, args ...any) *RuntimeError {
	return rtErrf(Pos{File: cp.file, Line: int(p.line), Col: int(p.col)}, format, args...)
}

// compile lowers a resolved program, caching the result on the Program.
func (p *Program) compile() *compiledProg {
	p.compileOnce.Do(func() {
		cp := &compiledProg{file: p.File, fields: p.fields, funcs: make([]*compiledFunc, len(p.Funcs))}
		c := &fnCompiler{cp: cp, lines: map[int]int32{}}
		for i, f := range p.Funcs {
			cp.funcs[i] = c.function(f)
			cp.maxFrame = max(cp.maxFrame, cp.funcs[i].frame)
		}
		cp.main = cp.funcs[p.funcIdx["main"]]
		p.compiled = cp
	})
	return p.compiled
}

// fnCompiler emits one function's instruction stream at a time, tracking
// the operand-stack depth (for frame sizing) and the statically-known
// stack of open sync blocks (so `return` can release them in unwind
// order). One fnCompiler lowers every function of a program: its code
// and constant buffers are reused from function to function, and each
// compiledFunc gets exact-size copies.
type fnCompiler struct {
	cp       *compiledProg
	lines    map[int]int32 // source line -> index in cp.labels
	code     []instr
	consts   []vval
	depth    int // current operand-stack depth (conservative on joins)
	maxDepth int
	syncs    int // open sync blocks at this point in the function
	fence    int // highest recorded jump target; fusion must not cross it
}

// function lowers one declaration.
func (c *fnCompiler) function(f *FuncDecl) *compiledFunc {
	c.code, c.consts = c.code[:0], c.consts[:0]
	c.depth, c.maxDepth, c.syncs, c.fence = 0, 0, 0, 0
	c.block(f.Body)
	// Falling off the end returns nil, like the tree-walker's callFunction
	// when no return statement unwinds.
	c.emit(instr{op: opReturn}, 0)
	return &compiledFunc{
		name:    f.Name,
		nslots:  f.numSlots,
		frame:   f.numSlots + c.maxDepth,
		code:    slices.Clone(c.code),
		consts:  slices.Clone(c.consts),
		declLbl: c.label(f.Pos),
	}
}

// emit appends an instruction whose net operand-stack effect is delta.
// The depth bookkeeping is conservative across branch joins (both arms
// of &&/|| are counted), which can only oversize the frame, never
// undersize it.
func (c *fnCompiler) emit(in instr, delta int) int {
	c.code = append(c.code, in)
	c.depth += delta
	if c.depth > c.maxDepth {
		c.maxDepth = c.depth
	}
	return len(c.code) - 1
}

// patch sets the jump target of the branch emitted at index i. The
// target index becomes a fence: a later fusion must not swallow the
// instruction a branch lands on.
func (c *fnCompiler) patch(i int) {
	c.code[i].a = int32(len(c.code))
	if len(c.code) > c.fence {
		c.fence = len(c.code)
	}
}

// label returns the index of p's statement label, rendering and
// interning it on its line's first use.
func (c *fnCompiler) label(p Pos) int32 {
	if i, ok := c.lines[p.Line]; ok {
		return i
	}
	i := int32(len(c.cp.labels))
	c.cp.labels = append(c.cp.labels, event.Loc(p.Loc()))
	c.lines[p.Line] = i
	return i
}

// str adds s to the program's constant strings and returns its index.
func (c *fnCompiler) str(s string) int32 {
	c.cp.strs = append(c.cp.strs, s)
	return int32(len(c.cp.strs) - 1)
}

// konst adds v to the function's constant pool and returns its index.
func (c *fnCompiler) konst(v vval) int32 {
	c.consts = append(c.consts, v)
	return int32(len(c.consts) - 1)
}

func (c *fnCompiler) block(b *Block) {
	for _, s := range b.Stmts {
		c.stmt(s)
	}
}

func (c *fnCompiler) stmt(s Stmt) {
	switch s := s.(type) {
	case *Block:
		c.block(s)

	case *VarStmt:
		c.expr(s.Init)
		c.emitStore(s.slot)

	case *AssignStmt:
		c.expr(s.Val)
		c.emitStore(s.slot)

	case *SyncStmt:
		// evalObject's error position is the lock expression's own.
		c.expr(s.Lock)
		c.emit(instr{op: opSyncEnter, pos: at(s.Lock.exprPos()), k: c.label(s.Pos)}, -1)
		c.syncs++
		c.block(s.Body)
		c.syncs--
		c.emit(instr{op: opSyncExit}, 0)

	case *IfStmt:
		c.expr(s.Cond)
		br := c.emit(instr{op: opBrFalse, pos: at(s.Cond.exprPos())}, -1)
		c.block(s.Then)
		if s.Else == nil {
			c.patch(br)
			return
		}
		end := c.emit(instr{op: opJump}, 0)
		c.patch(br)
		c.stmt(s.Else)
		c.patch(end)

	case *WhileStmt:
		top := len(c.code)
		c.expr(s.Cond)
		br := c.emit(instr{op: opBrFalse, pos: at(s.Cond.exprPos())}, -1)
		c.block(s.Body)
		// The back edge is a scheduling point, exactly as in the walker.
		c.emit(instr{op: opStep, k: c.label(s.Pos)}, 0)
		c.emit(instr{op: opJump, a: int32(top)}, 0)
		c.patch(br)

	case *WorkStmt:
		c.expr(s.N)
		// evalInt errors at the operand's position; the negative-amount
		// error at the statement's.
		c.emit(instr{op: opIntChk, pos: at(s.N.exprPos())}, 0)
		c.emit(instr{op: opWork, pos: at(s.Pos), k: c.label(s.Pos)}, -1)

	case *JoinStmt:
		c.expr(s.Thread)
		c.emit(instr{op: opJoin, pos: at(s.Pos), k: c.label(s.Pos)}, -1)

	case *AwaitStmt:
		c.expr(s.Latch)
		c.emit(instr{op: opAwait, pos: at(s.Pos), k: c.label(s.Pos)}, -1)

	case *SignalStmt:
		c.expr(s.Latch)
		c.emit(instr{op: opSignal, pos: at(s.Pos), k: c.label(s.Pos)}, -1)

	case *WaitStmt:
		c.expr(s.Obj)
		c.emit(instr{op: opWaitOn, pos: at(s.Obj.exprPos()), k: c.label(s.Pos)}, 0)
		c.emit(instr{op: opWaitResume, k: c.label(s.Pos)}, -1)

	case *NotifyStmt:
		c.expr(s.Obj)
		all := int32(0)
		if s.All {
			all = 1
		}
		c.emit(instr{op: opNotify, a: all, pos: at(s.Obj.exprPos()), k: c.label(s.Pos)}, -1)

	case *SendStmt:
		// The walker checks the channel (at the statement position)
		// before evaluating the value.
		c.expr(s.Ch)
		c.emit(instr{op: opChanChk, pos: at(s.Pos)}, 0)
		hasVal := int32(0)
		if s.Val != nil {
			c.expr(s.Val)
			hasVal = 1
		}
		c.emit(instr{op: opSend, a: hasVal, k: c.label(s.Pos)}, -1-int(hasVal))

	case *CloseStmt:
		c.expr(s.Ch)
		c.emit(instr{op: opClose, pos: at(s.Pos), k: c.label(s.Pos)}, -1)

	case *WGAddStmt:
		c.expr(s.WG)
		c.emit(instr{op: opWGChk, pos: at(s.Pos)}, 0)
		c.expr(s.N)
		c.emit(instr{op: opIntChk, pos: at(s.N.exprPos())}, 0)
		c.emit(instr{op: opWGAdd, k: c.label(s.Pos)}, -2)

	case *WGDoneStmt:
		c.expr(s.WG)
		c.emit(instr{op: opWGDone, pos: at(s.Pos), k: c.label(s.Pos)}, -1)

	case *WGWaitStmt:
		c.expr(s.WG)
		c.emit(instr{op: opWGWait, pos: at(s.Pos), k: c.label(s.Pos)}, -1)

	case *FieldAssignStmt:
		// evalFieldOwner (error at the statement position) runs before
		// the value is evaluated.
		c.expr(s.Obj)
		c.emit(instr{op: opFieldOwner, pos: at(s.Pos)}, 0)
		c.expr(s.Val)
		c.emit(instr{op: opFieldSet, a: int32(s.fieldID)}, -2)

	case *ReturnStmt:
		hasVal := int32(0)
		if s.Val != nil {
			c.expr(s.Val)
			hasVal = 1
		}
		// The walker's returnSignal unwinds through the deferred Releases
		// of every open sync block, innermost first, before the call
		// returns; sync nesting is lexical, so the same releases can be
		// emitted statically.
		for i := 0; i < c.syncs; i++ {
			c.emit(instr{op: opSyncExit}, 0)
		}
		c.emit(instr{op: opReturn, a: hasVal}, -int(hasVal))

	case *PrintStmt:
		for _, a := range s.Args {
			c.expr(a)
		}
		c.emit(instr{op: opPrint, a: int32(len(s.Args))}, -len(s.Args))

	case *ExprStmt:
		c.expr(s.X)
		c.emit(instr{op: opPop}, -1)

	default:
		panic(fmt.Sprintf("lang: unknown statement %T", s))
	}
}

func (c *fnCompiler) expr(e Expr) {
	switch e := e.(type) {
	case *IntLit:
		c.emit(instr{op: opConst, k: c.konst(vval{kind: vInt, i: e.Val})}, 1)
	case *BoolLit:
		v := vval{kind: vBool}
		if e.Val {
			v.i = 1
		}
		c.emit(instr{op: opConst, k: c.konst(v)}, 1)
	case *StrLit:
		c.emit(instr{op: opConst, k: c.konst(vval{kind: vStr, i: int64(c.str(e.Val))})}, 1)
	case *NilLit:
		c.emit(instr{op: opConst, k: c.konst(vval{kind: vNil})}, 1)
	case *Ident:
		c.emit(instr{op: opLoad, a: int32(e.slot)}, 1)
	case *NewExpr:
		c.emit(instr{op: opNewObj, a: c.str(e.Type), k: c.label(e.Pos)}, 1)
	case *NewLatchExpr:
		c.emit(instr{op: opNewLatch, k: c.label(e.Pos)}, 1)
	case *NewWGExpr:
		c.emit(instr{op: opNewWG, k: c.label(e.Pos)}, 1)
	case *NewChanExpr:
		if e.Cap == nil {
			c.emit(instr{op: opNewChan, pos: at(e.Pos), k: c.label(e.Pos)}, 1)
			return
		}
		c.expr(e.Cap)
		// evalInt errors at the capacity expression; the negative-capacity
		// error at the newchan expression.
		c.emit(instr{op: opIntChk, pos: at(e.Cap.exprPos())}, 0)
		c.emit(instr{op: opNewChan, a: 1, pos: at(e.Pos), k: c.label(e.Pos)}, 0)
	case *RecvExpr:
		c.expr(e.Ch)
		c.emit(instr{op: opRecv, pos: at(e.Pos), k: c.label(e.Pos)}, 0)
	case *CallExpr:
		for _, a := range e.Args {
			c.expr(a)
		}
		c.emit(instr{op: opCall, a: int32(e.funcIdx), b: int32(len(e.Args)), pos: at(e.Pos), k: c.label(e.Pos)},
			1-len(e.Args))
	case *SpawnExpr:
		for _, a := range e.Call.Args {
			c.expr(a)
		}
		c.emit(instr{op: opSpawn, a: int32(e.Call.funcIdx), b: int32(len(e.Call.Args)), pos: at(e.Pos), k: c.label(e.Pos)},
			1-len(e.Call.Args))
	case *FieldExpr:
		c.expr(e.Obj)
		c.emit(instr{op: opFieldGet, a: int32(e.fieldID), pos: at(e.Pos)}, 0)
	case *UnaryExpr:
		c.expr(e.X)
		switch e.Op {
		case TokBang:
			c.emit(instr{op: opNot, pos: at(e.X.exprPos())}, 0)
		case TokMinus:
			c.emit(instr{op: opNeg, pos: at(e.X.exprPos())}, 0)
		default:
			panic(fmt.Sprintf("lang: unknown unary op %v", e.Op))
		}
	case *BinaryExpr:
		c.binary(e)
	default:
		panic(fmt.Sprintf("lang: unknown expression %T", e))
	}
}

// binary compiles a binary expression, preserving the walker's shortcut
// evaluation for && and || (each operand bool-checked at its own
// position, the right one only when reached).
func (c *fnCompiler) binary(e *BinaryExpr) {
	switch e.Op {
	case TokAndAnd:
		c.expr(e.L)
		br := c.emit(instr{op: opBrFalse, pos: at(e.L.exprPos())}, -1)
		c.expr(e.R)
		c.emit(instr{op: opBoolChk, pos: at(e.R.exprPos())}, 0)
		end := c.emit(instr{op: opJump}, 0)
		c.patch(br)
		c.emit(instr{op: opConst, k: c.konst(vval{kind: vBool})}, 1)
		c.patch(end)
		// Both arms push one value; the linear count above over-reports
		// by one, which only pads the frame.
		c.depth--
	case TokOrOr:
		c.expr(e.L)
		br := c.emit(instr{op: opBrTrue, pos: at(e.L.exprPos())}, -1)
		c.expr(e.R)
		c.emit(instr{op: opBoolChk, pos: at(e.R.exprPos())}, 0)
		end := c.emit(instr{op: opJump}, 0)
		c.patch(br)
		c.emit(instr{op: opConst, k: c.konst(vval{kind: vBool, i: 1})}, 1)
		c.patch(end)
		c.depth--
	case TokEq:
		c.expr(e.L)
		c.expr(e.R)
		c.emit(instr{op: opEq}, -1)
	case TokNeq:
		c.expr(e.L)
		c.expr(e.R)
		c.emit(instr{op: opEq, a: 1}, -1)
	default:
		c.expr(e.L)
		c.expr(e.R)
		c.fuseBinop(e.Op, e.Pos)
	}
}

// fuseBinop emits the instruction for a non-shortcut binary operator,
// folding a single-instruction right operand — a literal or a variable
// load — into the operation itself: opConst+opBinop becomes opBinopK
// and opLoad+opBinop becomes opBinopS, halving dispatches on the
// arithmetic statements that dominate compute-heavy programs. Operand
// order, type checks and error positions are unchanged, so the fused
// forms are observationally identical to the two-instruction pair. The
// fence check keeps a fusion from swallowing a recorded jump target: a
// shortcut operand ends with a patched join whose target is exactly the
// index the binop would occupy, and fusing there would let the branch
// skip the operation.
func (c *fnCompiler) fuseBinop(op TokKind, pos Pos) {
	if n := len(c.code); n > c.fence {
		switch last := &c.code[n-1]; last.op {
		case opConst:
			*last = instr{op: opBinopK, a: int32(op), k: last.k, pos: at(pos)}
			c.depth--
			return
		case opLoad:
			*last = instr{op: opBinopS, a: int32(op), k: last.a, pos: at(pos)}
			c.depth--
			return
		}
	}
	c.emit(instr{op: opBinop, a: int32(op), pos: at(pos)}, -1)
}

// emitStore emits the store for a var or assignment statement, folding
// it into an immediately preceding fused binop: `h = (h*31+i)%65521`
// compiles to Load/BinopK/BinopS/BinopKS — four instructions for four
// operations — instead of a push-pop pair per operation. On the error
// path the fused forms clobber the destination slot before the binop's
// panic where the split forms would not, but a runtime error abandons
// the execution (and the frame) wholesale, so the difference is
// unobservable. The fence rule is as in fuseBinop.
func (c *fnCompiler) emitStore(slot int) {
	if n := len(c.code); n > c.fence {
		switch last := &c.code[n-1]; last.op {
		case opBinopK:
			last.op = opBinopKS
			last.b = int32(slot)
			c.depth--
			return
		case opBinopS:
			last.op = opBinopSS
			last.b = int32(slot)
			c.depth--
			return
		}
	}
	c.emit(instr{op: opStore, a: int32(slot)}, -1)
}
