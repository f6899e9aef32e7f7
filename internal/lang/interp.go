package lang

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"dlfuzz/internal/event"
	"dlfuzz/internal/object"
	"dlfuzz/internal/sched"
)

// Value is a CLF runtime value: int64, bool, string, *object.Obj (an
// object whose monitor sync can lock), *sched.Latch, *sched.Thread, or
// nil.
type Value any

// typeName names a value's type for error messages.
func typeName(v Value) string {
	switch v.(type) {
	case nil:
		return "nil"
	case int64:
		return "int"
	case bool:
		return "bool"
	case string:
		return "string"
	case *object.Obj:
		return "object"
	case *sched.Latch:
		return "latch"
	case *sched.Thread:
		return "thread"
	case *sched.Chan:
		return "chan"
	case *sched.WaitGroup:
		return "waitgroup"
	default:
		return fmt.Sprintf("%T", v)
	}
}

// format renders a value for print().
func format(v Value) string {
	switch v := v.(type) {
	case nil:
		return "nil"
	case int64:
		return fmt.Sprintf("%d", v)
	case bool:
		return fmt.Sprintf("%t", v)
	case string:
		return v
	case *object.Obj:
		return v.String()
	case *sched.Latch:
		return "latch(" + v.Obj().String() + ")"
	case *sched.Thread:
		return "thread(" + v.Name() + ")"
	case *sched.Chan:
		return "chan(" + v.Obj().String() + ")"
	case *sched.WaitGroup:
		return "waitgroup(" + v.Obj().String() + ")"
	default:
		return fmt.Sprintf("%v", v)
	}
}

// RuntimeError is a positioned CLF runtime failure (type error, nil
// dereference, call-depth overflow).
type RuntimeError struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *RuntimeError) Error() string {
	return fmt.Sprintf("%s: runtime error: %s", e.Pos, e.Msg)
}

func rtErrf(pos Pos, format string, args ...any) *RuntimeError {
	return &RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// returnSignal unwinds from a return statement to the enclosing call.
type returnSignal struct {
	val Value
}

// env is a lexical environment.
type env struct {
	vars   map[string]Value
	parent *env
}

// newEnv opens a scope. The variable map is allocated on first define:
// most scopes (loop bodies, sync blocks) declare nothing, and CLF loops
// open a scope per iteration, so eager maps dominated the interpreter's
// allocation profile.
func newEnv(parent *env) *env {
	return &env{parent: parent}
}

// define declares name in this scope, allocating the map lazily.
func (e *env) define(name string, v Value) {
	if e.vars == nil {
		e.vars = make(map[string]Value, 4)
	}
	e.vars[name] = v
}

func (e *env) lookup(name string) (Value, bool) {
	for cur := e; cur != nil; cur = cur.parent {
		if v, ok := cur.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

func (e *env) assign(name string, v Value) bool {
	for cur := e; cur != nil; cur = cur.parent {
		if _, ok := cur.vars[name]; ok {
			cur.vars[name] = v
			return true
		}
	}
	return false
}

// maxCallDepth bounds CLF recursion. Each frame carries Call/Return
// scheduling points plus a recover handler, so unwinding is costly;
// 1000 frames is far beyond any realistic test program.
const maxCallDepth = 1000

// Interp executes a resolved CLF program on the deterministic scheduler.
// By default programs are compiled to bytecode (compile.go) and run on
// the slot-indexed VM (vm.go); TreeWalk selects the tree-walking
// reference back end, which the differential tests pin the VM against.
type Interp struct {
	prog  *Program
	out   io.Writer
	outMu sync.Mutex // serializes print() across concurrent executions
	tree  bool
	pool  sync.Pool // *vmRun, recycled across executions
}

// NewInterp returns an interpreter writing print() output to out
// (io.Discard if nil).
func NewInterp(prog *Program, out io.Writer) *Interp {
	if out == nil {
		out = io.Discard
	}
	return &Interp{prog: prog, out: out}
}

// print writes one print() line. Executions of one Interp may run
// concurrently (parallel campaign workers), so writes are serialized
// and each line arrives whole.
func (in *Interp) print(parts []string) {
	in.outMu.Lock()
	defer in.outMu.Unlock()
	fmt.Fprintln(in.out, strings.Join(parts, " "))
}

// TreeWalk switches this interpreter to the tree-walking back end, the
// differential reference for the VM. It returns in for chaining.
func (in *Interp) TreeWalk() *Interp {
	in.tree = true
	return in
}

// Main returns the program body in the scheduler's form: running it
// executes main() on the calling simulated thread. Each invocation gets
// a fresh heap, so one Interp can safely drive many executions.
func (in *Interp) Main() func(*sched.Ctx) {
	if in.tree {
		return func(c *sched.Ctx) {
			main, _ := in.prog.Func("main")
			ex := &executor{in: in, c: c, heap: newHeap()}
			ex.callFunction(main, nil, main.Pos)
		}
	}
	cp := in.prog.compile()
	return func(c *sched.Ctx) {
		run := in.getRun(len(cp.fields))
		defer run.release()
		t := &vmThread{c: c, cp: cp, run: run, in: in}
		t.call(cp.main, nil, cp.main.declPos, cp.main.declLoc)
	}
}

// heap stores object fields, shared by every thread of one execution.
// Unlocked access is safe because exactly one simulated thread runs
// between scheduling points.
type heap struct {
	fields map[uint64]map[string]Value
}

func newHeap() *heap {
	return &heap{fields: map[uint64]map[string]Value{}}
}

func (h *heap) get(obj *object.Obj, field string) (Value, bool) {
	v, ok := h.fields[obj.ID][field]
	return v, ok
}

func (h *heap) set(obj *object.Obj, field string, v Value) {
	m, ok := h.fields[obj.ID]
	if !ok {
		m = map[string]Value{}
		h.fields[obj.ID] = m
	}
	m[field] = v
}

// Run executes the program once under the given scheduler options,
// converting CLF runtime errors into ordinary errors.
func (in *Interp) Run(opts sched.Options) (res *sched.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if rt, ok := r.(*RuntimeError); ok {
				err = rt
				return
			}
			if me, ok := r.(*sched.MisuseError); ok {
				// A blocking-primitive misuse (send on closed channel,
				// double close, negative WaitGroup counter) surfaces as a
				// scheduler abort; re-position it as a CLF runtime error.
				err = &RuntimeError{Pos: locPos(me.Loc), Msg: me.Msg}
				return
			}
			panic(r)
		}
	}()
	s := sched.New(opts)
	return s.Run(in.Main()), nil
}

// locPos parses a statement label ("file:line") back into a Pos for
// error reporting; labels are produced by Pos.Loc.
func locPos(loc event.Loc) Pos {
	s := string(loc)
	if i := strings.LastIndexByte(s, ':'); i >= 0 {
		var line int
		fmt.Sscanf(s[i+1:], "%d", &line)
		return Pos{File: s[:i], Line: line, Col: 1}
	}
	return Pos{File: s, Line: 1, Col: 1}
}

// executor runs statements for one simulated thread.
type executor struct {
	in    *Interp
	c     *sched.Ctx
	heap  *heap
	depth int
}

// callFunction invokes f with args at call site pos and returns its
// result, bracketing the body in Call/Return events.
func (ex *executor) callFunction(f *FuncDecl, args []Value, pos Pos) Value {
	if ex.depth >= maxCallDepth {
		panic(rtErrf(pos, "call depth exceeds %d (runaway recursion?)", maxCallDepth))
	}
	fenv := newEnv(nil)
	for i, p := range f.Params {
		fenv.define(p, args[i])
	}
	var ret Value
	ex.depth++
	ex.c.Call(f.Name, nil, event.Loc(pos.Loc()), func() {
		defer func() {
			ex.depth--
			if r := recover(); r != nil {
				if rs, ok := r.(returnSignal); ok {
					ret = rs.val
					return
				}
				panic(r)
			}
		}()
		ex.execBlock(f.Body, fenv)
	})
	return ret
}

// execBlock runs a block in a fresh scope under parent.
func (ex *executor) execBlock(b *Block, parent *env) {
	scope := newEnv(parent)
	for _, s := range b.Stmts {
		ex.execStmt(s, scope)
	}
}

// execStmt runs one statement.
func (ex *executor) execStmt(s Stmt, env *env) {
	switch s := s.(type) {
	case *Block:
		ex.execBlock(s, env)

	case *VarStmt:
		env.define(s.Name, ex.eval(s.Init, env))

	case *AssignStmt:
		v := ex.eval(s.Val, env)
		if !env.assign(s.Name, v) {
			panic(rtErrf(s.Pos, "assignment to undefined variable %s", s.Name))
		}

	case *SyncStmt:
		lock := ex.evalObject(s.Lock, env)
		ex.c.Sync(lock, event.Loc(s.Pos.Loc()), func() {
			ex.execBlock(s.Body, env)
		})

	case *IfStmt:
		if ex.evalBool(s.Cond, env) {
			ex.execBlock(s.Then, env)
		} else if s.Else != nil {
			ex.execStmt(s.Else, env)
		}

	case *WhileStmt:
		for ex.evalBool(s.Cond, env) {
			ex.execBlock(s.Body, env)
			// Each back edge is a scheduling point, so CLF loops are
			// both interruptible and bounded by the step limit.
			ex.c.Step(event.Loc(s.Pos.Loc()))
		}

	case *WorkStmt:
		n := ex.evalInt(s.N, env)
		if n < 0 {
			panic(rtErrf(s.Pos, "work(%d): negative amount", n))
		}
		ex.c.Work(int(n), event.Loc(s.Pos.Loc()))

	case *JoinStmt:
		v := ex.eval(s.Thread, env)
		t, ok := v.(*sched.Thread)
		if !ok {
			panic(rtErrf(s.Pos, "join requires a thread, got %s", typeName(v)))
		}
		ex.c.Join(t, event.Loc(s.Pos.Loc()))

	case *AwaitStmt:
		ex.c.Await(ex.evalLatch(s.Latch, env, s.Pos), event.Loc(s.Pos.Loc()))

	case *SignalStmt:
		ex.c.Signal(ex.evalLatch(s.Latch, env, s.Pos), event.Loc(s.Pos.Loc()))

	case *WaitStmt:
		ex.c.Wait(ex.evalObject(s.Obj, env), event.Loc(s.Pos.Loc()))

	case *NotifyStmt:
		o := ex.evalObject(s.Obj, env)
		if s.All {
			ex.c.NotifyAll(o, event.Loc(s.Pos.Loc()))
		} else {
			ex.c.Notify(o, event.Loc(s.Pos.Loc()))
		}

	case *SendStmt:
		ch := ex.evalChan(s.Ch, env, s.Pos)
		var v Value
		if s.Val != nil {
			v = ex.eval(s.Val, env)
		}
		ex.c.Send(ch, v, event.Loc(s.Pos.Loc()))

	case *CloseStmt:
		ex.c.Close(ex.evalChan(s.Ch, env, s.Pos), event.Loc(s.Pos.Loc()))

	case *WGAddStmt:
		wg := ex.evalWG(s.WG, env, s.Pos)
		n := ex.evalInt(s.N, env)
		ex.c.WGAdd(wg, int(n), event.Loc(s.Pos.Loc()))

	case *WGDoneStmt:
		ex.c.WGDone(ex.evalWG(s.WG, env, s.Pos), event.Loc(s.Pos.Loc()))

	case *WGWaitStmt:
		ex.c.WGWait(ex.evalWG(s.WG, env, s.Pos), event.Loc(s.Pos.Loc()))

	case *FieldAssignStmt:
		obj := ex.evalFieldOwner(s.Obj, env, s.Pos)
		ex.heap.set(obj, s.Field, ex.eval(s.Val, env))

	case *ReturnStmt:
		var v Value
		if s.Val != nil {
			v = ex.eval(s.Val, env)
		}
		panic(returnSignal{val: v})

	case *PrintStmt:
		parts := make([]string, len(s.Args))
		for i, a := range s.Args {
			parts[i] = format(ex.eval(a, env))
		}
		ex.in.print(parts)

	case *ExprStmt:
		ex.eval(s.X, env)

	default:
		panic(fmt.Sprintf("lang: unknown statement %T", s))
	}
}

// eval evaluates an expression.
func (ex *executor) eval(e Expr, env *env) Value {
	switch e := e.(type) {
	case *IntLit:
		return e.Val
	case *BoolLit:
		return e.Val
	case *StrLit:
		return e.Val
	case *NilLit:
		return nil
	case *Ident:
		v, ok := env.lookup(e.Name)
		if !ok {
			panic(rtErrf(e.Pos, "undefined variable %s", e.Name))
		}
		return v
	case *NewExpr:
		return ex.c.New(e.Type, event.Loc(e.Pos.Loc()))
	case *NewLatchExpr:
		return ex.c.NewLatch(event.Loc(e.Pos.Loc()))
	case *NewChanExpr:
		capacity := int64(0)
		if e.Cap != nil {
			capacity = ex.evalInt(e.Cap, env)
			if capacity < 0 {
				panic(rtErrf(e.Pos, "newchan(%d): negative capacity", capacity))
			}
		}
		return ex.c.NewChan(int(capacity), event.Loc(e.Pos.Loc()))
	case *NewWGExpr:
		return ex.c.NewWaitGroup(event.Loc(e.Pos.Loc()))
	case *RecvExpr:
		return ex.c.Recv(ex.evalChan(e.Ch, env, e.Pos), event.Loc(e.Pos.Loc()))
	case *CallExpr:
		f, args := ex.evalCallee(e, env)
		return ex.callFunction(f, args, e.Pos)
	case *SpawnExpr:
		f, args := ex.evalCallee(e.Call, env)
		return ex.c.Spawn(f.Name, nil, event.Loc(e.Pos.Loc()), func(c *sched.Ctx) {
			child := &executor{in: ex.in, c: c, heap: ex.heap}
			child.callFunction(f, args, e.Pos)
		})
	case *FieldExpr:
		obj := ex.evalFieldOwner(e.Obj, env, e.Pos)
		v, ok := ex.heap.get(obj, e.Name)
		if !ok {
			panic(rtErrf(e.Pos, "read of unset field %s.%s", obj.Type, e.Name))
		}
		return v
	case *UnaryExpr:
		switch e.Op {
		case TokBang:
			return !ex.evalBool(e.X, env)
		case TokMinus:
			return -ex.evalInt(e.X, env)
		}
		panic(fmt.Sprintf("lang: unknown unary op %v", e.Op))
	case *BinaryExpr:
		return ex.evalBinary(e, env)
	default:
		panic(fmt.Sprintf("lang: unknown expression %T", e))
	}
}

// evalCallee resolves a call's target and evaluates its arguments.
func (ex *executor) evalCallee(c *CallExpr, env *env) (*FuncDecl, []Value) {
	f, ok := ex.in.prog.Func(c.Name)
	if !ok {
		panic(rtErrf(c.Pos, "call to undefined function %s", c.Name))
	}
	args := make([]Value, len(c.Args))
	for i, a := range c.Args {
		args[i] = ex.eval(a, env)
	}
	return f, args
}

// evalBinary applies a binary operator with CLF's typing rules: shortcut
// booleans, integer arithmetic/ordering, and equality over all types
// (reference equality for objects, latches and threads).
func (ex *executor) evalBinary(e *BinaryExpr, env *env) Value {
	switch e.Op {
	case TokAndAnd:
		return ex.evalBool(e.L, env) && ex.evalBool(e.R, env)
	case TokOrOr:
		return ex.evalBool(e.L, env) || ex.evalBool(e.R, env)
	case TokEq:
		return ex.eval(e.L, env) == ex.eval(e.R, env)
	case TokNeq:
		return ex.eval(e.L, env) != ex.eval(e.R, env)
	}
	l := ex.eval(e.L, env)
	r := ex.eval(e.R, env)
	// String concatenation is the one non-integer arithmetic form.
	if e.Op == TokPlus {
		if ls, ok := l.(string); ok {
			return ls + format(r)
		}
	}
	li, lok := l.(int64)
	ri, rok := r.(int64)
	if !lok || !rok {
		panic(rtErrf(e.Pos, "operator %s requires ints, got %s and %s", e.Op, typeName(l), typeName(r)))
	}
	switch e.Op {
	case TokPlus:
		return li + ri
	case TokMinus:
		return li - ri
	case TokStar:
		return li * ri
	case TokSlash:
		if ri == 0 {
			panic(rtErrf(e.Pos, "division by zero"))
		}
		return li / ri
	case TokPercent:
		if ri == 0 {
			panic(rtErrf(e.Pos, "division by zero"))
		}
		return li % ri
	case TokLt:
		return li < ri
	case TokLe:
		return li <= ri
	case TokGt:
		return li > ri
	case TokGe:
		return li >= ri
	default:
		panic(fmt.Sprintf("lang: unknown binary op %v", e.Op))
	}
}

// evalBool evaluates an expression that must be a bool.
func (ex *executor) evalBool(e Expr, env *env) bool {
	v := ex.eval(e, env)
	b, ok := v.(bool)
	if !ok {
		panic(rtErrf(e.exprPos(), "expected bool, got %s", typeName(v)))
	}
	return b
}

// evalInt evaluates an expression that must be an int.
func (ex *executor) evalInt(e Expr, env *env) int64 {
	v := ex.eval(e, env)
	i, ok := v.(int64)
	if !ok {
		panic(rtErrf(e.exprPos(), "expected int, got %s", typeName(v)))
	}
	return i
}

// evalObject evaluates an expression that must be a lockable object.
func (ex *executor) evalObject(e Expr, env *env) *object.Obj {
	v := ex.eval(e, env)
	switch v := v.(type) {
	case *object.Obj:
		return v
	case *sched.Latch:
		return v.Obj()
	case *sched.Thread:
		return v.Obj()
	case *sched.Chan:
		return v.Obj()
	case *sched.WaitGroup:
		return v.Obj()
	default:
		panic(rtErrf(e.exprPos(), "sync requires an object, got %s", typeName(v)))
	}
}

// evalFieldOwner evaluates an expression that must be an object with
// fields (a plain object; latches and threads have no fields).
func (ex *executor) evalFieldOwner(e Expr, env *env, pos Pos) *object.Obj {
	v := ex.eval(e, env)
	o, ok := v.(*object.Obj)
	if !ok {
		panic(rtErrf(pos, "field access requires an object, got %s", typeName(v)))
	}
	return o
}

// evalChan evaluates an expression that must be a channel.
func (ex *executor) evalChan(e Expr, env *env, pos Pos) *sched.Chan {
	v := ex.eval(e, env)
	ch, ok := v.(*sched.Chan)
	if !ok {
		panic(rtErrf(pos, "expected chan, got %s", typeName(v)))
	}
	return ch
}

// evalWG evaluates an expression that must be a WaitGroup.
func (ex *executor) evalWG(e Expr, env *env, pos Pos) *sched.WaitGroup {
	v := ex.eval(e, env)
	wg, ok := v.(*sched.WaitGroup)
	if !ok {
		panic(rtErrf(pos, "expected waitgroup, got %s", typeName(v)))
	}
	return wg
}

// evalLatch evaluates an expression that must be a latch.
func (ex *executor) evalLatch(e Expr, env *env, pos Pos) *sched.Latch {
	v := ex.eval(e, env)
	l, ok := v.(*sched.Latch)
	if !ok {
		panic(rtErrf(pos, "expected latch, got %s", typeName(v)))
	}
	return l
}
