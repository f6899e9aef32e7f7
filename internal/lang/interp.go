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

// maxCallDepth bounds CLF recursion. Each frame carries Call/Return
// scheduling points plus a recover handler, so unwinding is costly;
// 1000 frames is far beyond any realistic test program.
const maxCallDepth = 1000

// Interp executes a resolved CLF program on the deterministic scheduler.
// Programs are compiled to bytecode (compile.go) and run on the
// slot-indexed VM (vm.go). The tree-walking reference back end the
// differential tests pin the VM against lives in treewalk_test.go.
type Interp struct {
	prog  *Program
	out   io.Writer
	outMu sync.Mutex // serializes print() across concurrent executions
	pool  sync.Pool  // *vmRun, recycled across executions
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

// Main returns the program body in the scheduler's form: running it
// executes main() on the calling simulated thread. Each invocation gets
// a fresh heap, so one Interp can safely drive many executions.
func (in *Interp) Main() func(*sched.Ctx) {
	cp := in.prog.compile()
	return func(c *sched.Ctx) {
		run := in.getRun(len(cp.fields))
		defer run.release()
		t := &vmThread{c: c, cp: cp, run: run, in: in}
		t.call(cp.main, nil, cp.main.declPos, cp.main.declLoc)
	}
}

// Run executes the program once under the given scheduler options,
// converting CLF runtime errors into ordinary errors.
func (in *Interp) Run(opts sched.Options) (*sched.Result, error) {
	return runMain(opts, in.Main())
}

// runMain is Run for a given program body.
func runMain(opts sched.Options, main func(*sched.Ctx)) (res *sched.Result, err error) {
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
	return sched.New(opts).Run(main), nil
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
