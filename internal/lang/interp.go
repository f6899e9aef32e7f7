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

// Value is a CLF runtime value in boxed form: int64, bool, string,
// *object.Obj (an object whose monitor sync can lock), *sched.Latch,
// *sched.Thread, *sched.Chan, *sched.WaitGroup, or nil. The VM keeps
// values unboxed (vval) and boxes them only to send them on a channel
// or to print them.
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
// scheduling points, and a runaway recursion unwinds every frame's
// deferred releases; 1000 frames is far beyond any realistic test
// program.
const maxCallDepth = 1000

// Interp executes a resolved CLF program on the deterministic scheduler.
// Programs are compiled to bytecode (compile.go) and run on the
// slot-indexed VM (vm.go). The tree-walking reference back end the
// differential tests pin the VM against lives in treewalk_test.go.
type Interp struct {
	prog *Program
	m    *machine
}

// machine is what every program body of one Interp shares: the print()
// sink and the pool of per-execution VM state. It holds nothing of the
// Program, so a body keeps only the compiled program reachable.
type machine struct {
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
	return &Interp{prog: prog, m: &machine{out: out}}
}

// print writes one print() line. Executions of one Interp may run
// concurrently (parallel campaign workers), so writes are serialized
// and each line arrives whole.
func (m *machine) print(parts []string) {
	m.outMu.Lock()
	defer m.outMu.Unlock()
	fmt.Fprintln(m.out, strings.Join(parts, " "))
}

// Main returns the program body in the scheduler's form: running it
// executes main() on the calling simulated thread. Each invocation gets
// a fresh heap, so one Interp can safely drive many executions. The
// body holds the compiled program, not the Program and its AST. It
// hands the thread over to the VM (sched.Ctx.Become) before main()'s
// first scheduling point, so only this first step runs as a Go body;
// main() and every thread it spawns run as sched.Machines.
func (in *Interp) Main() func(*sched.Ctx) {
	cp, m := in.prog.compile(), in.m
	return func(c *sched.Ctx) {
		main := cp.main
		c.Become(m.getRun(cp).thread(main, cp.labels[main.declLbl]))
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
			rt, ok := AsRuntimeError(r)
			if !ok {
				panic(r)
			}
			err = rt
		}
	}()
	return sched.New(opts).Run(main), nil
}

// AsRuntimeError converts a value recovered from a scheduler run of a
// CLF body into the positioned error it stands for: a *RuntimeError as
// is, and a blocking-primitive misuse (send on closed channel, double
// close, negative WaitGroup counter), which surfaces as a scheduler
// abort, re-positioned as a CLF runtime error at its statement. It
// reports false for any other value.
func AsRuntimeError(r any) (*RuntimeError, bool) {
	switch r := r.(type) {
	case *RuntimeError:
		return r, true
	case *sched.MisuseError:
		return &RuntimeError{Pos: locPos(r.Loc), Msg: r.Msg}, true
	}
	return nil, false
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
