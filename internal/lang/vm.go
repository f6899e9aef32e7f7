package lang

// The CLF bytecode VM. It executes the instruction streams compile.go
// produces, driving the same sched.Ctx primitives as the tree-walker but
// with unboxed values (vval), slot-addressed frames instead of map
// environments, a slice-indexed heap instead of nested maps, and frames
// pooled across the thousands of executions one Interp drives.
//
// Byte-identity with the tree-walker is the contract (see vmdiff tests):
// same Ctx call sequence with the same labels, same print bytes, same
// RuntimeError strings and positions — including the panic-unwind path,
// where open sync blocks release innermost-first before each frame's
// Return event, exactly as the walker's stacked defers do.

import (
	"fmt"
	"sync/atomic"

	"dlfuzz/internal/event"
	"dlfuzz/internal/object"
	"dlfuzz/internal/sched"
)

// vkind enumerates vval representations. The zero kind is "unset" so a
// zeroed heap slot reads as an unset field.
type vkind uint8

const (
	vUnset vkind = iota
	vNil
	vInt
	vBool // i is 0 or 1
	vStr
	vRef // ref holds *object.Obj, *sched.Latch/Thread/Chan/WaitGroup
)

// vval is an unboxed CLF value: ints and bools live in i with no
// allocation; only reference kinds carry an interface.
type vval struct {
	kind vkind
	i    int64
	s    string
	ref  any
}

// toValue converts to the tree-walker's boxed representation. Channels
// transport boxed values (the scheduler API is `any`), and the format/
// typeName helpers are shared with the walker so messages stay identical.
func toValue(v vval) Value {
	switch v.kind {
	case vNil:
		return nil
	case vInt:
		return v.i
	case vBool:
		return v.i != 0
	case vStr:
		return v.s
	default:
		return v.ref
	}
}

// fromValue converts a boxed value (a channel receive) back to a vval.
func fromValue(v Value) vval {
	switch v := v.(type) {
	case nil:
		return vval{kind: vNil}
	case int64:
		return vval{kind: vInt, i: v}
	case bool:
		b := int64(0)
		if v {
			b = 1
		}
		return vval{kind: vBool, i: b}
	case string:
		return vval{kind: vStr, s: v}
	default:
		return vval{kind: vRef, ref: v}
	}
}

// vvalEq mirrors Go interface equality on the boxed forms: values of
// different kinds (or different dynamic reference types) are unequal.
func vvalEq(a, b vval) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case vNil:
		return true
	case vStr:
		return a.s == b.s
	case vRef:
		return a.ref == b.ref
	default:
		return a.i == b.i
	}
}

func vtype(v vval) string   { return typeName(toValue(v)) }
func vformat(v vval) string { return format(toValue(v)) }

// vmFrame is one pooled call frame: named-variable slots followed by the
// operand stack, plus the stack of open sync blocks (for panic unwind).
type vmFrame struct {
	slots []vval
	syncs []syncEnt
}

type syncEnt struct {
	obj *object.Obj
	loc event.Loc
}

// vmRun is the per-execution state: the field heap and the frame pool.
// It is shared by every simulated thread of one execution and recycled
// across executions through the Interp's pool. All access happens while
// the owning thread holds the scheduling baton (exactly one simulated
// thread runs at a time), except the refcount, which spawned goroutines
// release as they unwind during teardown.
type vmRun struct {
	in     *Interp
	nfield int
	heap   [][]vval // obj.ID -> fieldID -> value; IDs are dense from 1
	frames []*vmFrame
	argBuf []vval // reusable spawn-argument staging buffer
	refs   atomic.Int32
}

func (in *Interp) getRun(nfield int) *vmRun {
	r, _ := in.pool.Get().(*vmRun)
	if r == nil {
		r = &vmRun{in: in, nfield: nfield}
	}
	r.refs.Store(1)
	return r
}

// addRef is taken before each Spawn so the run outlives every thread.
func (r *vmRun) addRef() { r.refs.Add(1) }

// release drops one reference; the last holder zeroes the heap (the zero
// vval is an unset field) and returns the run to the pool. Field slices
// and frame slots keep their capacity for the next execution.
func (r *vmRun) release() {
	if r.refs.Add(-1) != 0 {
		return
	}
	for _, fs := range r.heap {
		for j := range fs {
			fs[j] = vval{}
		}
	}
	for j := range r.argBuf {
		r.argBuf[j] = vval{}
	}
	r.in.pool.Put(r)
}

// spawnArgs returns a reusable n-slot staging buffer for spawn
// arguments. One buffer per run suffices: the child copies its
// arguments into a fresh frame before reaching its first scheduling
// point — that is, before Spawn returns to the parent — so the buffer
// is dead again before any thread can stage the next spawn.
func (r *vmRun) spawnArgs(n int) []vval {
	if cap(r.argBuf) < n {
		r.argBuf = make([]vval, n)
	}
	r.argBuf = r.argBuf[:n]
	return r.argBuf
}

func (r *vmRun) getFrame(size int) *vmFrame {
	if n := len(r.frames); n > 0 {
		f := r.frames[n-1]
		r.frames = r.frames[:n-1]
		if cap(f.slots) < size {
			f.slots = make([]vval, size)
		}
		f.slots = f.slots[:size]
		return f
	}
	return &vmFrame{slots: make([]vval, size)}
}

// putFrame recycles a frame, on normal return and panic unwinds alike.
// Unwinds never race on the freelist: a runtime-error unwind holds the
// baton between scheduling points, and teardown aborts parked threads
// one at a time, waiting for each goroutine to exit before poking the
// next (sched.(*Scheduler).teardown), so at most one thread touches the
// run's state at any moment.
func (r *vmRun) putFrame(f *vmFrame) {
	for i := range f.slots {
		f.slots[i] = vval{}
	}
	f.syncs = f.syncs[:0]
	r.frames = append(r.frames, f)
}

func (r *vmRun) getField(o *object.Obj, id int) (vval, bool) {
	i := int(o.ID)
	if i < len(r.heap) && id < len(r.heap[i]) {
		v := r.heap[i][id]
		return v, v.kind != vUnset
	}
	return vval{}, false
}

func (r *vmRun) setField(o *object.Obj, id int, v vval) {
	i := int(o.ID)
	for len(r.heap) <= i {
		r.heap = append(r.heap, nil)
	}
	if r.heap[i] == nil {
		r.heap[i] = make([]vval, r.nfield)
	}
	r.heap[i][id] = v
}

// vmThread executes bytecode for one simulated thread.
type vmThread struct {
	c     *sched.Ctx
	cp    *compiledProg
	run   *vmRun
	in    *Interp
	depth int
}

// call invokes fn with args at call site pos/site, bracketing the body in
// Call/Return events exactly like the walker's callFunction. The deferred
// unwinder releases any sync blocks a panic left open, innermost first,
// before c.Call's own defer posts the Return — the same event order the
// walker's per-block `defer Release` plus per-call `defer Return` yield.
// A scheduler abort posts nothing on the way out, so one abort unwinds
// the whole VM stack.
func (t *vmThread) call(fn *compiledFunc, args []vval, pos Pos, site event.Loc) vval {
	if t.depth >= maxCallDepth {
		panic(rtErrf(pos, "call depth exceeds %d (runaway recursion?)", maxCallDepth))
	}
	f := t.run.getFrame(fn.frame)
	copy(f.slots, args)
	var ret vval
	t.depth++
	t.c.Call(fn.name, nil, site, func() {
		// Registered first so it runs last: the frame is recycled after
		// the unwinder below has drained f.syncs, even when a release
		// re-panics (an abort surfacing mid-unwind skips no defers).
		defer t.run.putFrame(f)
		defer func() {
			t.depth--
			if t.c.Aborting() {
				return // putFrame drops the open syncs
			}
			for i := len(f.syncs) - 1; i >= 0; i-- {
				s := f.syncs[i]
				f.syncs = f.syncs[:i]
				t.c.Release(s.obj, s.loc)
			}
		}()
		ret = t.exec(fn, f)
	})
	return ret
}

// exec is the dispatch loop. st is the frame's slot array: named
// variables in [0, nslots), the operand stack above them.
func (t *vmThread) exec(fn *compiledFunc, f *vmFrame) vval {
	code := fn.code
	st := f.slots
	sp := fn.nslots
	for pc := 0; ; pc++ {
		in := &code[pc]
		switch in.op {
		case opConst:
			st[sp] = in.val
			sp++
		case opLoad:
			st[sp] = st[in.a]
			sp++
		case opStore:
			sp--
			st[in.a] = st[sp]
		case opJump:
			pc = int(in.a) - 1
		case opBrFalse:
			sp--
			v := st[sp]
			if v.kind != vBool {
				panic(rtErrf(in.pos, "expected bool, got %s", vtype(v)))
			}
			if v.i == 0 {
				pc = int(in.a) - 1
			}
		case opBrTrue:
			sp--
			v := st[sp]
			if v.kind != vBool {
				panic(rtErrf(in.pos, "expected bool, got %s", vtype(v)))
			}
			if v.i != 0 {
				pc = int(in.a) - 1
			}
		case opNot:
			v := &st[sp-1]
			if v.kind != vBool {
				panic(rtErrf(in.pos, "expected bool, got %s", vtype(*v)))
			}
			v.i = 1 - v.i
		case opNeg:
			v := &st[sp-1]
			if v.kind != vInt {
				panic(rtErrf(in.pos, "expected int, got %s", vtype(*v)))
			}
			v.i = -v.i
		case opBinop:
			sp--
			l := &st[sp-1]
			if l.kind == vInt && st[sp].kind == vInt && intBinop(TokKind(in.a), l, st[sp].i) {
				continue
			}
			*l = t.binop(TokKind(in.a), *l, st[sp], in.pos)
		case opBinopK:
			l := &st[sp-1]
			if l.kind == vInt && in.val.kind == vInt && intBinop(TokKind(in.a), l, in.val.i) {
				continue
			}
			*l = t.binop(TokKind(in.a), *l, in.val, in.pos)
		case opBinopS:
			l := &st[sp-1]
			r := &st[in.b]
			if l.kind == vInt && r.kind == vInt && intBinop(TokKind(in.a), l, r.i) {
				continue
			}
			*l = t.binop(TokKind(in.a), *l, *r, in.pos)
		case opBinopKS:
			sp--
			d := &st[in.b]
			*d = st[sp]
			if d.kind == vInt && in.val.kind == vInt && intBinop(TokKind(in.a), d, in.val.i) {
				continue
			}
			*d = t.binop(TokKind(in.a), *d, in.val, in.pos)
		case opBinopSS:
			sp--
			// Copy the right operand before writing the destination: the
			// two slots may alias (`h = i * h`).
			r := st[in.val.i]
			d := &st[in.b]
			*d = st[sp]
			if d.kind == vInt && r.kind == vInt && intBinop(TokKind(in.a), d, r.i) {
				continue
			}
			*d = t.binop(TokKind(in.a), *d, r, in.pos)
		case opEq:
			sp--
			eq := vvalEq(st[sp-1], st[sp])
			if in.a != 0 {
				eq = !eq
			}
			st[sp-1] = vval{kind: vBool, i: b2i(eq)}
		case opPop:
			sp--
		case opPrint:
			n := int(in.a)
			sp -= n
			parts := make([]string, n)
			for i := 0; i < n; i++ {
				parts[i] = vformat(st[sp+i])
			}
			t.in.print(parts)
		case opBoolChk:
			if v := st[sp-1]; v.kind != vBool {
				panic(rtErrf(in.pos, "expected bool, got %s", vtype(v)))
			}
		case opIntChk:
			if v := st[sp-1]; v.kind != vInt {
				panic(rtErrf(in.pos, "expected int, got %s", vtype(v)))
			}
		case opChanChk:
			if v := st[sp-1]; v.kind != vRef {
				panic(rtErrf(in.pos, "expected chan, got %s", vtype(v)))
			} else if _, ok := v.ref.(*sched.Chan); !ok {
				panic(rtErrf(in.pos, "expected chan, got %s", vtype(v)))
			}
		case opWGChk:
			if v := st[sp-1]; v.kind != vRef {
				panic(rtErrf(in.pos, "expected waitgroup, got %s", vtype(v)))
			} else if _, ok := v.ref.(*sched.WaitGroup); !ok {
				panic(rtErrf(in.pos, "expected waitgroup, got %s", vtype(v)))
			}
		case opNewObj:
			st[sp] = vval{kind: vRef, ref: t.c.New(in.val.s, in.loc)}
			sp++
		case opNewLatch:
			st[sp] = vval{kind: vRef, ref: t.c.NewLatch(in.loc)}
			sp++
		case opNewWG:
			st[sp] = vval{kind: vRef, ref: t.c.NewWaitGroup(in.loc)}
			sp++
		case opNewChan:
			capacity := int64(0)
			if in.a != 0 {
				sp--
				capacity = st[sp].i // pre-checked by opIntChk
				if capacity < 0 {
					panic(rtErrf(in.pos, "newchan(%d): negative capacity", capacity))
				}
			}
			st[sp] = vval{kind: vRef, ref: t.c.NewChan(int(capacity), in.loc)}
			sp++
		case opRecv:
			ch := t.asChan(st[sp-1], in.pos)
			st[sp-1] = fromValue(t.c.Recv(ch, in.loc))
		case opSend:
			var v vval
			if in.a != 0 {
				sp--
				v = st[sp]
			} else {
				v = vval{kind: vNil}
			}
			sp--
			ch := st[sp].ref.(*sched.Chan) // pre-checked by opChanChk
			t.c.Send(ch, toValue(v), in.loc)
		case opClose:
			sp--
			t.c.Close(t.asChan(st[sp], in.pos), in.loc)
		case opWGAdd:
			sp -= 2
			wg := st[sp].ref.(*sched.WaitGroup) // pre-checked by opWGChk
			t.c.WGAdd(wg, int(st[sp+1].i), in.loc)
		case opWGDone:
			sp--
			t.c.WGDone(t.asWG(st[sp], in.pos), in.loc)
		case opWGWait:
			sp--
			t.c.WGWait(t.asWG(st[sp], in.pos), in.loc)
		case opSyncEnter:
			sp--
			o := t.asObject(st[sp], in.pos)
			t.c.Acquire(o, in.loc)
			f.syncs = append(f.syncs, syncEnt{obj: o, loc: in.loc})
		case opSyncExit:
			s := f.syncs[len(f.syncs)-1]
			f.syncs = f.syncs[:len(f.syncs)-1]
			t.c.Release(s.obj, s.loc)
		case opWork:
			sp--
			n := st[sp].i // pre-checked by opIntChk
			if n < 0 {
				panic(rtErrf(in.pos, "work(%d): negative amount", n))
			}
			t.c.Work(int(n), in.loc)
		case opStep:
			t.c.Step(in.loc)
		case opJoin:
			sp--
			v := st[sp]
			th, ok := v.ref.(*sched.Thread)
			if v.kind != vRef || !ok {
				panic(rtErrf(in.pos, "join requires a thread, got %s", vtype(v)))
			}
			t.c.Join(th, in.loc)
		case opAwait:
			sp--
			t.c.Await(t.asLatch(st[sp], in.pos), in.loc)
		case opSignal:
			sp--
			t.c.Signal(t.asLatch(st[sp], in.pos), in.loc)
		case opWaitOn:
			sp--
			t.c.Wait(t.asObject(st[sp], in.pos), in.loc)
		case opNotify:
			sp--
			o := t.asObject(st[sp], in.pos)
			if in.a != 0 {
				t.c.NotifyAll(o, in.loc)
			} else {
				t.c.Notify(o, in.loc)
			}
		case opFieldGet:
			o := t.asFieldOwner(st[sp-1], in.pos)
			v, ok := t.run.getField(o, int(in.a))
			if !ok {
				panic(rtErrf(in.pos, "read of unset field %s.%s", o.Type, t.cp.fields[in.a]))
			}
			st[sp-1] = v
		case opFieldOwner:
			t.asFieldOwner(st[sp-1], in.pos)
		case opFieldSet:
			sp -= 2
			o := st[sp].ref.(*object.Obj) // pre-checked by opFieldOwner
			t.run.setField(o, int(in.a), st[sp+1])
		case opCall:
			n := int(in.b)
			sp -= n
			st[sp] = t.call(t.cp.funcs[in.a], st[sp:sp+n], in.pos, in.loc)
			sp++
		case opSpawn:
			n := int(in.b)
			sp -= n
			args := t.run.spawnArgs(n)
			copy(args, st[sp:sp+n])
			fn := t.cp.funcs[in.a]
			t.run.addRef()
			th := t.c.Spawn(fn.name, nil, in.loc, func(c *sched.Ctx) {
				defer t.run.release()
				child := &vmThread{c: c, cp: t.cp, run: t.run, in: t.in}
				child.call(fn, args, in.pos, in.loc)
			})
			st[sp] = vval{kind: vRef, ref: th}
			sp++
		case opReturn:
			if in.a != 0 {
				return st[sp-1]
			}
			return vval{kind: vNil}
		default:
			panic(fmt.Sprintf("lang: unknown opcode %d", in.op))
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// binop applies a non-shortcut binary operator with the walker's typing
// rules: string concatenation when the left operand of + is a string,
// otherwise integer arithmetic and ordering.
// intBinop applies op in place on all-int operands, the dispatch loop's
// fast path: arithmetic mutates l.i directly (an int vval's other
// fields are zero by construction, so the result is identical to a
// fresh vval), comparisons overwrite l whole. It declines — returning
// false with l untouched — for the cases that need binop's error
// handling (division by zero) or are not pure int ops at all.
func intBinop(op TokKind, l *vval, r int64) bool {
	switch op {
	case TokPlus:
		l.i += r
	case TokMinus:
		l.i -= r
	case TokStar:
		l.i *= r
	case TokSlash:
		if r == 0 {
			return false
		}
		l.i /= r
	case TokPercent:
		if r == 0 {
			return false
		}
		l.i %= r
	case TokLt:
		*l = vval{kind: vBool, i: b2i(l.i < r)}
	case TokLe:
		*l = vval{kind: vBool, i: b2i(l.i <= r)}
	case TokGt:
		*l = vval{kind: vBool, i: b2i(l.i > r)}
	case TokGe:
		*l = vval{kind: vBool, i: b2i(l.i >= r)}
	default:
		return false
	}
	return true
}

func (t *vmThread) binop(op TokKind, l, r vval, pos Pos) vval {
	if op == TokPlus && l.kind == vStr {
		return vval{kind: vStr, s: l.s + vformat(r)}
	}
	if l.kind != vInt || r.kind != vInt {
		panic(rtErrf(pos, "operator %s requires ints, got %s and %s", op, vtype(l), vtype(r)))
	}
	switch op {
	case TokPlus:
		return vval{kind: vInt, i: l.i + r.i}
	case TokMinus:
		return vval{kind: vInt, i: l.i - r.i}
	case TokStar:
		return vval{kind: vInt, i: l.i * r.i}
	case TokSlash:
		if r.i == 0 {
			panic(rtErrf(pos, "division by zero"))
		}
		return vval{kind: vInt, i: l.i / r.i}
	case TokPercent:
		if r.i == 0 {
			panic(rtErrf(pos, "division by zero"))
		}
		return vval{kind: vInt, i: l.i % r.i}
	case TokLt:
		return vval{kind: vBool, i: b2i(l.i < r.i)}
	case TokLe:
		return vval{kind: vBool, i: b2i(l.i <= r.i)}
	case TokGt:
		return vval{kind: vBool, i: b2i(l.i > r.i)}
	case TokGe:
		return vval{kind: vBool, i: b2i(l.i >= r.i)}
	default:
		panic(fmt.Sprintf("lang: unknown binary op %v", op))
	}
}

// asObject mirrors evalObject: any lockable value yields its monitor
// object.
func (t *vmThread) asObject(v vval, pos Pos) *object.Obj {
	if v.kind == vRef {
		switch r := v.ref.(type) {
		case *object.Obj:
			return r
		case *sched.Latch:
			return r.Obj()
		case *sched.Thread:
			return r.Obj()
		case *sched.Chan:
			return r.Obj()
		case *sched.WaitGroup:
			return r.Obj()
		}
	}
	panic(rtErrf(pos, "sync requires an object, got %s", vtype(v)))
}

// asFieldOwner mirrors evalFieldOwner: only plain objects carry fields.
func (t *vmThread) asFieldOwner(v vval, pos Pos) *object.Obj {
	if v.kind == vRef {
		if o, ok := v.ref.(*object.Obj); ok {
			return o
		}
	}
	panic(rtErrf(pos, "field access requires an object, got %s", vtype(v)))
}

func (t *vmThread) asChan(v vval, pos Pos) *sched.Chan {
	if v.kind == vRef {
		if ch, ok := v.ref.(*sched.Chan); ok {
			return ch
		}
	}
	panic(rtErrf(pos, "expected chan, got %s", vtype(v)))
}

func (t *vmThread) asWG(v vval, pos Pos) *sched.WaitGroup {
	if v.kind == vRef {
		if wg, ok := v.ref.(*sched.WaitGroup); ok {
			return wg
		}
	}
	panic(rtErrf(pos, "expected waitgroup, got %s", vtype(v)))
}

func (t *vmThread) asLatch(v vval, pos Pos) *sched.Latch {
	if v.kind == vRef {
		if l, ok := v.ref.(*sched.Latch); ok {
			return l
		}
	}
	panic(rtErrf(pos, "expected latch, got %s", vtype(v)))
}
