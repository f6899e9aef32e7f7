package lang

// The CLF bytecode VM. It executes the instruction streams compile.go
// produces, driving the same sched.Ctx primitives as the tree-walker but
// with pointer-free values (vval), slot-addressed frames instead of map
// environments, a slice-indexed heap instead of nested maps, and frames
// and thread records pooled across the thousands of executions one
// Interp drives.
//
// Byte-identity with the tree-walker, the test-only reference back end
// in treewalk_test.go, is the contract (see vmdiff_test.go):
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
	vStr  // i is a string index (see vmRun.str)
	// The reference kinds: i is the ID of the referent's object, the
	// monitor a sync on it locks, and vmRun.refs maps it to the referent.
	vObj    // *object.Obj
	vLatch  // *sched.Latch
	vThread // *sched.Thread
	vChan   // *sched.Chan
	vWG     // *sched.WaitGroup
)

// vkindNames are the tree-walker's typeName for each kind.
var vkindNames = [...]string{
	vUnset: "unset", vNil: "nil", vInt: "int", vBool: "bool", vStr: "string",
	vObj: "object", vLatch: "latch", vThread: "thread", vChan: "chan", vWG: "waitgroup",
}

// vval is an unboxed CLF value. It holds no pointer: frames and the
// field heap are plain memory that slot copies write without a write
// barrier and the garbage collector does not scan.
type vval struct {
	kind vkind
	i    int64
}

func vtype(v vval) string { return vkindNames[v.kind] }

// str returns the string a vStr index names: the program's constant
// strings at indices from 0, the run's own strings (concatenations and
// channel receives) at indices from -1 down.
func (r *vmRun) str(i int64) string {
	if i >= 0 {
		return r.cp.strs[i]
	}
	return r.strs[-i-1]
}

// newStr adds s to the run's strings and returns its value.
func (r *vmRun) newStr(s string) vval {
	r.strs = append(r.strs, s)
	return vval{kind: vStr, i: -int64(len(r.strs))}
}

// ref records a new referent of the given kind under its object's ID.
func (r *vmRun) ref(kind vkind, o *object.Obj, referent any) vval {
	for uint64(len(r.refs)) <= o.ID {
		r.refs = append(r.refs, nil)
	}
	r.refs[o.ID] = referent
	return vval{kind: kind, i: int64(o.ID)}
}

// toValue converts to the tree-walker's boxed representation. Channels
// transport boxed values (the scheduler API is `any`), and the format
// helper is shared with the walker so messages stay identical.
func (r *vmRun) toValue(v vval) Value {
	switch v.kind {
	case vNil:
		return nil
	case vInt:
		return v.i
	case vBool:
		return v.i != 0
	case vStr:
		return r.str(v.i)
	default:
		return r.refs[v.i]
	}
}

// fromValue converts a boxed value (a channel receive) back to a vval.
// A received reference was made by this run, so its ID is in refs.
func (r *vmRun) fromValue(v Value) vval {
	switch v := v.(type) {
	case nil:
		return vval{kind: vNil}
	case int64:
		return vval{kind: vInt, i: v}
	case bool:
		return vval{kind: vBool, i: b2i(v)}
	case string:
		return r.newStr(v)
	case *object.Obj:
		return vval{kind: vObj, i: int64(v.ID)}
	case *sched.Latch:
		return vval{kind: vLatch, i: int64(v.Obj().ID)}
	case *sched.Thread:
		return vval{kind: vThread, i: int64(v.Obj().ID)}
	case *sched.Chan:
		return vval{kind: vChan, i: int64(v.Obj().ID)}
	case *sched.WaitGroup:
		return vval{kind: vWG, i: int64(v.Obj().ID)}
	default:
		panic(fmt.Sprintf("lang: unknown value %T", v))
	}
}

// eq mirrors Go interface equality on the boxed forms: values of
// different kinds are unequal, strings compare by content and
// references by identity, which their IDs carry.
func (r *vmRun) eq(a, b vval) bool {
	if a.kind != b.kind {
		return false
	}
	if a.kind == vStr {
		return r.str(a.i) == r.str(b.i)
	}
	return a.i == b.i
}

func (r *vmRun) format(v vval) string { return format(r.toValue(v)) }

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

// vmRun is the per-execution state: the field heap, the frame pool and
// the thread records. It is shared by every simulated thread of one
// execution and recycled across executions through the machine's pool.
// All access happens while the owning thread holds the scheduling baton
// (exactly one simulated thread runs at a time), except the refcount,
// which spawned goroutines release as they unwind during teardown.
type vmRun struct {
	m        *machine
	cp       *compiledProg
	heap     [][]vval // obj.ID -> fieldID -> value; IDs are dense from 1
	refs     []any    // obj.ID -> the referent a reference value names
	strs     []string // the run's strings, see str
	frames   []*vmFrame
	threads  []*vmThread // thread records, kept across executions
	nthread  int         // records handed out in this execution
	refcount atomic.Int32
}

func (m *machine) getRun(cp *compiledProg) *vmRun {
	r, _ := m.pool.Get().(*vmRun)
	if r == nil {
		r = &vmRun{m: m, cp: cp}
	}
	r.refcount.Store(1)
	return r
}

// release drops one reference; the last holder zeroes the heap (the zero
// vval is an unset field) and the thread records and returns the run to
// the pool. Field slices, frame slots and records keep their capacity
// for the next execution.
func (r *vmRun) release() {
	if r.refcount.Add(-1) != 0 {
		return
	}
	for _, fs := range r.heap {
		clear(fs)
	}
	clear(r.refs)
	clear(r.strs)
	r.strs = r.strs[:0]
	for _, t := range r.threads[:r.nthread] {
		clear(t.args)
		t.c, t.fn = nil, nil
	}
	r.nthread = 0
	r.m.pool.Put(r)
}

// thread hands out the next free thread record, making one (and binding
// its body once) when the execution has more threads than any before it.
func (r *vmRun) thread(c *sched.Ctx) *vmThread {
	if r.nthread == len(r.threads) {
		t := &vmThread{run: r}
		t.body = t.spawned
		r.threads = append(r.threads, t)
	}
	t := r.threads[r.nthread]
	r.nthread++
	t.c, t.depth = c, 0
	return t
}

// getFrame pops a pooled frame sized for one call. Every frame is made
// as large as the program's largest, so a pooled frame fits any call.
func (r *vmRun) getFrame(size int) *vmFrame {
	n := len(r.frames)
	if n == 0 {
		return &vmFrame{slots: make([]vval, size, r.cp.maxFrame)}
	}
	f := r.frames[n-1]
	r.frames = r.frames[:n-1]
	f.slots = f.slots[:size]
	return f
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

func (r *vmRun) getField(obj int64, id int) (vval, bool) {
	i := int(obj)
	if i < len(r.heap) && id < len(r.heap[i]) {
		v := r.heap[i][id]
		return v, v.kind != vUnset
	}
	return vval{}, false
}

func (r *vmRun) setField(obj int64, id int, v vval) {
	i := int(obj)
	for len(r.heap) <= i {
		r.heap = append(r.heap, nil)
	}
	if r.heap[i] == nil {
		r.heap[i] = make([]vval, len(r.cp.fields))
	}
	r.heap[i][id] = v
}

// vmThread executes bytecode for one simulated thread. A spawned
// thread's entry function, arguments and spawn site wait in its record
// until its body, bound once per record, starts running.
type vmThread struct {
	c     *sched.Ctx
	run   *vmRun
	depth int
	fn    *compiledFunc
	args  []vval
	pos   srcPos
	site  event.Loc
	body  func(*sched.Ctx) // t.spawned
}

// spawned is a spawned thread's body: it calls the entry function the
// record holds. The thread takes its reference on the run when its body
// starts, not when its parent posts the Spawn: teardown can abort the
// parent inside Spawn, and then no body starts to drop that reference.
// The parent holds its own reference until the child's first scheduling
// point, so the count cannot reach zero in between.
func (t *vmThread) spawned(c *sched.Ctx) {
	t.run.refcount.Add(1)
	defer t.run.release()
	t.c = c
	t.call(t.fn, t.args, t.pos, t.site)
}

// call invokes fn with args at call site pos/site, bracketing the body in
// Call/Return events exactly like the walker's callFunction. The deferred
// unwinder releases any sync blocks a panic left open, innermost first,
// before c.Call's own defer posts the Return — the same event order the
// walker's per-block `defer Release` plus per-call `defer Return` yield.
// A scheduler abort posts nothing on the way out, so one abort unwinds
// the whole VM stack.
func (t *vmThread) call(fn *compiledFunc, args []vval, pos srcPos, site event.Loc) vval {
	if t.depth >= maxCallDepth {
		panic(t.run.cp.errAt(pos, "call depth exceeds %d (runaway recursion?)", maxCallDepth))
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
	run := t.run
	cp := run.cp
	code, consts, labels := fn.code, fn.consts, cp.labels
	st := f.slots
	sp := fn.nslots
	for pc := 0; ; pc++ {
		in := &code[pc]
		switch in.op {
		case opConst:
			st[sp] = consts[in.k]
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
				panic(cp.errAt(in.pos, "expected bool, got %s", vtype(v)))
			}
			if v.i == 0 {
				pc = int(in.a) - 1
			}
		case opBrTrue:
			sp--
			v := st[sp]
			if v.kind != vBool {
				panic(cp.errAt(in.pos, "expected bool, got %s", vtype(v)))
			}
			if v.i != 0 {
				pc = int(in.a) - 1
			}
		case opNot:
			v := &st[sp-1]
			if v.kind != vBool {
				panic(cp.errAt(in.pos, "expected bool, got %s", vtype(*v)))
			}
			v.i = 1 - v.i
		case opNeg:
			v := &st[sp-1]
			if v.kind != vInt {
				panic(cp.errAt(in.pos, "expected int, got %s", vtype(*v)))
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
			l, k := &st[sp-1], &consts[in.k]
			if l.kind == vInt && k.kind == vInt && intBinop(TokKind(in.a), l, k.i) {
				continue
			}
			*l = t.binop(TokKind(in.a), *l, *k, in.pos)
		case opBinopS:
			l := &st[sp-1]
			r := &st[in.k]
			if l.kind == vInt && r.kind == vInt && intBinop(TokKind(in.a), l, r.i) {
				continue
			}
			*l = t.binop(TokKind(in.a), *l, *r, in.pos)
		case opBinopKS:
			sp--
			d, k := &st[in.b], &consts[in.k]
			*d = st[sp]
			if d.kind == vInt && k.kind == vInt && intBinop(TokKind(in.a), d, k.i) {
				continue
			}
			*d = t.binop(TokKind(in.a), *d, *k, in.pos)
		case opBinopSS:
			sp--
			// Copy the right operand before writing the destination: the
			// two slots may alias (`h = i * h`).
			r := st[in.k]
			d := &st[in.b]
			*d = st[sp]
			if d.kind == vInt && r.kind == vInt && intBinop(TokKind(in.a), d, r.i) {
				continue
			}
			*d = t.binop(TokKind(in.a), *d, r, in.pos)
		case opEq:
			sp--
			eq := run.eq(st[sp-1], st[sp])
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
				parts[i] = run.format(st[sp+i])
			}
			run.m.print(parts)
		case opBoolChk:
			if v := st[sp-1]; v.kind != vBool {
				panic(cp.errAt(in.pos, "expected bool, got %s", vtype(v)))
			}
		case opIntChk:
			if v := st[sp-1]; v.kind != vInt {
				panic(cp.errAt(in.pos, "expected int, got %s", vtype(v)))
			}
		case opChanChk:
			if v := st[sp-1]; v.kind != vChan {
				panic(cp.errAt(in.pos, "expected chan, got %s", vtype(v)))
			}
		case opWGChk:
			if v := st[sp-1]; v.kind != vWG {
				panic(cp.errAt(in.pos, "expected waitgroup, got %s", vtype(v)))
			}
		case opNewObj:
			o := t.c.New(cp.strs[in.a], labels[in.k])
			st[sp] = run.ref(vObj, o, o)
			sp++
		case opNewLatch:
			l := t.c.NewLatch(labels[in.k])
			st[sp] = run.ref(vLatch, l.Obj(), l)
			sp++
		case opNewWG:
			wg := t.c.NewWaitGroup(labels[in.k])
			st[sp] = run.ref(vWG, wg.Obj(), wg)
			sp++
		case opNewChan:
			capacity := int64(0)
			if in.a != 0 {
				sp--
				capacity = st[sp].i // pre-checked by opIntChk
				if capacity < 0 {
					panic(cp.errAt(in.pos, "newchan(%d): negative capacity", capacity))
				}
			}
			ch := t.c.NewChan(int(capacity), labels[in.k])
			st[sp] = run.ref(vChan, ch.Obj(), ch)
			sp++
		case opRecv:
			ch := t.asChan(st[sp-1], in.pos)
			st[sp-1] = run.fromValue(t.c.Recv(ch, labels[in.k]))
		case opSend:
			var v vval
			if in.a != 0 {
				sp--
				v = st[sp]
			} else {
				v = vval{kind: vNil}
			}
			sp--
			ch := run.refs[st[sp].i].(*sched.Chan) // pre-checked by opChanChk
			t.c.Send(ch, run.toValue(v), labels[in.k])
		case opClose:
			sp--
			t.c.Close(t.asChan(st[sp], in.pos), labels[in.k])
		case opWGAdd:
			sp -= 2
			wg := run.refs[st[sp].i].(*sched.WaitGroup) // pre-checked by opWGChk
			t.c.WGAdd(wg, int(st[sp+1].i), labels[in.k])
		case opWGDone:
			sp--
			t.c.WGDone(t.asWG(st[sp], in.pos), labels[in.k])
		case opWGWait:
			sp--
			t.c.WGWait(t.asWG(st[sp], in.pos), labels[in.k])
		case opSyncEnter:
			sp--
			o := t.asObject(st[sp], in.pos)
			t.c.Acquire(o, labels[in.k])
			f.syncs = append(f.syncs, syncEnt{obj: o, loc: labels[in.k]})
		case opSyncExit:
			s := f.syncs[len(f.syncs)-1]
			f.syncs = f.syncs[:len(f.syncs)-1]
			t.c.Release(s.obj, s.loc)
		case opWork:
			sp--
			n := st[sp].i // pre-checked by opIntChk
			if n < 0 {
				panic(cp.errAt(in.pos, "work(%d): negative amount", n))
			}
			t.c.Work(int(n), labels[in.k])
		case opStep:
			t.c.Step(labels[in.k])
		case opJoin:
			sp--
			v := st[sp]
			if v.kind != vThread {
				panic(cp.errAt(in.pos, "join requires a thread, got %s", vtype(v)))
			}
			t.c.Join(run.refs[v.i].(*sched.Thread), labels[in.k])
		case opAwait:
			sp--
			t.c.Await(t.asLatch(st[sp], in.pos), labels[in.k])
		case opSignal:
			sp--
			t.c.Signal(t.asLatch(st[sp], in.pos), labels[in.k])
		case opWaitOn:
			sp--
			t.c.Wait(t.asObject(st[sp], in.pos), labels[in.k])
		case opNotify:
			sp--
			o := t.asObject(st[sp], in.pos)
			if in.a != 0 {
				t.c.NotifyAll(o, labels[in.k])
			} else {
				t.c.Notify(o, labels[in.k])
			}
		case opFieldGet:
			obj := t.asFieldOwner(st[sp-1], in.pos)
			v, ok := run.getField(obj, int(in.a))
			if !ok {
				typ := run.refs[obj].(*object.Obj).Type
				panic(cp.errAt(in.pos, "read of unset field %s.%s", typ, cp.fields[in.a]))
			}
			st[sp-1] = v
		case opFieldOwner:
			t.asFieldOwner(st[sp-1], in.pos)
		case opFieldSet:
			sp -= 2
			run.setField(st[sp].i, int(in.a), st[sp+1]) // object pre-checked by opFieldOwner
		case opCall:
			n := int(in.b)
			sp -= n
			st[sp] = t.call(cp.funcs[in.a], st[sp:sp+n], in.pos, labels[in.k])
			sp++
		case opSpawn:
			n := int(in.b)
			sp -= n
			child := run.thread(nil)
			child.fn, child.pos, child.site = cp.funcs[in.a], in.pos, labels[in.k]
			child.args = append(child.args[:0], st[sp:sp+n]...)
			th := t.c.Spawn(child.fn.name, nil, child.site, child.body)
			st[sp] = run.ref(vThread, th.Obj(), th)
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

// intBinop applies op in place on all-int operands, the dispatch loop's
// fast path: arithmetic mutates l.i directly, comparisons overwrite l
// whole. It declines — returning
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

// binop applies a non-shortcut binary operator with the walker's typing
// rules: string concatenation when the left operand of + is a string,
// otherwise integer arithmetic and ordering.
func (t *vmThread) binop(op TokKind, l, r vval, pos srcPos) vval {
	if op == TokPlus && l.kind == vStr {
		return t.run.newStr(t.run.str(l.i) + t.run.format(r))
	}
	if l.kind != vInt || r.kind != vInt {
		panic(t.run.cp.errAt(pos, "operator %s requires ints, got %s and %s", op, vtype(l), vtype(r)))
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
			panic(t.run.cp.errAt(pos, "division by zero"))
		}
		return vval{kind: vInt, i: l.i / r.i}
	case TokPercent:
		if r.i == 0 {
			panic(t.run.cp.errAt(pos, "division by zero"))
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
func (t *vmThread) asObject(v vval, pos srcPos) *object.Obj {
	switch v.kind {
	case vObj:
		return t.run.refs[v.i].(*object.Obj)
	case vLatch:
		return t.run.refs[v.i].(*sched.Latch).Obj()
	case vThread:
		return t.run.refs[v.i].(*sched.Thread).Obj()
	case vChan:
		return t.run.refs[v.i].(*sched.Chan).Obj()
	case vWG:
		return t.run.refs[v.i].(*sched.WaitGroup).Obj()
	}
	panic(t.run.cp.errAt(pos, "sync requires an object, got %s", vtype(v)))
}

// asFieldOwner mirrors evalFieldOwner: only plain objects carry fields.
// It returns the object's ID, which keys the field heap.
func (t *vmThread) asFieldOwner(v vval, pos srcPos) int64 {
	if v.kind != vObj {
		panic(t.run.cp.errAt(pos, "field access requires an object, got %s", vtype(v)))
	}
	return v.i
}

func (t *vmThread) asChan(v vval, pos srcPos) *sched.Chan {
	if v.kind != vChan {
		panic(t.run.cp.errAt(pos, "expected chan, got %s", vtype(v)))
	}
	return t.run.refs[v.i].(*sched.Chan)
}

func (t *vmThread) asWG(v vval, pos srcPos) *sched.WaitGroup {
	if v.kind != vWG {
		panic(t.run.cp.errAt(pos, "expected waitgroup, got %s", vtype(v)))
	}
	return t.run.refs[v.i].(*sched.WaitGroup)
}

func (t *vmThread) asLatch(v vval, pos srcPos) *sched.Latch {
	if v.kind != vLatch {
		panic(t.run.cp.errAt(pos, "expected latch, got %s", vtype(v)))
	}
	return t.run.refs[v.i].(*sched.Latch)
}
