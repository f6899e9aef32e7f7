package lang

// The CLF bytecode VM. It executes the instruction streams compile.go
// produces, posting the same scheduler requests as the tree-walker's
// sched.Ctx calls but with pointer-free values (vval), slot-addressed
// frames instead of map environments, a slice-indexed heap instead of
// nested maps, and frames and thread records pooled across the
// thousands of executions one Interp drives.
//
// Each thread is a sched.Machine. Its calls, operand stacks and open
// sync blocks live in its own pooled frames, not on a Go stack: a CLF
// call or return switches frames inside the dispatch loop, and a post
// that hands the turn to another thread saves the frame's pc and sp and
// returns. The scheduler resumes the thread with a plain call when it
// grants the request, and drops it without resuming it when the run
// ends first.
//
// Byte-identity with the tree-walker, the test-only reference back end
// in treewalk_test.go, is the contract (see vmdiff_test.go): same
// requests with the same labels, same print bytes, same RuntimeError
// strings and positions — including a runtime error's unwind, where
// open sync blocks release innermost-first before each frame's Return
// event, exactly as the walker's stacked defers do. The VM replays that
// unwind as posts it can stop at and resume, like any other.

import (
	"fmt"

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
// operand stack, the stack of open sync blocks (for a runtime error's
// unwind), and where the call stands while its thread is not running.
type vmFrame struct {
	fn    *compiledFunc
	slots []vval
	syncs []syncEnt
	pc    int       // the next instruction to run
	sp    int       // the operand stack's top
	site  event.Loc // the call site, which the Return event names
}

type syncEnt struct {
	obj *object.Obj
	loc event.Loc
}

// vmRun is the per-execution state: the field heap, the frame pool and
// the thread records. It is shared by every simulated thread of one
// execution and recycled across executions through the machine's pool.
// Every access happens on the one stack that holds the scheduling baton:
// the scheduler runs each thread as a sched.Machine, by plain calls, so
// frames, records and the refcount are touched by one flow of control
// at a time.
type vmRun struct {
	m        *machine
	cp       *compiledProg
	heap     [][]vval // obj.ID -> fieldID -> value; IDs are dense from 1
	refs     []any    // obj.ID -> the referent a reference value names
	strs     []string // the run's strings, see str
	frames   []*vmFrame
	threads  []*vmThread // thread records, kept across executions
	nthread  int         // records handed out in this execution
	refcount int         // threads started and neither ended nor dropped
}

func (m *machine) getRun(cp *compiledProg) *vmRun {
	r, _ := m.pool.Get().(*vmRun)
	if r == nil {
		r = &vmRun{m: m, cp: cp}
	}
	return r
}

// release drops one thread's reference; the last holder zeroes the heap
// (the zero vval is an unset field) and the thread records and returns
// the run to the pool. Field slices, frame slots and records keep their
// capacity for the next execution.
func (r *vmRun) release() {
	if r.refcount--; r.refcount != 0 {
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
		t.c, t.fn, t.err = nil, nil, nil
	}
	r.nthread = 0
	r.m.pool.Put(r)
}

// thread hands out the next free thread record, making one when the
// execution has more threads than any before it. The caller sets the
// entry call the record's first Resume makes.
func (r *vmRun) thread(fn *compiledFunc, site event.Loc) *vmThread {
	if r.nthread == len(r.threads) {
		r.threads = append(r.threads, &vmThread{run: r})
	}
	t := r.threads[r.nthread]
	r.nthread++
	t.fn, t.site = fn, site
	return t
}

// getFrame pops a pooled frame for a call of fn at site, its slots
// zeroed and its operand stack empty. Every frame is made as large as
// the program's largest, so a pooled frame fits any call.
func (r *vmRun) getFrame(fn *compiledFunc, site event.Loc) *vmFrame {
	var f *vmFrame
	if n := len(r.frames); n == 0 {
		f = &vmFrame{slots: make([]vval, fn.frame, r.cp.maxFrame)}
	} else {
		f = r.frames[n-1]
		r.frames = r.frames[:n-1]
		f.slots = f.slots[:fn.frame]
	}
	f.fn, f.site, f.pc, f.sp = fn, site, 0, fn.nslots
	return f
}

// putFrame recycles a frame: on return, on a runtime error's unwind,
// and when the scheduler drops a thread that is still deep in calls.
func (r *vmRun) putFrame(f *vmFrame) {
	for i := range f.slots {
		f.slots[i] = vval{}
	}
	f.syncs = f.syncs[:0]
	f.fn = nil
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

// vmThread executes bytecode for one simulated thread. It is a
// sched.Machine: its calls live in pooled frames, not on a Go stack,
// so the scheduler resumes it with a plain call and drops it at the end
// of a run without unwinding anything. A thread's entry function,
// arguments and call site wait in its record until its first Resume.
type vmThread struct {
	c     *sched.Ctx
	run   *vmRun
	calls []*vmFrame    // open calls, innermost last
	err   *RuntimeError // the runtime error being unwound, nil otherwise
	fn    *compiledFunc // the entry function, nil once the thread started
	args  []vval
	site  event.Loc
}

// Resume implements sched.Machine. The first resume enters the entry
// function; a later one completes the instruction whose post stopped
// the thread, or goes on with an unwind, and runs until the next post
// that stops it or until the body ends.
func (t *vmThread) Resume(c *sched.Ctx) (ended bool) {
	if t.fn != nil {
		t.c = c
		t.run.refcount++
		fn := t.fn
		t.fn = nil
		if t.enter(fn, t.args, t.site) {
			return false
		}
	} else if t.err == nil {
		t.finish()
	}
	if t.err == nil && len(t.calls) > 0 && t.execute() {
		return false
	}
	if t.err != nil {
		if t.unwind() {
			return false
		}
		c.Fail(t.err)
		t.err = nil
	}
	t.run.release()
	return true
}

// Drop implements sched.Machine: the run ended with the thread alive,
// so its frames go back to the pool and it drops its reference.
func (t *vmThread) Drop() {
	for i, f := range t.calls {
		t.run.putFrame(f)
		t.calls[i] = nil
	}
	t.calls = t.calls[:0]
	t.run.release()
}

// enter opens a call of fn with args, made at site, and posts its
// Call event, like the walker's callFunction; it reports whether the
// post stopped the thread, which then resumes at the callee's first
// instruction.
func (t *vmThread) enter(fn *compiledFunc, args []vval, site event.Loc) (stopped bool) {
	f := t.run.getFrame(fn, site)
	copy(f.slots, args)
	t.calls = append(t.calls, f)
	*t.c.Request() = sched.Request{Kind: event.KindCall, Method: fn.name, Loc: site}
	return !t.c.Post()
}

// execute runs the dispatch loop, turning a runtime error into an
// unwind (t.err). It reports whether the thread stopped at a post; false
// means the body returned or failed.
func (t *vmThread) execute() (stopped bool) {
	defer func() {
		if r := recover(); r != nil {
			err, ok := r.(*RuntimeError)
			if !ok {
				panic(r)
			}
			t.err, stopped = err, false
		}
	}()
	return t.exec()
}

// unwind replays a runtime error's unwind the way the walker's deferred
// calls perform it: from the innermost call out, each call releases its
// open sync blocks, innermost first, and then posts its Return. Every
// one of those posts is a scheduling point where other threads may run,
// so unwind stops like exec does and the next Resume goes on from where
// it stopped. It reports whether the thread stopped.
func (t *vmThread) unwind() (stopped bool) {
	req := t.c.Request()
	for n := len(t.calls); n > 0; n = len(t.calls) {
		f := t.calls[n-1]
		if k := len(f.syncs); k > 0 {
			s := f.syncs[k-1]
			f.syncs = f.syncs[:k-1]
			*req = sched.Request{Kind: event.KindRelease, Obj: s.obj, Loc: s.loc}
		} else {
			*req = sched.Request{Kind: event.KindReturn, Method: f.fn.name, Loc: f.site}
			t.calls[n-1] = nil
			t.calls = t.calls[:n-1]
			t.run.putFrame(f)
		}
		if !t.c.Post() {
			return true
		}
	}
	return false
}

// finish completes, on resume, the instruction whose post stopped the
// thread: a granted request's result goes on the operand stack. A call
// stopped at its Call post starts its callee (pc 0), and one stopped at
// its Return post has already pushed its value, so neither has anything
// to complete.
func (t *vmThread) finish() {
	if n := len(t.calls); n > 0 {
		if f := t.calls[n-1]; f.pc > 0 {
			f.sp = t.result(&f.fn.code[f.pc-1], f.slots, f.sp)
		}
	}
}

// result completes a granted instruction that produces a value, and
// returns the new operand-stack top.
func (t *vmThread) result(in *instr, st []vval, sp int) int {
	run, c := t.run, t.c
	switch in.op {
	case opNewObj:
		o := c.Created()
		st[sp] = run.ref(vObj, o, o)
	case opNewLatch:
		l := c.LatchOf(c.Created())
		st[sp] = run.ref(vLatch, l.Obj(), l)
	case opNewWG:
		wg := sched.WaitGroupOf(c.Created())
		st[sp] = run.ref(vWG, wg.Obj(), wg)
	case opNewChan:
		capacity := 0
		if in.a != 0 {
			capacity = int(st[sp].i) // popped before the post, still in its slot
		}
		ch := sched.ChanOf(c.Created(), capacity)
		st[sp] = run.ref(vChan, ch.Obj(), ch)
	case opSpawn:
		th := c.Started()
		st[sp] = run.ref(vThread, th.Obj(), th)
	case opRecv:
		st[sp-1] = run.fromValue(c.Received())
		return sp
	default:
		return sp
	}
	return sp + 1
}

// exec is the dispatch loop over the innermost call. st is the frame's
// slot array: named variables in [0, nslots), the operand stack above
// them. A scheduling instruction fills in the thread's request and jumps
// to post; when the post stops the thread, the frame keeps pc and sp
// and exec returns true. Calls and returns switch frames in place, so a
// CLF call costs no Go call.
func (t *vmThread) exec() (stopped bool) {
	run, c := t.run, t.c
	cp := run.cp
	labels := cp.labels
	req := c.Request()
	f := t.calls[len(t.calls)-1]
	code, consts := f.fn.code, f.fn.consts
	st, sp := f.slots, f.sp
	for pc := f.pc; ; pc++ {
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

		// Scheduling points: each fills in the request and posts it.
		case opNewObj:
			*req = sched.Request{Kind: event.KindNew, Type: cp.strs[in.a], Loc: labels[in.k]}
			goto post
		case opNewLatch:
			*req = sched.Request{Kind: event.KindNew, Type: "Latch", Loc: labels[in.k]}
			goto post
		case opNewWG:
			*req = sched.Request{Kind: event.KindNew, Type: "WaitGroup", Loc: labels[in.k]}
			goto post
		case opNewChan:
			if in.a != 0 {
				sp--
				if capacity := st[sp].i; capacity < 0 { // pre-checked by opIntChk
					panic(cp.errAt(in.pos, "newchan(%d): negative capacity", capacity))
				}
			}
			*req = sched.Request{Kind: event.KindNew, Type: "Chan", Loc: labels[in.k]}
			goto post
		case opRecv:
			ch := t.asChan(st[sp-1], in.pos)
			*req = sched.Request{Kind: event.KindChanRecv, Ch: ch, Loc: labels[in.k]}
			goto post
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
			*req = sched.Request{Kind: event.KindChanSend, Ch: ch, Val: run.toValue(v), Loc: labels[in.k]}
			goto post
		case opClose:
			sp--
			*req = sched.Request{Kind: event.KindChanClose, Ch: t.asChan(st[sp], in.pos), Loc: labels[in.k]}
			goto post
		case opWGAdd:
			sp -= 2
			wg := run.refs[st[sp].i].(*sched.WaitGroup) // pre-checked by opWGChk
			*req = sched.Request{Kind: event.KindWGAdd, WG: wg, Delta: int(st[sp+1].i), Loc: labels[in.k]}
			goto post
		case opWGDone:
			sp--
			*req = sched.Request{Kind: event.KindWGAdd, WG: t.asWG(st[sp], in.pos), Delta: -1, Loc: labels[in.k]}
			goto post
		case opWGWait:
			sp--
			*req = sched.Request{Kind: event.KindWGWait, WG: t.asWG(st[sp], in.pos), Loc: labels[in.k]}
			goto post
		case opSyncEnter:
			sp--
			o := t.asObject(st[sp], in.pos)
			// The block is open from the grant on; until then the thread
			// runs no instruction that could fail and unwind it.
			f.syncs = append(f.syncs, syncEnt{obj: o, loc: labels[in.k]})
			*req = sched.Request{Kind: event.KindAcquire, Obj: o, Loc: labels[in.k]}
			goto post
		case opSyncExit:
			s := f.syncs[len(f.syncs)-1]
			f.syncs = f.syncs[:len(f.syncs)-1]
			*req = sched.Request{Kind: event.KindRelease, Obj: s.obj, Loc: s.loc}
			goto post
		case opWork:
			sp--
			n := st[sp].i // pre-checked by opIntChk
			if n < 0 {
				panic(cp.errAt(in.pos, "work(%d): negative amount", n))
			}
			if n == 0 {
				continue // no step, like Ctx.Work
			}
			*req = sched.Request{Kind: event.KindStep, Loc: labels[in.k], Steps: int(n)}
			goto post
		case opStep:
			*req = sched.Request{Kind: event.KindStep, Loc: labels[in.k]}
			goto post
		case opJoin:
			sp--
			v := st[sp]
			if v.kind != vThread {
				panic(cp.errAt(in.pos, "join requires a thread, got %s", vtype(v)))
			}
			*req = sched.Request{Kind: event.KindJoin, Target: run.refs[v.i].(*sched.Thread).ID(), Loc: labels[in.k]}
			goto post
		case opAwait:
			sp--
			*req = sched.Request{Kind: event.KindAwait, Obj: t.asLatch(st[sp], in.pos).Obj(), Loc: labels[in.k]}
			goto post
		case opSignal:
			sp--
			*req = sched.Request{Kind: event.KindSignal, Obj: t.asLatch(st[sp], in.pos).Obj(), Loc: labels[in.k]}
			goto post
		case opWaitOn:
			*req = sched.Request{Kind: event.KindWait, Obj: t.asObject(st[sp-1], in.pos), Loc: labels[in.k]}
			goto post
		case opWaitResume:
			sp--
			*req = sched.Request{Kind: event.KindAcquire, Obj: t.asObject(st[sp], in.pos), Loc: labels[in.k], WaitResume: true}
			goto post
		case opNotify:
			sp--
			*req = sched.Request{Kind: event.KindNotify, Obj: t.asObject(st[sp], in.pos), Loc: labels[in.k], All: in.a != 0}
			goto post
		case opSpawn:
			n := int(in.b)
			sp -= n
			child := run.thread(cp.funcs[in.a], labels[in.k])
			child.args = append(child.args[:0], st[sp:sp+n]...)
			*req = sched.Request{Kind: event.KindSpawn, Name: child.fn.name, Val: child, Loc: child.site}
			goto post
		case opCall:
			n := int(in.b)
			sp -= n
			if len(t.calls) >= maxCallDepth {
				panic(cp.errAt(in.pos, "call depth exceeds %d (runaway recursion?)", maxCallDepth))
			}
			f.pc, f.sp = pc+1, sp
			if t.enter(cp.funcs[in.a], st[sp:sp+n], labels[in.k]) {
				return true
			}
			f = t.calls[len(t.calls)-1]
			code, consts = f.fn.code, f.fn.consts
			st, sp, pc = f.slots, f.sp, -1
		case opReturn:
			ret := vval{kind: vNil}
			if in.a != 0 {
				ret = st[sp-1]
			}
			*req = sched.Request{Kind: event.KindReturn, Method: f.fn.name, Loc: f.site}
			n := len(t.calls) - 1
			t.calls[n] = nil
			t.calls = t.calls[:n]
			run.putFrame(f)
			if n == 0 {
				return !c.Post() // the body ends once its Return is granted
			}
			f = t.calls[n-1]
			f.slots[f.sp] = ret
			f.sp++
			if !c.Post() {
				return true
			}
			code, consts = f.fn.code, f.fn.consts
			st, sp, pc = f.slots, f.sp, f.pc-1
		default:
			panic(fmt.Sprintf("lang: unknown opcode %d", in.op))
		}
		continue
	post:
		if !c.Post() {
			f.pc, f.sp = pc+1, sp
			return true
		}
		sp = t.result(in, st, sp)
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
