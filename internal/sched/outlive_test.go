package sched_test

import (
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"testing"

	"dlfuzz/internal/event"
	"dlfuzz/internal/lang/gen"
	"dlfuzz/internal/object"
	"dlfuzz/internal/sched"
	"dlfuzz/internal/workloads"
)

// abstractions are the schemes renderObj renders each object under.
var abstractions = []object.Abstraction{object.Trivial, object.KObject, object.ExecIndex}

// renderObj writes o and every object of its Creator chain: the
// object's String and its key under each abstraction for k = 1..10.
func renderObj(b *strings.Builder, o *object.Obj) {
	if o == nil {
		b.WriteString("<nil>\n")
		return
	}
	for cur := o; cur != nil; cur = cur.Creator {
		b.WriteString(cur.String())
		for _, a := range abstractions {
			for k := 1; k <= 10; k++ {
				b.WriteByte(' ')
				b.WriteString(string(a.Of(cur, k)))
			}
		}
		b.WriteByte('\n')
	}
}

// renderResult renders what a run shows its caller: the outcome and
// counts, the deadlock report and the blocked verdict, each object they
// name (see renderObj), and a panic value's object, if any.
func renderResult(res *sched.Result, panicked any) string {
	var b strings.Builder
	if p, ok := panicked.(objPanic); ok {
		b.WriteString("panic\n")
		renderObj(&b, p.obj)
		return b.String()
	}
	if panicked != nil {
		fmt.Fprintf(&b, "panic %v\n", panicked)
		return b.String()
	}
	fmt.Fprintf(&b, "%s %d %d %d %d %d\n", res.Outcome, res.Steps, res.Events, res.Acquires, res.Spawned, res.Allocated)
	if dl := res.Deadlock; dl != nil {
		b.WriteString(dl.String())
		b.WriteByte('\n')
		for _, e := range dl.Edges {
			renderObj(&b, e.ThreadObj)
			renderObj(&b, e.Want)
			for _, h := range e.Held {
				renderObj(&b, h)
			}
		}
	}
	if bl := res.Blocked; bl != nil {
		b.WriteString(bl.Key())
		b.WriteByte('\n')
		b.WriteString(bl.String())
		b.WriteByte('\n')
		for _, th := range bl.Threads {
			renderObj(&b, th.ThreadObj)
			renderObj(&b, th.Obj)
		}
	}
	return b.String()
}

// renderEv renders the objects an event names: its thread object, its
// object and its lockset.
func renderEv(b *strings.Builder, ev *sched.Ev) {
	fmt.Fprintf(b, "%d %s %s\n", ev.Seq, ev.Kind, ev.Loc)
	renderObj(b, ev.ThreadObj)
	renderObj(b, ev.Obj)
	for _, l := range ev.LockSet {
		renderObj(b, l)
	}
}

// objPanic is panicObj's panic value: an object and its rendering at
// the panic.
type objPanic struct {
	obj *object.Obj
	at  string
}

// panicObj panics with an object it allocated under a call, so the
// panic value carries a creator chain out of the run.
func panicObj(c *sched.Ctx) {
	recv := c.New("Owner", "po:1")
	c.Call("make", recv, "po:2", func() {
		o := c.New("Payload", "po:3")
		var b strings.Builder
		renderObj(&b, o)
		panic(objPanic{o, b.String()})
	})
}

// outliveInputs are programs whose results name objects: lock
// deadlocks (Go and VM, objects allocated under calls), blocked
// verdicts at a stall and at a step limit, plain completions, and
// panics.
func outliveInputs(t *testing.T) []warmInput {
	t.Helper()
	ins := []warmInput{
		{name: "go/fig1", body: sched.Fig1(0)},
		{name: "go/deadlock", body: goDeadlock},
		{name: "go/stall", body: goStall},
		{name: "go/steplimit", body: goSpin, maxSteps: 300},
		{name: "go/panic", body: goPanic},
		{name: "go/panic-obj", body: panicObj},
	}
	for _, name := range []string{"jigsaw", "lists", "lock-chan-mix", "chan-cycle-unbuf", "wg-miscount-add", "chan-orphan-recv"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		ins = append(ins, warmInput{name: "go/" + name, body: w.Prog, maxSteps: 2000})
	}
	for _, file := range []string{"philosophers.clf", "factory.clf", "wgleak.clf"} {
		src, err := os.ReadFile("../../testdata/" + file)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, warmInput{name: "vm/" + file, body: compileCLF(t, file, string(src))})
	}
	return ins
}

// keptRun is one run's input, seed and rendering when it ended.
type keptRun struct {
	in       warmInput
	seed     int64
	observed bool
	res      *sched.Result
	panicked any
	at       string // renderResult when the run ended
}

// runKept runs in at seed on shell, with an observer when observed,
// recovering a panic.
func runKept(shell *sched.Scheduler, in warmInput, seed int64, observed bool) (k keptRun) {
	k = keptRun{in: in, seed: seed, observed: observed}
	opts := sched.Options{Seed: seed, MaxSteps: in.maxSteps}
	if observed {
		opts.Observers = []sched.Observer{&evCollector{}}
	}
	defer func() {
		k.panicked = recover()
		k.at = renderResult(k.res, k.panicked)
	}()
	k.res = shell.Rerun(opts, in.body)
	return k
}

// TestResultsOutliveShellReuse pins the arena's lifetime rule from the
// Result's side: one warm shell runs every input for 200 seeds,
// observed or not, keeping every Result and panic value. At the end,
// each must still render — reports, verdict keys, and every object it
// names with its creator chain under every abstraction — as it did when
// its run ended, and as the same seed does on a brand-new shell. A
// panic value's object must read as it did at the panic.
func TestResultsOutliveShellReuse(t *testing.T) {
	inputs := outliveInputs(t)
	shell := sched.NewShell()
	var kept []keptRun
	for seed := int64(0); seed < 200; seed++ {
		in := inputs[int(seed)%len(inputs)]
		kept = append(kept, runKept(shell, in, seed, seed%3 == 0))
	}
	checkKept(t, kept)
	named := 0
	for _, k := range kept {
		if k.res != nil && (k.res.Deadlock != nil || k.res.Blocked != nil) {
			named++
		}
	}
	if named < 40 {
		t.Fatalf("only %d of %d results name objects", named, len(kept))
	}
}

// checkKept requires every kept run to render as it did when it ended
// and as the same seed does on a brand-new shell, and a panic value's
// object to read as it did at the panic.
func checkKept(t *testing.T, kept []keptRun) {
	t.Helper()
	for _, k := range kept {
		if p, ok := k.panicked.(objPanic); ok {
			var b strings.Builder
			renderObj(&b, p.obj)
			if b.String() != p.at {
				t.Fatalf("%s seed %d: panic value changed after the shell's reuse:\n%s\nwant\n%s", k.in.name, k.seed, b.String(), p.at)
			}
		}
		now := renderResult(k.res, k.panicked)
		if now != k.at {
			t.Fatalf("%s seed %d (observed %v): result changed after the shell's reuse:\n%s\nwant\n%s", k.in.name, k.seed, k.observed, now, k.at)
		}
		if fresh := runKept(sched.NewShell(), k.in, k.seed, false); now != fresh.at {
			t.Fatalf("%s seed %d (observed %v): result differs from a brand-new shell's:\n%s\nwant\n%s", k.in.name, k.seed, k.observed, now, fresh.at)
		}
	}
}

// retainingObserver keeps every event as delivered, with its rendering
// at delivery time.
type retainingObserver struct {
	evs []sched.Ev
	at  []string
}

func (o *retainingObserver) OnEvent(ev sched.Ev) {
	var b strings.Builder
	renderEv(&b, &ev)
	o.evs = append(o.evs, ev)
	o.at = append(o.at, b.String())
}

// TestObservedObjectsOutliveShellReuse pins the rule from the
// observer's side, in the style of TestPoolSnapshotsSurviveReuse: an
// observed run publishes its objects, so every Ev.Obj, ThreadObj and
// LockSet an observer keeps must read as delivered through 100 later
// unobserved runs of every input on the same shell.
func TestObservedObjectsOutliveShellReuse(t *testing.T) {
	inputs := outliveInputs(t)
	shell := sched.NewShell()
	var observers []*retainingObserver
	for i, in := range inputs {
		if strings.Contains(in.name, "panic") {
			continue
		}
		o := &retainingObserver{}
		observers = append(observers, o)
		shell.Rerun(sched.Options{Seed: int64(i), MaxSteps: in.maxSteps, Observers: []sched.Observer{o}}, in.body)
	}
	for seed := int64(0); seed < 100; seed++ {
		runKept(shell, inputs[int(seed)%len(inputs)], seed, false)
	}
	acquires := 0
	for run, o := range observers {
		for i := range o.evs {
			var b strings.Builder
			renderEv(&b, &o.evs[i])
			if b.String() != o.at[i] {
				t.Fatalf("run %d event %d changed after the shell's reuse:\n%s\nwant\n%s", run, i, b.String(), o.at[i])
			}
			if o.evs[i].Kind == event.KindAcquire {
				acquires++
			}
		}
	}
	if acquires == 0 {
		t.Fatal("no acquire events observed")
	}
}

// FuzzWarmShell generates up to four programs from the fuzz bytes — a
// 17-byte record each: a preset, a generator seed, a scheduler seed
// and a step limit — and runs them interleaved on one warm shell for
// three rounds, observing every third run and keeping every Result.
// Each must then render as the same seed's run on a brand-new shell
// (see checkKept).
func FuzzWarmShell(f *testing.F) {
	record := func(preset byte, genSeed int64, schedSeed, maxSteps uint32) []byte {
		b := []byte{preset}
		b = binary.LittleEndian.AppendUint64(b, uint64(genSeed))
		b = binary.LittleEndian.AppendUint32(b, schedSeed)
		return binary.LittleEndian.AppendUint32(b, maxSteps)
	}
	for seed := int64(1); seed <= 8; seed++ {
		large := record(2, seed, uint32(seed), 50_000) // rescanPresets[2] is gen.Large
		f.Add(append(large, record(byte(seed), seed+8, uint32(seed*7), uint32(97*seed))...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const size = 17
		var ins []warmInput
		var seeds []int64
		for len(data) >= size && len(ins) < 4 {
			cfg := rescanPresets[int(data[0])%len(rescanPresets)]()
			genSeed := int64(binary.LittleEndian.Uint64(data[1:]))
			name := cfg.Preset + "/" + gen.FileName(genSeed)
			ins = append(ins, warmInput{
				name:     name,
				body:     compileCLF(t, name, gen.Generate(genSeed, cfg)),
				maxSteps: 1 + int(binary.LittleEndian.Uint32(data[13:])%100_000),
			})
			seeds = append(seeds, int64(binary.LittleEndian.Uint32(data[9:])))
			data = data[size:]
		}
		shell := sched.NewShell()
		var kept []keptRun
		for round := range int64(3) {
			for i, in := range ins {
				kept = append(kept, runKept(shell, in, seeds[i]+round, (int(round)+i)%3 == 0))
			}
		}
		checkKept(t, kept)
	})
}
