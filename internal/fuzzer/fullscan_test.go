package fuzzer

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dlfuzz/internal/event"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/lang"
	"dlfuzz/internal/lang/gen"
	"dlfuzz/internal/lockset"
	"dlfuzz/internal/object"
	"dlfuzz/internal/sched"
	"dlfuzz/internal/workloads"
)

// hookEv is one hook call: its kind ('p'ause, 't'hrash, 'y'ield or
// 'e'vict), thread, step and site.
type hookEv struct {
	kind byte
	tid  event.TID
	step int
	loc  event.Loc
}

// decisionLog records a run's decisions and its hook stream, in order.
// cut counts the forced runs a Solo call took only part of.
type decisionLog struct {
	decisions []event.TID
	hooks     []hookEv
	cut       int
}

func (l *decisionLog) reset() {
	l.decisions, l.hooks, l.cut = l.decisions[:0], l.hooks[:0], 0
}

func (l *decisionLog) OnPause(t event.TID, step int, loc event.Loc) {
	l.hooks = append(l.hooks, hookEv{'p', t, step, loc})
}

func (l *decisionLog) OnThrash(t event.TID, step int) {
	l.hooks = append(l.hooks, hookEv{'t', t, step, ""})
}

func (l *decisionLog) OnYield(t event.TID, step int, loc event.Loc) {
	l.hooks = append(l.hooks, hookEv{'y', t, step, loc})
}

func (l *decisionLog) OnEvict(t event.TID, step int) {
	l.hooks = append(l.hooks, hookEv{'e', t, step, ""})
}

// logged records every decision of the policy it wraps, those its Solo
// takes included. Wrapping a policy without Solo, it takes none, so the
// scheduler decides every step with Next.
type logged struct {
	sched.Policy
	log *decisionLog
}

func (p logged) Next(s *sched.Scheduler, enabled []event.TID) event.TID {
	t := p.Policy.Next(s, enabled)
	p.log.decisions = append(p.log.decisions, t)
	return t
}

func (p logged) Solo(s *sched.Scheduler, t event.TID, n int) int {
	sp, ok := p.Policy.(sched.SoloPolicy)
	if !ok {
		return 0
	}
	took := sp.Solo(s, t, n)
	if took < n {
		p.log.cut++
	}
	for range took {
		p.log.decisions = append(p.log.decisions, t)
	}
	return took
}

// fullScan runs programs under the incremental Policy and under
// refPolicy and compares what they did. One Policy serves every run,
// re-armed by Reset the way a campaign's Runner re-arms it, so class
// indexes carried across targets are exercised too.
type fullScan struct {
	pol      *Policy
	got, ref decisionLog
	// hooks totals the hook calls of every compared run by kind, and cut
	// the forced runs a Solo call stopped short of (at a due eviction),
	// so a test can check that each was exercised.
	hooks map[byte]int
	cut   int
}

func newFullScan() *fullScan {
	return &fullScan{pol: &Policy{}, hooks: make(map[byte]int)}
}

// compare runs prog at seed under both policies and describes the first
// difference, or returns "".
func (f *fullScan) compare(prog func(*sched.Ctx), cycle *igoodlock.Cycle, cfg Config, seed int64, maxSteps int) string {
	f.got.reset()
	f.pol.Reset(cycle, cfg)
	f.pol.SetHooks(&f.got)
	gotRes := sched.New(sched.Options{Seed: seed, Policy: logged{f.pol, &f.got}, MaxSteps: maxSteps}).Run(prog)

	f.ref.reset()
	ref := newRefPolicy(cycle, cfg, &f.ref)
	refRes := sched.New(sched.Options{Seed: seed, Policy: logged{ref, &f.ref}, MaxSteps: maxSteps}).Run(prog)

	for _, h := range f.ref.hooks {
		f.hooks[h.kind]++
	}
	f.cut += f.got.cut
	if i := firstDiff(f.got.decisions, f.ref.decisions); i >= 0 {
		return fmt.Sprintf("decision %d differs (of %d vs %d)", i, len(f.got.decisions), len(f.ref.decisions))
	}
	if i := firstDiff(f.got.hooks, f.ref.hooks); i >= 0 {
		return fmt.Sprintf("hook call %d differs: %v", i, hookPair(f.got.hooks, f.ref.hooks, i))
	}
	if gs, rs := f.pol.Stats(), ref.stats; gs != rs {
		return fmt.Sprintf("stats %+v, reference %+v", gs, rs)
	}
	if gotRes.Outcome != refRes.Outcome || gotRes.Steps != refRes.Steps || gotRes.Events != refRes.Events {
		return fmt.Sprintf("result %v/%d/%d, reference %v/%d/%d",
			gotRes.Outcome, gotRes.Steps, gotRes.Events, refRes.Outcome, refRes.Steps, refRes.Events)
	}
	return ""
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff[T comparable](a, b []T) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func hookPair(a, b []hookEv, i int) string {
	at := func(s []hookEv) string {
		if i < len(s) {
			return fmt.Sprintf("%c t%d step %d %q", s[i].kind, s[i].tid, s[i].step, s[i].loc)
		}
		return "none"
	}
	return at(a) + " vs reference " + at(b)
}

// scanConfigs is the paper's five Figure 2 variants, plus three stress
// configurations: variant 2 with a short pause timeout, so the livelock
// monitor evicts; variant 2 with a tiny one, so evictions fall due
// inside the forced runs of a Work batch and Solo must stop short of
// them; and the trivial abstraction without context, under which every
// acquire matches — a freshly spawned thread's first one included.
func scanConfigs() []Config {
	v := func(a object.Abstraction, ctx, yield bool) Config {
		return Config{Abstraction: a, K: 10, UseContext: ctx, YieldOpt: yield}
	}
	short := v(object.ExecIndex, true, true)
	short.PauseTimeout = 20
	tiny := v(object.ExecIndex, true, true)
	tiny.PauseTimeout = 5
	return []Config{
		v(object.KObject, true, true),
		v(object.ExecIndex, true, true),
		v(object.Trivial, true, true),
		v(object.ExecIndex, false, true),
		v(object.ExecIndex, true, false),
		short,
		v(object.Trivial, false, true),
		tiny,
	}
}

// workInCycle is a two-lock cycle whose first thread works while
// holding its first lock: once the second thread is paused blocked on
// that lock, the worker runs alone, and under a tiny pause timeout the
// eviction falls due part-way through its Work batch.
func workInCycle(c *sched.Ctx) {
	a := c.New("Object", "wic.main:1")
	b := c.New("Object", "wic.main:2")
	t1 := c.Spawn("t1", nil, "wic.main:3", func(c *sched.Ctx) {
		c.Acquire(a, "wic.t1:10")
		c.Work(50, "wic.t1:11")
		c.Acquire(b, "wic.t1:12")
		c.Release(b, "wic.t1:12")
		c.Release(a, "wic.t1:10")
	})
	t2 := c.Spawn("t2", nil, "wic.main:4", func(c *sched.Ctx) {
		c.Acquire(b, "wic.t2:20")
		c.Acquire(a, "wic.t2:21")
		c.Release(a, "wic.t2:21")
		c.Release(b, "wic.t2:20")
	})
	c.Join(t1, "wic.main:5")
	c.Join(t2, "wic.main:6")
}

// observe merges prog's lock dependencies over four observation runs
// from seed on (deadlocked runs included: the differential needs
// candidates, not sound ones) and returns iGoodlock's cycles under
// cfg's abstraction.
func observe(prog func(*sched.Ctx), cfg Config, seed int64) []*igoodlock.Cycle {
	m := lockset.NewMerger(cfg.Abstraction, cfg.K)
	for i := range 4 {
		rec := lockset.NewRecorder()
		sched.New(sched.Options{Seed: seed + int64(i), Observers: []sched.Observer{rec}, MaxSteps: 200_000}).Run(prog)
		m.Add(i, rec.Deps())
	}
	return igoodlock.Find(m.Deps(), igoodlock.Config{Abstraction: cfg.Abstraction, K: cfg.K})
}

// clfBody compiles CLF source to a program body on the VM.
func clfBody(tb testing.TB, name, src string) func(*sched.Ctx) {
	tb.Helper()
	prog, err := lang.Parse(name, src)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	return lang.NewInterp(prog, io.Discard).Main()
}

// scanInput is one program of TestPolicyMatchesFullScan, run at seeds
// 0 .. seeds-1 against each of its Phase I cycles.
type scanInput struct {
	name  string
	prog  func(*sched.Ctx)
	seeds int64
}

// clfInputs are the committed corpus and the generated large programs
// of seeds 1-8, on the VM.
func clfInputs(t *testing.T) []scanInput {
	files, err := filepath.Glob("../../testdata/corpus/*.clf")
	if err != nil || len(files) == 0 {
		t.Fatalf("committed corpus: %v (%d files)", err, len(files))
	}
	var ins []scanInput
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, scanInput{"corpus/" + filepath.Base(f), clfBody(t, filepath.Base(f), string(src)), 20})
	}
	for seed := int64(1); seed <= 8; seed++ {
		name := gen.FileName(seed)
		ins = append(ins, scanInput{"large/" + name, clfBody(t, name, gen.Generate(seed, gen.Large())), 20})
	}
	return ins
}

// TestPolicyMatchesFullScan holds the incremental Policy to the literal
// full-rescan loop (refPolicy): identical decisions, hook calls (with
// step and site) and Stats on every built-in workload, workInCycle, the
// committed corpus and generated large programs, for each Phase I cycle
// under every Figure 2 variant. The Policy takes forced runs through
// Solo, the reference decides every step with Next.
func TestPolicyMatchesFullScan(t *testing.T) {
	var ins []scanInput
	for _, w := range append(workloads.All(), workloads.Blocking()...) {
		ins = append(ins, scanInput{"go/" + w.Name, w.Prog, 50})
	}
	if raceEnabled {
		// The differential is single-goroutine, and the detector's
		// memory grows with every run: under it, one seed per Go
		// workload cycle, and FuzzActivePolicy's seeds cover the CLF
		// programs.
		for i := range ins {
			ins[i].seeds = 1
		}
	} else {
		ins = append(ins, clfInputs(t)...)
	}
	// workInCycle is tiny, and the one Go program whose forced runs
	// reach a due eviction: all its seeds run even under the detector.
	ins = append(ins, scanInput{"go/work-in-cycle", workInCycle, 50})

	f := newFullScan()
	runs := 0
	for _, in := range ins {
		for vi, cfg := range scanConfigs() {
			for ci, cyc := range observe(in.prog, cfg, 0) {
				for seed := range in.seeds {
					if d := f.compare(in.prog, cyc, cfg, seed, 0); d != "" {
						t.Fatalf("%s config %d cycle %d seed %d: %s", in.name, vi+1, ci, seed, d)
					}
					runs++
				}
			}
		}
	}
	t.Logf("%d runs identical; hook calls %v; %d forced runs cut at an eviction", runs, f.hooks, f.cut)
	for _, k := range []byte("ptye") {
		if f.hooks[k] == 0 {
			t.Errorf("no %c hook call in any run: the differential does not exercise it", k)
		}
	}
	if f.cut == 0 {
		t.Error("no Solo call stopped short at a due eviction: the differential does not exercise the cap")
	}
}

// fuzzInput encodes FuzzActivePolicy's input: a preset index, a
// scanConfigs index, a generator seed and a scheduler seed.
func fuzzInput(preset, variant byte, genSeed, schedSeed int64) []byte {
	b := []byte{preset, variant}
	b = binary.LittleEndian.AppendUint64(b, uint64(genSeed))
	return binary.LittleEndian.AppendUint64(b, uint64(schedSeed))
}

var fuzzPresets = []string{"small", "medium", "large", "blocking"}

// FuzzActivePolicy generates a program from the fuzz bytes, observes it,
// and holds the incremental Policy to the full-rescan reference on every
// candidate cycle.
func FuzzActivePolicy(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(fuzzInput(2, 1, seed, seed))
	}
	raw, err := os.ReadFile("../../testdata/corpus/manifest.json")
	if err != nil {
		f.Fatal(err)
	}
	var man struct {
		Gen     struct{ Preset string }
		Entries []struct{ Seed int64 }
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		f.Fatal(err)
	}
	preset := slices.Index(fuzzPresets, man.Gen.Preset)
	if preset < 0 || len(man.Entries) == 0 {
		f.Fatalf("manifest: preset %q, %d entries", man.Gen.Preset, len(man.Entries))
	}
	for i, e := range man.Entries {
		f.Add(fuzzInput(byte(preset), byte(i), e.Seed, e.Seed))
	}
	scan := newFullScan()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 18 {
			return
		}
		gcfg, _ := gen.ByPreset(fuzzPresets[int(data[0])%len(fuzzPresets)])
		cfgs := scanConfigs()
		ci := int(data[1]) % len(cfgs)
		genSeed := int64(binary.LittleEndian.Uint64(data[2:]))
		schedSeed := int64(binary.LittleEndian.Uint64(data[10:]))
		prog := clfBody(t, gen.FileName(genSeed), gen.Generate(genSeed, gcfg))
		for k, cyc := range observe(prog, cfgs[ci], schedSeed) {
			if d := scan.compare(prog, cyc, cfgs[ci], schedSeed, 200_000); d != "" {
				t.Fatalf("%s seed %d, config %d, cycle %d, sched seed %d: %s",
					gcfg.Preset, genSeed, ci+1, k, schedSeed, d)
			}
		}
	})
}
