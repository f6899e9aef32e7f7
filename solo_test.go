package dlfuzz_test

// Differentials for forced runs: while one thread works alone in a
// batched Work request, a SoloPolicy takes the run of forced decisions
// in one call. Each in-tree SoloPolicy must leave every execution
// exactly as the same policy decided step by step: Result fields,
// event stream, recorded schedule and the policy's own counters.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"dlfuzz"
	"dlfuzz/internal/avoid"
	"dlfuzz/internal/event"
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/lang/gen"
	"dlfuzz/internal/lockset"
	"dlfuzz/internal/object"
	"dlfuzz/internal/obs"
	"dlfuzz/internal/sched"
	"dlfuzz/internal/workloads"
)

// nextOnly hides the Solo of the policy it wraps, so the scheduler
// decides every step with Next.
type nextOnly struct{ sched.Policy }

// soloThenRace works alone for n steps, then races three threads on
// two locks. A forced run that draws the wrong number of times shifts
// every later pick, so the race's interleaving changes with it. Two of
// the racers take the locks in opposite orders, and the third works
// while holding one of them: once the active policy has paused a cycle
// thread blocked on that lock, the worker runs alone, and under a tiny
// pause timeout the eviction falls due part-way through its batch.
func soloThenRace(n int) func(*sched.Ctx) {
	return func(c *sched.Ctx) {
		c.Work(n, "str.main:1")
		a := c.New("Object", "str.main:2")
		b := c.New("Object", "str.main:3")
		nested := func(first, second *object.Obj, site event.Loc) func(*sched.Ctx) {
			return func(c *sched.Ctx) {
				c.Acquire(first, site+"0")
				c.Acquire(second, site+"1")
				c.Release(second, site+"1")
				c.Release(first, site+"0")
			}
		}
		racers := []*sched.Thread{
			c.Spawn("worker", nil, "str.main:4", func(c *sched.Ctx) {
				c.Acquire(a, "str.worker:10")
				c.Work(200, "str.worker:11")
				c.Release(a, "str.worker:10")
			}),
			c.Spawn("ab", nil, "str.main:5", nested(a, b, "str.ab:2")),
			c.Spawn("ba", nil, "str.main:6", nested(b, a, "str.ba:3")),
		}
		for _, r := range racers {
			c.Join(r, "str.main:7")
		}
	}
}

// active is the active policy with its hook calls logged.
type active struct {
	*fuzzer.Policy
	log *hookLog
}

// hookLog renders every hook call, with its step, in call order.
type hookLog struct{ strings.Builder }

func (h *hookLog) OnPause(t event.TID, step int, loc event.Loc) {
	fmt.Fprintf(h, "pause %s step %d at %s\n", t, step, loc)
}

func (h *hookLog) OnThrash(t event.TID, step int) { fmt.Fprintf(h, "thrash %s step %d\n", t, step) }

func (h *hookLog) OnYield(t event.TID, step int, loc event.Loc) {
	fmt.Fprintf(h, "yield %s step %d at %s\n", t, step, loc)
}

func (h *hookLog) OnEvict(t event.TID, step int) { fmt.Fprintf(h, "evict %s step %d\n", t, step) }

// soloPolicy is one policy of the differential. mk returns a fresh
// instance, and counters renders the instance's own counters after a
// run ("" for none).
type soloPolicy struct {
	name     string
	mk       func() sched.Policy
	counters func(sched.Policy) string
}

// soloPolicies returns every in-tree SoloPolicy for a program with the
// given Phase I cycles: the random, blocking and noise policies, the
// active policy on each of the first two cycles (at its default pause
// timeout and at a tiny one, so evictions fall due inside forced runs),
// and the avoidance policy on all of them.
func soloPolicies(cycles []*igoodlock.Cycle) []soloPolicy {
	pols := []soloPolicy{
		{"random", func() sched.Policy { return sched.RandomPolicy{} }, nil},
		{"blocking", func() sched.Policy { return fuzzer.BlockingPolicy{P: 0.7} }, nil},
		{"noise", func() sched.Policy { return fuzzer.NoisePolicy{P: 0.5} }, nil},
	}
	for i, cyc := range cycles[:min(len(cycles), 2)] {
		for _, timeout := range []int{0, 5} {
			cfg := fuzzer.DefaultConfig()
			cfg.PauseTimeout = timeout
			pols = append(pols, soloPolicy{
				fmt.Sprintf("active-%d-timeout-%d", i, timeout),
				func() sched.Policy {
					p := active{fuzzer.New(cyc, cfg), &hookLog{}}
					p.SetHooks(p.log)
					return p
				},
				func(p sched.Policy) string {
					a := p.(active)
					return fmt.Sprintf("%+v\n%s", a.Stats(), a.log)
				},
			})
		}
	}
	if len(cycles) > 0 {
		pols = append(pols, soloPolicy{
			"avoid",
			func() sched.Policy { return avoid.New(cycles, fuzzer.DefaultConfig()) },
			func(p sched.Policy) string { return fmt.Sprint(p.(*avoid.Policy).Deferred()) },
		})
	}
	return pols
}

// soloRun is one execution of the differential: its Result, its
// rendering and its recorded schedule.
type soloRun struct {
	res      *sched.Result
	out      string
	schedule []int
}

// runRecorded runs prog under pol behind a RecordingPolicy, observed by
// an obs.Collector, and renders every Result field, the deadlock and
// blocked verdicts, the event stream's hash and extra.
func runRecorded(t testing.TB, prog func(*sched.Ctx), pol sched.Policy, seed int64, maxSteps int, extra func() string) soloRun {
	rec := obs.NewRecording(pol)
	col := obs.NewCollector()
	res := sched.New(sched.Options{Seed: seed, MaxSteps: maxSteps, Policy: rec, Observers: []sched.Observer{col}}).Run(prog)
	h := sha256.New()
	if err := col.Encode(h); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "outcome=%s steps=%d events=%d acquires=%d spawned=%d allocated=%d trace=%x\n",
		res.Outcome, res.Steps, res.Events, res.Acquires, res.Spawned, res.Allocated, h.Sum(nil))
	fmt.Fprintf(&b, "deadlock %s\n", renderDeadlock(res.Deadlock))
	if res.Blocked != nil {
		fmt.Fprintf(&b, "blocked step=%d %s\n", res.Blocked.Step, res.Blocked)
	}
	if extra != nil {
		b.WriteString(extra())
	}
	return soloRun{res, b.String(), rec.Schedule()}
}

// compareSolo runs prog at seed under the policy with and without its
// Solo and describes the first difference, or returns "". It also runs
// the Solo side without observers, where the scheduler counts forced
// events instead of emitting them, and requires the same Result.
func compareSolo(t testing.TB, prog func(*sched.Ctx), sp soloPolicy, seed int64, maxSteps int) (string, []int) {
	fast, slow := sp.mk(), sp.mk()
	if _, ok := fast.(sched.SoloPolicy); !ok {
		t.Fatalf("%s: policy has no Solo", sp.name)
	}
	counters := func(p sched.Policy) func() string {
		if sp.counters == nil {
			return nil
		}
		return func() string { return "counters " + sp.counters(p) + "\n" }
	}
	got := runRecorded(t, prog, fast, seed, maxSteps, counters(fast))
	want := runRecorded(t, prog, nextOnly{slow}, seed, maxSteps, counters(slow))
	if got.out != want.out {
		return fmt.Sprintf("Solo run:\n%sper-step run:\n%s", got.out, want.out), nil
	}
	if i := slices.Compare(got.schedule, want.schedule); i != 0 {
		return fmt.Sprintf("recorded schedules differ (%d vs %d decisions)", len(got.schedule), len(want.schedule)), nil
	}
	bare := sched.New(sched.Options{Seed: seed, MaxSteps: maxSteps, Policy: sp.mk()}).Run(prog)
	if b, r := *bare, *got.res; b.Outcome != r.Outcome || b.Steps != r.Steps || b.Events != r.Events {
		return fmt.Sprintf("unobserved Solo run %s/%d steps/%d events, observed %s/%d/%d",
			b.Outcome, b.Steps, b.Events, r.Outcome, r.Steps, r.Events), nil
	}
	return "", got.schedule
}

// compareReplay replays schedule — in full, cut short, and with one
// decision changed to another thread so that the replay diverges there —
// with and without ReplayPolicy's Solo, and describes the first
// difference, or returns "". The cut and the change fall in the middle
// of the schedule's longest run of one thread, where a Work batch's
// forced runs are.
func compareReplay(t testing.TB, prog func(*sched.Ctx), schedule []int, seed int64, maxSteps int) string {
	longest, mid := 0, 0
	for i := 0; i < len(schedule); {
		j := i + 1
		for j < len(schedule) && schedule[j] == schedule[i] {
			j++
		}
		if j-i > longest {
			longest, mid = j-i, i+(j-i)/2
		}
		i = j
	}
	diverging := slices.Clone(schedule)
	if len(diverging) > 0 {
		diverging[mid] = int(event.NoThread)
		for _, other := range schedule {
			if other != schedule[mid] {
				diverging[mid] = other
				break
			}
		}
	}
	for _, v := range []struct {
		name     string
		schedule []int
	}{{"full", schedule}, {"truncated", schedule[:mid]}, {"diverging", diverging}} {
		sp := soloPolicy{"replay-" + v.name, func() sched.Policy { return obs.NewReplay(v.schedule) },
			func(p sched.Policy) string { return fmt.Sprint(p.(*obs.ReplayPolicy).Diverged()) }}
		if d, _ := compareSolo(t, prog, sp, seed, maxSteps); d != "" {
			return sp.name + ": " + d
		}
	}
	return ""
}

// soloInput is one program of the differential.
type soloInput struct {
	name string
	prog func(*sched.Ctx)
}

// soloInputs are diffProgs, the blocking suite, the generated blocking
// programs of seeds 1-8, soloThenRace after a short and a long forced
// run, and soloCases.
func soloInputs(t *testing.T) []soloInput {
	var ins []soloInput
	for name, prog := range diffProgs(t) {
		ins = append(ins, soloInput{name, prog})
	}
	for _, w := range workloads.Blocking() {
		ins = append(ins, soloInput{"blocking/" + w.Name, w.Prog})
	}
	for seed := int64(1); seed <= 8; seed++ {
		ins = append(ins, soloInput{"gen-blocking/" + gen.FileName(seed), genBody(t, seed, gen.Blocking())})
	}
	ins = append(ins, soloInput{"solo-then-race", soloThenRace(50)}, soloInput{"long-solo-then-race", soloThenRace(5000)})
	for _, c := range soloCases {
		ins = append(ins, soloInput{"case/" + c.name, c.prog})
	}
	slices.SortFunc(ins, func(a, b soloInput) int { return strings.Compare(a.name, b.name) })
	return ins
}

// genBody compiles the generated program of seed under cfg.
func genBody(t testing.TB, seed int64, cfg gen.Config) func(*sched.Ctx) {
	name := gen.FileName(seed)
	prog, err := dlfuzz.ParseCLF(name, gen.Generate(seed, cfg))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return prog.Body()
}

// findCycles returns iGoodlock's cycles over prog's lock dependencies,
// merged from four observation runs — deadlocked and stalled ones
// included: the differential needs targets, not sound ones.
func findCycles(prog func(*sched.Ctx)) []*igoodlock.Cycle {
	m := lockset.NewMerger(object.ExecIndex, 10)
	for i := range 4 {
		rec := lockset.NewRecorder()
		sched.New(sched.Options{Seed: int64(i), Observers: []sched.Observer{rec}, MaxSteps: 200_000}).Run(prog)
		m.Add(i, rec.Deps())
	}
	return igoodlock.Find(m.Deps(), igoodlock.Config{Abstraction: object.ExecIndex, K: 10})
}

// checkSolo compares every policy of pols, and ReplayPolicy on the
// random policy's schedule, with its per-step self on one execution of
// prog, and describes the first difference, or returns "".
func checkSolo(t testing.TB, prog func(*sched.Ctx), pols []soloPolicy, seed int64, maxSteps int) string {
	for _, sp := range pols {
		d, schedule := compareSolo(t, prog, sp, seed, maxSteps)
		if d == "" && sp.name == "random" {
			d = compareReplay(t, prog, schedule, seed, maxSteps)
		}
		if d != "" {
			return sp.name + ": " + d
		}
	}
	return ""
}

// TestSoloMatchesPerStep holds every in-tree SoloPolicy to the same
// policy deciding each step with Next, on every program at several
// seeds and at step limits that end part-way through a Work batch, and
// ReplayPolicy to its per-step self on each recorded schedule.
func TestSoloMatchesPerStep(t *testing.T) {
	for _, in := range soloInputs(t) {
		in := in
		t.Run(in.name, func(t *testing.T) {
			t.Parallel()
			pols := soloPolicies(findCycles(in.prog))
			for _, seed := range []int64{0, 7} {
				for _, maxSteps := range []int{137, 50_001} {
					if d := checkSolo(t, in.prog, pols, seed, maxSteps); d != "" {
						t.Fatalf("seed %d max-steps %d: %s", seed, maxSteps, d)
					}
				}
			}
		})
	}
}

// soloCase is a program that starts its forced runs in one way, with
// the number of forced decisions a run of it leaves to Next.
type soloCase struct {
	name       string
	prog       func(*sched.Ctx)
	forcedNext int
}

// soloCases start forced runs in each way the scheduler treats apart:
// Work right after a Call, a New or a Return, and single Steps, whose
// first forced decision Solo takes, since the previous decision granted
// the same thread a state-neutral request; and Work after a grant to
// another thread, whose first forced decision Next takes.
var soloCases = []soloCase{
	{"work-after-call", func(c *sched.Ctx) {
		c.Call("m", nil, "wac.main:1", func() { c.Work(8, "wac.m:2") })
	}, 0},
	{"work-after-new", func(c *sched.Ctx) {
		c.New("Object", "wan.main:1")
		c.Work(8, "wan.main:2")
	}, 0},
	{"work-after-return", func(c *sched.Ctx) {
		c.Call("m", nil, "war.main:1", func() {})
		c.Work(8, "war.main:2")
	}, 0},
	{"single-steps", func(c *sched.Ctx) {
		c.New("Object", "ss.main:1")
		c.Step("ss.main:2")
		c.Step("ss.main:3")
	}, 0},
	// Whichever of main's New and the worker's first step goes first,
	// main then blocks joining the worker, which works on alone after
	// main's grant: one forced Next, then Solo.
	{"work-after-cross-grant", func(c *sched.Ctx) {
		w := c.Spawn("worker", nil, "wacg.main:1", func(c *sched.Ctx) { c.Work(64, "wacg.worker:2") })
		c.New("Object", "wacg.main:3")
		c.Join(w, "wacg.main:4")
	}, 1},
}

// forcedNexts is the random policy, counting the forced decisions it is
// asked to take with Next.
type forcedNexts struct {
	sched.RandomPolicy
	n int
}

func (p *forcedNexts) Next(s *sched.Scheduler, enabled []event.TID) event.TID {
	if len(enabled) == 1 && s.PendingRef(enabled[0]).Kind == event.KindStep {
		p.n++
	}
	return p.RandomPolicy.Next(s, enabled)
}

// TestSoloFromFirstDecision pins which forced decisions reach Solo
// without a Next call first: those after a state-neutral grant to the
// same thread, and not those after a grant to another thread.
func TestSoloFromFirstDecision(t *testing.T) {
	for _, c := range soloCases {
		for seed := int64(0); seed < 8; seed++ {
			p := &forcedNexts{}
			sched.New(sched.Options{Seed: seed, Policy: p}).Run(c.prog)
			if p.n != c.forcedNext {
				t.Errorf("%s seed %d: %d forced decisions taken by Next, want %d", c.name, seed, p.n, c.forcedNext)
			}
		}
	}
}

// soloPresets are the generator presets FuzzSoloGrant draws from.
var soloPresets = []func() gen.Config{gen.Small, gen.Medium, gen.Large, gen.Blocking}

// FuzzSoloGrant generates a program from the fuzz bytes — a preset, a
// generator seed, a scheduler seed and a step limit — and holds every
// SoloPolicy, and ReplayPolicy on the random policy's schedule, to its
// per-step self. A preset byte of 0x80 or more picks a soloCase (or
// soloThenRace after a generator-seed-long forced run) instead of a
// generated program.
func FuzzSoloGrant(f *testing.F) {
	input := func(preset byte, genSeed, schedSeed int64, maxSteps uint32) []byte {
		b := []byte{preset}
		b = binary.LittleEndian.AppendUint64(b, uint64(genSeed))
		b = binary.LittleEndian.AppendUint64(b, uint64(schedSeed))
		return binary.LittleEndian.AppendUint32(b, maxSteps)
	}
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(input(byte(seed), seed, seed, uint32(37*seed)))
		f.Add(input(byte(seed), seed, seed, 50_001))
	}
	for i := range len(soloCases) + 1 {
		f.Add(input(0x80+byte(i), 3000, int64(i), 7))
		f.Add(input(0x80+byte(i), 3000, int64(i), 1500))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 21 {
			return
		}
		genSeed := int64(binary.LittleEndian.Uint64(data[1:]))
		schedSeed := int64(binary.LittleEndian.Uint64(data[9:]))
		maxSteps := 1 + int(binary.LittleEndian.Uint32(data[17:])%100_000)
		var name string
		var prog func(*sched.Ctx)
		if data[0] < 0x80 {
			cfg := soloPresets[int(data[0])%len(soloPresets)]()
			name = fmt.Sprintf("%s seed %d", cfg.Preset, genSeed)
			prog = genBody(t, genSeed, cfg)
		} else if i := int(data[0]-0x80) % (len(soloCases) + 1); i < len(soloCases) {
			name, prog = soloCases[i].name, soloCases[i].prog
		} else {
			n := 1 + int(uint64(genSeed)%10_000)
			name, prog = fmt.Sprintf("solo-then-race(%d)", n), soloThenRace(n)
		}
		if d := checkSolo(t, prog, soloPolicies(findCycles(prog)), schedSeed, maxSteps); d != "" {
			t.Fatalf("%s, sched seed %d, max-steps %d: %s", name, schedSeed, maxSteps, d)
		}
	})
}
