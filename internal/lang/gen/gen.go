// Package gen generates seeded random CLF programs: the
// scenario-diversity engine behind the corpus under testdata/corpus and
// the Phase I saturation rows EXPERIMENTS.md records (pinned by
// cmd/dlfuzz's tests).
//
// The fixed workload models exhaust their lock dependency relation in a
// single observation run, so multi-seed Phase I campaigns have nothing
// new to discover on them. Generated programs fix that by construction:
// every program mixes nested and conditional acquires, lock acquisition
// order permutations, factory-allocated locks (abstraction aliasing),
// data-dependent lock choice through shared registry fields, and deep
// call stacks through helper function chains. Branches conditioned on a
// racy shared counter and locks rebound through registry fields make
// the *observed* lock orders schedule-dependent, which is exactly what
// keeps `newCyclesByRun` nonzero past the first run.
//
// Generation is fully deterministic: Generate(seed, cfg) is a pure
// function — the same seed and config produce byte-identical source.
// Programs are runtime-error free by construction (every variable and
// registry field is defined before use, loops are counter-bounded, the
// helper call graph is acyclic) so an execution always ends in
// Completed or — the interesting case — Deadlock, never in a runaway
// step-limit hit. The classic presets (small, medium, large) never
// stall either; the blocking preset adds channel and WaitGroup
// operations whose counts need not balance, so its runs may also end
// in a Stall carrying a Result.Blocked partial/total-deadlock
// classification (still never a runtime error: close is never emitted
// and WaitGroup counters cannot go negative).
//
// The emitted layout is load-bearing for internal/corpus's minimizer:
// exactly one statement per line, block headers end in "{", every "}"
// stands alone on its line, and there are no else branches, so any
// statement's span is recoverable from the text by brace counting and
// deleting a statement can blank its lines without renumbering the
// rest. Statement labels are file:line, so blank-hole deletion is what
// keeps canonical cycle keys stable under minimization.
package gen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Config budgets one generated program. The zero value is not useful;
// start from a preset (Small, Medium, Large) and adjust.
type Config struct {
	// Preset names the configuration in corpus manifests and benchmark
	// rows; it is informational only.
	Preset string
	// Threads is the number of worker threads main spawns and joins.
	Threads int
	// Locks is the number of distinct global lock objects; FactoryLocks
	// of them are allocated through a one-line factory function, so
	// allocation-site abstractions alias them.
	Locks        int
	FactoryLocks int
	// Slots is the number of registry lock fields (reg.f0..): shared
	// cells workers rebind and sync on, making lock identity
	// data-dependent and schedule-dependent. 0 disables the mechanism.
	Slots int
	// Helpers is the number of helper functions; helper i may call only
	// helpers j > i, so call chains are deep but acyclic.
	Helpers int
	// MaxSyncDepth bounds lock-nesting depth along one path;
	// MaxBlockDepth bounds overall block nesting (sync/if/while).
	MaxSyncDepth  int
	MaxBlockDepth int
	// MaxStmts bounds the statements drawn per block; MaxWork the
	// amount of one work() statement.
	MaxStmts int
	MaxWork  int
	// Loops enables counter-bounded while loops.
	Loops bool
	// Chans is the number of shared channels main allocates and
	// publishes through registry fields (reg.ch0..). Odd-numbered
	// channels get buffer capacity ChanCap; even-numbered ones are
	// unbuffered rendezvous channels. Workers send and receive on them
	// at random, so send/recv counts rarely balance and runs can end in
	// a Stall with a Result.Blocked classification. `close` is never
	// emitted, so channel misuse errors are impossible by construction.
	// The zero value disables channel emission entirely, which is what
	// keeps the classic presets byte-identical.
	Chans   int
	ChanCap int
	// WGs is the number of shared WaitGroups (reg.wg0..). Main adds
	// Threads to each counter before the first spawn; each worker emits
	// at most one wgdone per group, outside loops, so the counter can
	// never go negative — but a wgdone guarded by a racy branch can be
	// skipped, leaving main's wgwait stuck. 0 disables WaitGroups.
	WGs int
}

// Small returns the smallest useful preset: two threads over two locks.
func Small() Config {
	return Config{
		Preset: "small", Threads: 2, Locks: 2, FactoryLocks: 1, Slots: 1,
		Helpers: 1, MaxSyncDepth: 2, MaxBlockDepth: 3, MaxStmts: 3, MaxWork: 8,
	}
}

// Medium returns the default preset used for the committed corpus.
func Medium() Config {
	return Config{
		Preset: "medium", Threads: 3, Locks: 4, FactoryLocks: 2, Slots: 2,
		Helpers: 2, MaxSyncDepth: 3, MaxBlockDepth: 4, MaxStmts: 4, MaxWork: 12,
		Loops: true,
	}
}

// Large returns the stress preset: five threads over six locks with
// deeper nesting.
func Large() Config {
	return Config{
		Preset: "large", Threads: 5, Locks: 6, FactoryLocks: 3, Slots: 3,
		Helpers: 4, MaxSyncDepth: 4, MaxBlockDepth: 5, MaxStmts: 5, MaxWork: 16,
		Loops: true,
	}
}

// Blocking returns the blocking-operation preset: channels and a
// WaitGroup layered over a small lock mix. Unlike the classic presets,
// its programs may also end in a Stall (see Config.Chans).
func Blocking() Config {
	return Config{
		Preset: "blocking", Threads: 3, Locks: 2, FactoryLocks: 1, Slots: 1,
		Helpers: 1, MaxSyncDepth: 2, MaxBlockDepth: 4, MaxStmts: 4, MaxWork: 10,
		Chans: 2, ChanCap: 1, WGs: 1,
	}
}

// ByPreset resolves a preset name.
func ByPreset(name string) (Config, bool) {
	switch name {
	case "small":
		return Small(), true
	case "medium":
		return Medium(), true
	case "large":
		return Large(), true
	case "blocking":
		return Blocking(), true
	}
	return Config{}, false
}

// FileName is the canonical file name for a generated program. Cycle
// keys embed statement labels (file:line), so everything that re-runs
// Phase I on a generated program — harvest, validation, CI — must parse
// it under this same name for the keys to line up.
func FileName(seed int64) string {
	return fmt.Sprintf("gen-%06d.clf", seed)
}

// Generate returns the CLF source of the seeded random program:
// byte-identical for equal (seed, cfg).
func Generate(seed int64, cfg Config) string {
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Locks < 2 {
		cfg.Locks = 2
	}
	if cfg.FactoryLocks > cfg.Locks {
		cfg.FactoryLocks = cfg.Locks
	}
	if cfg.MaxSyncDepth < 1 {
		cfg.MaxSyncDepth = 1
	}
	if cfg.MaxBlockDepth < cfg.MaxSyncDepth {
		cfg.MaxBlockDepth = cfg.MaxSyncDepth
	}
	if cfg.MaxStmts < 1 {
		cfg.MaxStmts = 1
	}
	if cfg.MaxWork < 1 {
		cfg.MaxWork = 1
	}
	g := &generator{rng: rand.New(rand.NewSource(seed)), cfg: cfg}
	g.program(seed)
	return g.w.String()
}

// writer emits indented source one line at a time.
type writer struct {
	b      strings.Builder
	indent int
}

func (w *writer) linef(format string, args ...any) {
	for i := 0; i < w.indent; i++ {
		w.b.WriteString("    ")
	}
	fmt.Fprintf(&w.b, format, args...)
	w.b.WriteByte('\n')
}

// open emits a block header ("header {") and indents; close dedents and
// emits the lone "}". The one-statement-per-line shape they enforce is
// what the corpus minimizer's brace matching relies on.
func (w *writer) open(header string) {
	w.linef("%s {", header)
	w.indent++
}

func (w *writer) close() {
	w.indent--
	w.linef("}")
}

func (w *writer) blank()         { w.b.WriteByte('\n') }
func (w *writer) String() string { return w.b.String() }

// generator holds the deterministic random stream and the output.
type generator struct {
	rng *rand.Rand
	cfg Config
	w   writer
}

// fnScope is the per-function generation state.
type fnScope struct {
	// locks are the expressions currently usable as lock operands:
	// parameters, data-dependent locals, and registry fields.
	locks []string
	// minHelper is the lowest helper index this function may call
	// (its own index + 1 for helpers, 0 for workers); stmts counts
	// emitted statements against the per-function budget.
	minHelper int
	stmts     int
	nextLocal int
	loops     int
}

// perFnBudget bounds the statements one function body draws, so bodies
// stay small enough to read and fast enough to execute by the thousand.
func (g *generator) perFnBudget() int { return g.cfg.MaxStmts * 6 }

// program emits the whole compilation unit.
func (g *generator) program(seed int64) {
	g.w.linef("// generated by dlgen: seed=%d preset=%s", seed, g.cfg.Preset)
	g.w.linef("// threads=%d locks=%d(+%d factory) slots=%d helpers=%d",
		g.cfg.Threads, g.cfg.Locks, g.cfg.FactoryLocks, g.cfg.Slots, g.cfg.Helpers)
	g.w.blank()
	if g.cfg.FactoryLocks > 0 {
		g.w.open("fn mkLock()")
		g.w.linef("return new Object;")
		g.w.close()
		g.w.blank()
	}
	for i := 0; i < g.cfg.Helpers; i++ {
		g.helper(i)
		g.w.blank()
	}
	for i := 0; i < g.cfg.Threads; i++ {
		g.worker(i)
		g.w.blank()
	}
	g.main()
}

// slotExprs returns the registry field expressions usable as locks.
func (g *generator) slotExprs() []string {
	out := make([]string, g.cfg.Slots)
	for i := range out {
		out[i] = fmt.Sprintf("reg.f%d", i)
	}
	return out
}

// helper emits helper function i: a forced nested-sync spine over its
// two lock parameters (deep acquire contexts are the point of helpers)
// followed by random statements that may call higher-numbered helpers.
func (g *generator) helper(i int) {
	g.w.open(fmt.Sprintf("fn h%d(a, b, reg, n)", i))
	sc := &fnScope{
		locks:     append([]string{"a", "b"}, g.slotExprs()...),
		minHelper: i + 1,
	}
	if g.rng.Intn(2) == 0 {
		g.work()
	}
	g.syncSpine(sc, []string{"a", "b"}[:1+g.rng.Intn(2)])
	if g.rng.Intn(2) == 0 {
		g.stmtRun(sc, 0, 0)
	}
	g.w.close()
}

// worker emits worker function i: an optional delay, a forced nested
// sync chain over a random permutation of its lock parameters (the
// deadlock ingredient), then random statements.
func (g *generator) worker(i int) {
	params := g.workerLockParams()
	g.w.open(fmt.Sprintf("fn w%d(%s, reg, n)", i, strings.Join(params, ", ")))
	sc := &fnScope{locks: append(append([]string{}, params...), g.slotExprs()...)}
	if g.rng.Intn(2) == 0 {
		g.work()
	}
	chain := g.sample(params, 2+g.rng.Intn(len(params)-1))
	if len(chain) > g.cfg.MaxSyncDepth {
		chain = chain[:g.cfg.MaxSyncDepth]
	}
	g.syncSpine(sc, chain)
	if g.rng.Intn(3) > 0 {
		g.stmtRun(sc, 0, 0)
	}
	// Each worker ends with at most one wgdone per group, always at the
	// top level (never inside a loop), so a group's counter can never go
	// negative: main adds Threads and at most Threads dones run. A done
	// that is skipped or guarded by a racy branch is what leaves main's
	// wgwait stuck.
	for j := 0; j < g.cfg.WGs; j++ {
		switch g.rng.Intn(4) {
		case 0:
			// Skipped: this worker deterministically leaks the group.
		case 1:
			g.w.open(fmt.Sprintf("if %s", g.cond()))
			g.w.linef("wgdone reg.wg%d;", j)
			g.w.close()
		default:
			g.w.linef("wgdone reg.wg%d;", j)
		}
	}
	g.w.close()
}

// workerLockParams names the worker lock parameters: three when the
// program has at least three locks, two otherwise.
func (g *generator) workerLockParams() []string {
	if g.cfg.Locks >= 3 {
		return []string{"a", "b", "c"}
	}
	return []string{"a", "b"}
}

// syncSpine emits a guaranteed nested acquire chain over the given lock
// expressions, with small random filler between levels. Every worker
// and helper has one, so every generated program contributes lock
// dependencies with nonempty locksets.
func (g *generator) syncSpine(sc *fnScope, chain []string) {
	nLocks := len(sc.locks)
	for depth, l := range chain {
		g.w.open(fmt.Sprintf("sync (%s)", l))
		sc.stmts++
		if g.rng.Intn(2) == 0 {
			g.stmt(sc, depth+1, depth+1)
		}
	}
	for range chain {
		g.w.close()
	}
	// Locals declared inside the spine go out of scope with it.
	sc.locks = sc.locks[:nLocks]
}

// sample returns k distinct elements of xs in random order.
func (g *generator) sample(xs []string, k int) []string {
	if k > len(xs) {
		k = len(xs)
	}
	perm := g.rng.Perm(len(xs))
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = xs[perm[i]]
	}
	return out
}

// stmtRun emits 1..MaxStmts random statements.
func (g *generator) stmtRun(sc *fnScope, syncDepth, blockDepth int) {
	n := 1 + g.rng.Intn(g.cfg.MaxStmts)
	for i := 0; i < n && sc.stmts < g.perFnBudget(); i++ {
		g.stmt(sc, syncDepth, blockDepth)
	}
}

// cond returns a random branch condition. Conditions over n (the
// thread index) vary per thread but not per schedule; conditions over
// reg.c (the racy shared counter) vary per schedule — they are what
// makes repeated observation runs keep discovering new lock orders.
func (g *generator) cond() string {
	conds := []string{
		"n % 2 == 0",
		"n % 2 == 1",
		"n > 1",
		"reg.c % 2 == 0",
		"reg.c % 2 == 1",
		"reg.c % 3 == 1",
		"reg.c > 2",
	}
	return conds[g.rng.Intn(len(conds))]
}

func (g *generator) work() {
	g.w.linef("work(%d);", 1+g.rng.Intn(g.cfg.MaxWork))
}

// stmt emits one random statement. All choices keep the program
// runtime-error free and terminating: loops are counter-bounded with an
// unconditional trailing increment, helper calls go strictly up the
// helper index, and every referenced registry field is initialized in
// main before any worker starts.
func (g *generator) stmt(sc *fnScope, syncDepth, blockDepth int) {
	sc.stmts++
	type choice struct {
		weight int
		emit   func()
	}
	var choices []choice
	add := func(w int, f func()) { choices = append(choices, choice{w, f}) }

	add(3, g.work)
	add(2, func() { g.w.linef("reg.c = reg.c + 1;") })
	if syncDepth < g.cfg.MaxSyncDepth && blockDepth < g.cfg.MaxBlockDepth {
		add(6, func() {
			g.w.open(fmt.Sprintf("sync (%s)", sc.locks[g.rng.Intn(len(sc.locks))]))
			nLocks := len(sc.locks)
			if g.rng.Intn(3) > 0 {
				g.stmtRun(sc, syncDepth+1, blockDepth+1)
			}
			g.w.close()
			sc.locks = sc.locks[:nLocks]
		})
	}
	if blockDepth < g.cfg.MaxBlockDepth {
		add(3, func() {
			g.w.open(fmt.Sprintf("if %s", g.cond()))
			nLocks := len(sc.locks)
			g.stmtRun(sc, syncDepth, blockDepth+1)
			g.w.close()
			sc.locks = sc.locks[:nLocks]
		})
	}
	if g.cfg.Slots > 0 {
		add(2, func() {
			g.w.linef("reg.f%d = %s;", g.rng.Intn(g.cfg.Slots),
				sc.locks[g.rng.Intn(len(sc.locks))])
		})
	}
	if g.cfg.Chans > 0 {
		// Channel operations may block forever; that is the point of the
		// blocking preset. close is never emitted, so no channel misuse
		// error is reachable.
		add(2, func() {
			ch := g.rng.Intn(g.cfg.Chans)
			if g.rng.Intn(2) == 0 {
				g.w.linef("send reg.ch%d, %d;", ch, g.rng.Intn(100))
			} else {
				g.w.linef("send reg.ch%d;", ch)
			}
		})
		add(2, func() {
			v := fmt.Sprintf("v%d", sc.nextLocal)
			sc.nextLocal++
			g.w.linef("var %s = recv reg.ch%d;", v, g.rng.Intn(g.cfg.Chans))
		})
	}
	if sc.minHelper < g.cfg.Helpers {
		add(3, func() {
			h := sc.minHelper + g.rng.Intn(g.cfg.Helpers-sc.minHelper)
			two := g.sample(sc.locks, 2)
			if len(two) < 2 {
				two = append(two, two[0])
			}
			g.w.linef("h%d(%s, %s, reg, n + 1);", h, two[0], two[1])
		})
	}
	if len(sc.locks) >= 2 && blockDepth < g.cfg.MaxBlockDepth {
		add(2, func() {
			two := g.sample(sc.locks, 2)
			x := fmt.Sprintf("x%d", sc.nextLocal)
			sc.nextLocal++
			g.w.linef("var %s = %s;", x, two[0])
			g.w.open(fmt.Sprintf("if %s", g.cond()))
			g.w.linef("%s = %s;", x, two[1])
			g.w.close()
			sc.locks = append(sc.locks, x)
		})
	}
	if g.cfg.Loops && sc.loops == 0 && blockDepth+1 < g.cfg.MaxBlockDepth {
		add(1, func() {
			sc.loops++
			i := fmt.Sprintf("i%d", sc.nextLocal)
			sc.nextLocal++
			g.w.linef("var %s = 0;", i)
			g.w.open(fmt.Sprintf("while %s < %d", i, 2+g.rng.Intn(2)))
			nLocks := len(sc.locks)
			g.stmtRun(sc, syncDepth, blockDepth+1)
			sc.locks = sc.locks[:nLocks]
			// The increment is always the loop body's last statement and
			// is never emitted anywhere else; the corpus minimizer
			// recognizes and preserves these lines so every surviving
			// loop still terminates.
			g.w.linef("%s = %s + 1;", i, i)
			g.w.close()
		})
	}

	total := 0
	for _, c := range choices {
		total += c.weight
	}
	pick := g.rng.Intn(total)
	for _, c := range choices {
		if pick < c.weight {
			c.emit()
			return
		}
		pick -= c.weight
	}
}

// main emits the entry point: registry and lock allocation, field
// initialization (every reg field any worker can touch is set here,
// before the first spawn), then spawn/join of every worker with a
// random ordered selection of locks.
func (g *generator) main() {
	g.w.open("fn main()")
	g.w.linef("var reg = new Object;")
	g.w.linef("reg.c = 0;")
	direct := g.cfg.Locks - g.cfg.FactoryLocks
	lockVars := make([]string, g.cfg.Locks)
	for i := 0; i < g.cfg.Locks; i++ {
		lockVars[i] = fmt.Sprintf("l%d", i)
		if i < direct {
			g.w.linef("var l%d = new Object;", i)
		} else {
			g.w.linef("var l%d = mkLock();", i)
		}
	}
	for i := 0; i < g.cfg.Slots; i++ {
		g.w.linef("reg.f%d = %s;", i, lockVars[g.rng.Intn(len(lockVars))])
	}
	for i := 0; i < g.cfg.Chans; i++ {
		if i%2 == 1 && g.cfg.ChanCap > 0 {
			g.w.linef("reg.ch%d = newchan(%d);", i, g.cfg.ChanCap)
		} else {
			g.w.linef("reg.ch%d = newchan;", i)
		}
	}
	for i := 0; i < g.cfg.WGs; i++ {
		g.w.linef("reg.wg%d = newwg;", i)
		g.w.linef("wgadd reg.wg%d, %d;", i, g.cfg.Threads)
	}
	nParams := len(g.workerLockParams())
	for i := 0; i < g.cfg.Threads; i++ {
		args := g.sample(lockVars, nParams)
		for len(args) < nParams {
			args = append(args, args[0])
		}
		g.w.linef("var t%d = spawn w%d(%s, reg, %d);", i, i, strings.Join(args, ", "), i)
	}
	for i := 0; i < g.cfg.WGs; i++ {
		g.w.linef("wgwait reg.wg%d;", i)
	}
	for i := 0; i < g.cfg.Threads; i++ {
		g.w.linef("join t%d;", i)
	}
	g.w.close()
}
