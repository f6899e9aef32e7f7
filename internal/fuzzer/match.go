package fuzzer

import (
	"bytes"
	"slices"

	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/sched"
)

// DeadlockKey renders a confirmed deadlock as a canonical,
// rotation-independent key under cfg's abstraction: the sorted multiset
// of "abs(thread)/abs(lock)[/context]" triples joined by "~". Two
// deadlocks have equal keys iff MatchesCycle would consider them the
// same cycle; witness traces persist the key so a replay can assert it
// reproduced the identical deadlock.
func DeadlockKey(dl *sched.DeadlockInfo, cfg Config) string {
	var b keyBuilder
	return string(b.deadlock(dl, cfg, nil))
}

// CycleKey is DeadlockKey's counterpart for a potential cycle: the same
// canonical triple multiset, built from iGoodlock's component
// abstractions instead of a live deadlock's edges.
func CycleKey(cycle *igoodlock.Cycle, cfg Config) string {
	var b keyBuilder
	return string(b.cycle(cycle, cfg))
}

// keyBuilder renders canonical keys into reusable buffers: every
// triple is appended to buf back to back (ends holds the boundaries),
// parts holds the per-triple views for sorting, and key the joined
// result. A zero keyBuilder is ready to use.
type keyBuilder struct {
	buf   []byte
	ends  []int
	parts [][]byte
	key   []byte
}

// deadlock renders DeadlockKey(dl, cfg), abstracting through abs when
// it is non-nil. The returned bytes are valid until the next render.
func (b *keyBuilder) deadlock(dl *sched.DeadlockInfo, cfg Config, abs *absCache) []byte {
	b.buf, b.ends = b.buf[:0], b.ends[:0]
	if dl != nil {
		if cfg.K == 0 {
			cfg.K = 10
		}
		for _, e := range dl.Edges {
			b.buf = abs.appendOf(b.buf, cfg.Abstraction, e.ThreadObj, cfg.K)
			b.buf = append(b.buf, '/')
			b.buf = abs.appendOf(b.buf, cfg.Abstraction, e.Want, cfg.K)
			if cfg.UseContext {
				b.buf = append(b.buf, '/')
				b.buf = e.Context.AppendKey(b.buf)
			}
			b.ends = append(b.ends, len(b.buf))
		}
	}
	return b.join()
}

// cycle renders CycleKey(cycle, cfg). The returned bytes are valid
// until the next render.
func (b *keyBuilder) cycle(cycle *igoodlock.Cycle, cfg Config) []byte {
	b.buf, b.ends = b.buf[:0], b.ends[:0]
	for _, c := range cycle.Components {
		b.buf = append(b.buf, c.ThreadAbs...)
		b.buf = append(b.buf, '/')
		b.buf = append(b.buf, c.LockAbs...)
		if cfg.UseContext {
			b.buf = append(b.buf, '/')
			b.buf = c.Context.AppendKey(b.buf)
		}
		b.ends = append(b.ends, len(b.buf))
	}
	return b.join()
}

// join sorts the rendered triples and joins them with "~" into key.
// The sortable views are only taken here, once appends can no longer
// move buf.
func (b *keyBuilder) join() []byte {
	b.parts = b.parts[:0]
	start := 0
	for _, end := range b.ends {
		b.parts = append(b.parts, b.buf[start:end])
		start = end
	}
	// Byte order is sort.Strings' order, and equal triples are
	// interchangeable, so any sort reproduces the canonical key.
	slices.SortFunc(b.parts, bytes.Compare)
	b.key = b.key[:0]
	for i, p := range b.parts {
		if i > 0 {
			b.key = append(b.key, '~')
		}
		b.key = append(b.key, p...)
	}
	return b.key
}

// MatchesCycle reports whether a confirmed deadlock corresponds to the
// target potential cycle: the same multiset of (abs(thread), abs(lock),
// context) triples, independent of rotation. The paper uses this
// distinction in Section 5.2 — on the Maps benchmarks DeadlockFuzzer
// sometimes creates a real deadlock *different* from the cycle it was
// given, which counts as a deadlock found but not as a reproduction.
func MatchesCycle(dl *sched.DeadlockInfo, cycle *igoodlock.Cycle, cfg Config) bool {
	if dl == nil || len(dl.Edges) != len(cycle.Components) {
		return false
	}
	return DeadlockKey(dl, cfg) == CycleKey(cycle, cfg)
}

// RunResult is the outcome of one Phase II execution.
type RunResult struct {
	// Result is the scheduler's verdict.
	Result *sched.Result
	// Reproduced reports whether the confirmed deadlock matches the
	// target cycle (always false when no deadlock was confirmed).
	Reproduced bool
	// Stats are the policy's counters.
	Stats Stats
}

// Run executes prog once under the active random checker with the given
// target cycle, variant configuration and seed.
func Run(prog func(*sched.Ctx), cycle *igoodlock.Cycle, cfg Config, seed int64, maxSteps int) *RunResult {
	pol := New(cycle, cfg)
	s := sched.New(sched.Options{Seed: seed, Policy: pol, MaxSteps: maxSteps})
	res := s.Run(prog)
	return &RunResult{
		Result:     res,
		Reproduced: res.Outcome == sched.Deadlock && MatchesCycle(res.Deadlock, cycle, cfg),
		Stats:      pol.Stats(),
	}
}

// Runner amortizes Phase II state over many executions: one scheduler
// pool and one policy shell serve every seed, so a campaign worker
// allocates its checker state once instead of once per run. Results are
// byte-identical to the package-level Run. A Runner is not safe for
// concurrent use; give each campaign worker its own.
type Runner struct {
	pool *sched.Pool
	pol  *Policy

	// Cycle and deadlock keys are pure functions of their inputs, so the
	// Runner caches them: cycle keys per (cycle pointer, config) — the
	// same few candidates are matched every run of a campaign — and the
	// last deadlock's key, which a multi-cycle campaign compares against
	// every candidate.
	keys    map[*igoodlock.Cycle]string
	keysCfg Config
	lastDL  *sched.DeadlockInfo
	// abs interns abstraction keys across the campaign's deadlock-key
	// renders, and render builds them in reused buffers; repeat
	// thread/lock abstractions cost no allocations.
	abs    absCache
	render keyBuilder
}

// NewRunner returns a Runner with an empty pool.
func NewRunner() *Runner {
	return &Runner{pool: sched.NewPool(), pol: &Policy{}}
}

// Run is the pooled equivalent of the package-level Run.
func (r *Runner) Run(prog func(*sched.Ctx), cycle *igoodlock.Cycle, cfg Config, seed int64, maxSteps int) *RunResult {
	r.pol.Reset(cycle, cfg)
	res := r.pool.Run(sched.Options{Seed: seed, Policy: r.pol, MaxSteps: maxSteps}, prog)
	return &RunResult{
		Result:     res,
		Reproduced: res.Outcome == sched.Deadlock && r.MatchesCycle(res.Deadlock, cycle, cfg),
		Stats:      r.pol.Stats(),
	}
}

// MatchesCycle is the package-level MatchesCycle with the Runner's key
// caches: identical verdicts, but each cycle's key is rendered once per
// campaign and each deadlock's once per run.
func (r *Runner) MatchesCycle(dl *sched.DeadlockInfo, cycle *igoodlock.Cycle, cfg Config) bool {
	if dl == nil || len(dl.Edges) != len(cycle.Components) {
		return false
	}
	if cfg.K == 0 {
		cfg.K = 10
	}
	// string(b) == s compares without converting; the render stays in
	// the Runner's buffers.
	return string(r.deadlockKey(dl, cfg)) == r.cycleKey(cycle, cfg)
}

// cycleKey memoizes CycleKey per cycle pointer, flushing when the config
// changes (the key depends on UseContext).
func (r *Runner) cycleKey(cycle *igoodlock.Cycle, cfg Config) string {
	if r.keys == nil {
		r.keys = make(map[*igoodlock.Cycle]string)
		r.keysCfg = cfg
	} else if r.keysCfg != cfg {
		clear(r.keys)
		r.keysCfg = cfg
	}
	k, ok := r.keys[cycle]
	if !ok {
		k = CycleKey(cycle, cfg)
		r.keys[cycle] = k
	}
	return k
}

// deadlockKey memoizes the rendered key for the most recent deadlock,
// which covers the match-against-every-candidate loop of a multi-cycle
// campaign. lastDL retains the DeadlockInfo, so its address cannot be
// recycled while the cache entry lives. The returned bytes belong to
// the Runner and are valid until the next render.
func (r *Runner) deadlockKey(dl *sched.DeadlockInfo, cfg Config) []byte {
	if dl == r.lastDL && cfg == r.keysCfg {
		return r.render.key
	}
	r.lastDL = dl
	// Deadlocks come from distinct executions, so object pointers never
	// repeat meaningfully: drop the per-run object map, keep the intern
	// table.
	r.abs.reset()
	return r.render.deadlock(dl, cfg, &r.abs)
}
