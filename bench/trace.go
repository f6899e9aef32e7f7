package main

import (
	"errors"
	"slices"
	"time"

	"dlfuzz"
	"dlfuzz/internal/analysis"
	"dlfuzz/internal/campaign"
	"dlfuzz/internal/hb"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/obs"
	"dlfuzz/internal/predict"
)

// span is one timed layer call of a traced check. Start and End are
// nanoseconds since the trace began; Parent indexes the enclosing span
// (-1 for a check's root) and Check numbers the check.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Check  int    `json:"check"`
}

// tracer keeps the spans of a traced run in memory. A nil tracer
// records nothing, so code shared with the untraced check calls it
// unconditionally.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
	checks int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	} else {
		t.checks++
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.origin).Nanoseconds(), Parent: parent, Check: t.checks})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = time.Since(t.origin).Nanoseconds()
}

// selfTimes returns, per span name, the number of spans and the total
// self time in nanoseconds: each span's duration minus its children's.
func selfTimes(spans []span) map[string]*spanTotal {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]*spanTotal{}
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanTotal{}
			out[s.Name] = st
		}
		st.count++
		st.selfNs += self[i]
	}
	return out
}

type spanTotal struct {
	count  int
	selfNs int64
}

// meanSelf is the mean self time of the named spans in the given unit
// (a number of nanoseconds), or 0 when no such span ran.
func meanSelf(totals map[string]*spanTotal, name string, unit float64) float64 {
	st := totals[name]
	if st == nil || st.count == 0 {
		return 0
	}
	return float64(st.selfNs) / float64(st.count) / unit
}

// layerStats are the counts a traced pass records at the layer
// boundaries, so ratios are taken where the work happens.
type layerStats struct {
	mutexChecks int
	// Phase I observation campaigns.
	attempts, completed int
	events              uint64
	rawDeps, deps       int
	// Prediction and the happens-before filter.
	candidates, falsePositives, cycles, confirmed int
	// Phase II executions, from the campaign's OnRun records.
	execWallUs                          []float64
	steps, thrashes, yields, reproduced int
	deadlocked, unmatched               int
	// The encoded size of the witnesses, one per confirmed cycle.
	witnessBytes int
	// Blocking campaigns.
	blockRuns, blocked, stepLimit int
	// cases are the checks of the first traced pass, kept for the
	// untimed replays behind the observer and policy costs.
	cases []*replayCase
}

// replayCase is what the post-pass replays need of one traced check.
type replayCase struct {
	prog    *program
	body    func(*dlfuzz.Ctx)
	perRun  []analysis.RunStats
	cycles  []*igoodlock.Cycle
	records []*obs.RunRecord
}

// tracedCheck is runCheck decomposed into the layer calls dlfuzz.Find
// and dlfuzz.ConfirmAll make, each in its own span, with the campaign's
// per-execution records collected through OnRun. Its verdict must equal
// runCheck's; trace_test.go pins that. keep retains the check as a
// replay case.
func tracedCheck(p *program, t *tracer, ls *layerStats, keep bool) (*verdict, error) {
	s := p.spec
	t.begin("check")
	defer t.end()
	if s.src != "" {
		t.begin("lang.frontend")
	}
	body, err := programBody(s)
	if s.src != "" {
		t.end()
	}
	if err != nil {
		return nil, err
	}
	if s.blocking {
		t.begin("blocking.campaign")
		rep := dlfuzz.FindBlocking(body, s.block)
		t.end()
		ls.blockRuns += rep.Runs
		ls.blocked += rep.BlockedRuns
		ls.stepLimit += rep.StepLimitRuns
		return blockingVerdict(rep), nil
	}

	ls.mutexChecks++
	finder, err := predict.ByName(s.find.Finder)
	if err != nil {
		return nil, err
	}
	cfg := predict.Config{Abstraction: s.find.Abstraction, K: s.find.K, MaxLen: s.find.MaxCycleLen}
	t.begin("analysis.observe")
	co, pobs, err := analysis.ObserveRelation(body, cfg, analysis.CampaignOptions{
		Runs: s.find.Runs, Parallelism: 1, ClosureParallelism: 1,
		Seed: s.find.Seed, MaxSteps: s.find.MaxSteps, Finder: finder,
	})
	t.end()
	if err != nil && !errors.Is(err, analysis.ErrNoCompletedRun) {
		return nil, err
	}
	ls.attempts += co.Attempts
	ls.completed += co.Completed
	ls.events += co.Events
	ls.rawDeps += co.RawDeps
	ls.deps += co.Deps
	rc := &replayCase{prog: p, body: body, perRun: co.PerRun}
	if keep {
		ls.cases = append(ls.cases, rc)
	}
	v := &verdict{execs: co.Attempts}
	if err != nil {
		v.found = foundKeys(co.ObservedDeadlocks, nil, s.confirm)
		return v, nil
	}

	merged := cfg
	merged.Parallelism = 1
	t.begin("predict.find")
	cands := finder.Find(pobs, merged)
	t.end()
	t.begin("hb.filter")
	var kept []*predict.Candidate
	var cycles []*igoodlock.Cycle
	for _, c := range cands {
		if !hb.ProvablyFalse(c.Cycle) {
			kept = append(kept, c)
			cycles = append(cycles, c.Cycle)
		}
	}
	t.end()
	ls.candidates += len(cands)
	ls.falsePositives += len(cands) - len(kept)
	ls.cycles += len(cycles)
	if len(cycles) == 0 {
		v.found = foundKeys(co.ObservedDeadlocks, nil, s.confirm)
		return v, nil
	}

	v.cycles = cycleKeys(cycles)
	v.falsePositives = len(cands) - len(kept)
	runs := s.confirm.Runs
	if runs == 0 {
		runs = 100
	}
	var recs []*obs.RunRecord
	t.begin("campaign.confirm")
	sum := campaign.ConfirmCycles(body, cycles, fuzzerConfig(s.confirm), runs, s.confirm.MaxSteps, campaign.Options{
		Parallelism: 1,
		OnRun:       func(r *obs.RunRecord) { recs = append(recs, r) },
		Ranks:       predict.Ranks(kept),
	})
	t.end()
	v.totals = [6]int{sum.Executions, sum.Deadlocked, sum.Unmatched, sum.Thrashes, sum.Yields, sum.Steps}
	v.execs += sum.Executions
	ls.deadlocked += sum.Deadlocked
	ls.unmatched += sum.Unmatched
	for _, r := range recs {
		ls.execWallUs = append(ls.execWallUs, float64(r.WallNs)/1e3)
		ls.steps += r.Steps
		ls.thrashes += r.Thrashes
		ls.yields += r.Yields
		if r.Reproduced {
			ls.reproduced++
		}
	}
	rc.cycles, rc.records = cycles, recs

	sums := make([]*campaign.CycleSummary, len(sum.Cycles))
	for i := range sum.Cycles {
		sums[i] = &sum.Cycles[i]
	}
	if _, err := v.witness(body, s, cycles, sums, co.ObservedDeadlocks, false, t); err != nil {
		return nil, err
	}
	ls.confirmed += v.confirmed
	ls.witnessBytes += v.witnessBytes
	return v, nil
}

// traceRun is the traced run: after set-up it alternates an untraced
// and a traced pass for o.seconds (at least one pair), then runs the
// untimed replays and the layer probes, and reports every per-layer
// metric. The spans are returned for writing out at exit.
func traceRun(w workload, o runOptions) (*result, []span, []string, error) {
	progs, _, err := setUp(w, o, time.Now())
	if err != nil {
		return nil, nil, nil, err
	}
	t := newTracer()
	ls := &layerStats{}
	var plain, traced []float64
	var calibs []calibration
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start).Seconds() < o.seconds; pass++ {
		t0 := time.Now()
		for _, p := range progs {
			v, _, err := runCheck(p.spec, false)
			p.verify(v, err, pass)
		}
		plain = append(plain, time.Since(t0).Seconds())
		t0 = time.Now()
		for _, p := range progs {
			v, err := tracedCheck(p, t, ls, pass == 0)
			p.verify(v, err, pass)
		}
		traced = append(traced, time.Since(t0).Seconds())
		calibs = append(calibs, calibrate())
	}

	for _, p := range progs {
		replayWitnesses(p)
	}
	pc := policyCost(ls.cases)
	oc := observerCost(ls.cases)
	probed, err := runProbes(o.root)
	if err != nil {
		return nil, nil, nil, err
	}
	attempted, failed, failures := tally(progs)
	m := layerMetrics(t.spans, ls, pc, oc)
	for name, v := range probed {
		m[name] = v
	}
	m["trace.overhead_pct"] = metric{(median(traced)/median(plain) - 1) * 100, "%"}
	m["host.slowdown"] = metric{slowdown(calibs), "ratio"}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, t.spans, failures, nil
}

// layerMetrics turns the traced passes' spans and counts and the replay
// costs into the per-layer metrics. A layer a workload does not reach
// reports 0, and so does a tail percentile with too few samples beyond
// it.
func layerMetrics(spans []span, ls *layerStats, pc policyCosts, oc observerCosts) map[string]metric {
	st := selfTimes(spans)
	execs := len(ls.execWallUs)
	var execUs float64
	for _, us := range ls.execWallUs {
		execUs += us
	}
	var execP50, execP99, selfFrac, stepsPerS float64
	if execs > 0 {
		stepsPerS = float64(ls.steps) / execUs * 1e6
		exec := slices.Clone(ls.execWallUs)
		slices.Sort(exec)
		execP50, _ = nearestRank(exec, 50)
		execP99, _ = tailPercentile(exec, 99, minTailSamples)
	}
	if c := st["campaign.confirm"]; c != nil && c.selfNs > 0 {
		selfFrac = 1 - execUs*1e3/float64(c.selfNs)
	}
	var blockingNs int64
	if b := st["blocking.campaign"]; b != nil {
		blockingNs = b.selfNs
	}
	return map[string]metric{
		"lang.frontend_us": {meanSelf(st, "lang.frontend", 1e3), "us"},

		"analysis.observe_ms":       {meanSelf(st, "analysis.observe", 1e6), "ms"},
		"analysis.completed_frac":   {ratio(ls.completed, ls.attempts), "ratio"},
		"analysis.events_per_check": {ratio(int(ls.events), ls.mutexChecks), "count"},

		"hb.ns_per_event":              {oc.hbNs, "ns"},
		"lockset.ns_per_event":         {oc.locksetNs, "ns"},
		"predict.history_ns_per_event": {oc.historyNs, "ns"},
		"lockset.merge_us":             {oc.mergeUs, "us"},
		"lockset.dedup_ratio":          {ratio(ls.rawDeps, ls.deps), "ratio"},

		"predict.find_ms":              {meanSelf(st, "predict.find", 1e6), "ms"},
		"predict.candidates_per_check": {ratio(ls.candidates, ls.mutexChecks), "count"},
		"predict.confirmed_frac":       {ratio(ls.confirmed, ls.cycles), "ratio"},
		"hb.filter_us":                 {meanSelf(st, "hb.filter", 1e3), "us"},
		"hb.false_positive_frac":       {ratio(ls.falsePositives, ls.candidates), "ratio"},

		"campaign.exec_us_p50":     {execP50, "us"},
		"campaign.exec_us_p99":     {execP99, "us"},
		"campaign.self_frac":       {selfFrac, "ratio"},
		"campaign.steps_per_s":     {stepsPerS, "1/s"},
		"campaign.execs_per_check": {ratio(execs, ls.mutexChecks), "count"},
		"campaign.reproduced_frac": {ratio(ls.reproduced, execs), "ratio"},
		"campaign.unmatched_frac":  {ratio(ls.unmatched, ls.deadlocked), "ratio"},

		"fuzzer.next_ns":            {pc.nsPerDecision, "ns"},
		"fuzzer.decisions_per_exec": {ratio(pc.decisions, pc.replays), "count"},
		"fuzzer.thrashes_per_exec":  {ratio(ls.thrashes, execs), "count"},
		"fuzzer.yields_per_exec":    {ratio(ls.yields, execs), "count"},

		"obs.capture_ms":   {meanSelf(st, "obs.capture", 1e6), "ms"},
		"obs.witness_kb":   {ratio(ls.witnessBytes, ls.confirmed) / 1024, "KiB"},
		"report.render_us": {meanSelf(st, "report.render", 1e3), "us"},

		"blocking.run_us":         {ratio(int(blockingNs), ls.blockRuns) / 1e3, "us"},
		"blocking.blocked_frac":   {ratio(ls.blocked, ls.blockRuns), "ratio"},
		"blocking.steplimit_frac": {ratio(ls.stepLimit, ls.blockRuns), "ratio"},
	}
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
