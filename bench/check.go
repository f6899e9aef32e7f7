package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"strings"

	"dlfuzz"
	"dlfuzz/internal/campaign"
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/obs"
	"dlfuzz/internal/report"
)

// verdict is everything deterministic a check produces. Two checks of
// the same program with the same options yield equal verdicts; any
// difference from the reference pass counts the check as failed.
type verdict struct {
	// cycles are the canonical keys of the candidates Phase II targeted,
	// falsePositives the number the happens-before filter removed.
	cycles         []string
	falsePositives int
	// totals are the MultiReport totals: executions, deadlocked,
	// unmatched, thrashes, yields, steps.
	totals [6]int
	// confirmed counts confirmed cycles. found holds the canonical keys
	// of the distinct real deadlocks the check found, confirmed by Phase
	// II or hit by a Phase I observation attempt, sorted.
	confirmed int
	found     []string
	// witnessHash digests every encoded and rendered witness, in report
	// order; witnessBytes is the total encoded size.
	witnessHash  uint64
	witnessBytes int
	// blocking is the FindBlocking summary without its examples.
	blocking blockingTotals
	// execs counts scheduled executions: observation attempts, Phase II
	// executions and blocking runs.
	execs int
}

// blockingTotals are the deterministic fields of a blocking report.
type blockingTotals struct {
	Runs, CompletedRuns, DeadlockRuns, StepLimitRuns int
	BlockedRuns, PartialRuns, TotalRuns, Steps       int
	Verdicts                                         string
}

// findings is the verdict's contribution to a pass's findings count:
// distinct real deadlocks plus distinct blocking verdicts.
func (v *verdict) findings() int {
	return len(v.found) + strings.Count(v.blocking.Verdicts, "\n")
}

// fuzzerConfig lowers confirm options to the checker config witness
// capture needs, as dlfuzz -witness-dir does.
func fuzzerConfig(o dlfuzz.ConfirmOptions) fuzzer.Config {
	return fuzzer.Config{Abstraction: o.Abstraction, K: o.K, UseContext: o.UseContext, YieldOpt: o.YieldOpt}
}

// programBody parses a CLF check afresh (which also compiles it on the
// first Body call) or returns the Go-coded body.
func programBody(s *spec) (func(*dlfuzz.Ctx), error) {
	if s.src == "" {
		return s.body, nil
	}
	p, err := dlfuzz.ParseCLF(strings.TrimPrefix(s.ref, "clf:"), s.src)
	if err != nil {
		return nil, err
	}
	return p.Body(), nil
}

// runCheck runs one untraced check through the public entry points:
// parse and compile, Phase I, Phase II, witness capture for every
// confirmed cycle, then witness encode and render into a digest. When
// keep is set the witnesses are returned for the post-run replay.
func runCheck(s *spec, keep bool) (*verdict, []*obs.Witness, error) {
	body, err := programBody(s)
	if err != nil {
		return nil, nil, err
	}
	if s.blocking {
		return blockingVerdict(dlfuzz.FindBlocking(body, s.block)), nil, nil
	}
	find, err := dlfuzz.Find(body, s.find)
	if err != nil && !errors.Is(err, dlfuzz.ErrNoCompletedRun) {
		return nil, nil, err
	}
	v := &verdict{execs: find.Attempts}
	if err != nil || len(find.Cycles) == 0 {
		v.found = foundKeys(find.ObservedDeadlocks, nil, s.confirm)
		return v, nil, nil
	}
	v.cycles = cycleKeys(find.Cycles)
	v.falsePositives = len(find.FalsePositives)
	copts := s.confirm
	copts.Ranks = find.Ranks()
	multi := dlfuzz.ConfirmAll(body, find.Cycles, copts)
	v.totals = [6]int{multi.Executions, multi.Deadlocked, multi.Unmatched, multi.Thrashes, multi.Yields, multi.Steps}
	v.execs += multi.Executions
	sums := make([]*campaign.CycleSummary, len(multi.Reports))
	for i, rep := range multi.Reports {
		sums[i] = &rep.CycleSummary
	}
	wits, err := v.witness(body, s, find.Cycles, sums, find.ObservedDeadlocks, keep, nil)
	return v, wits, err
}

// witness captures, encodes and renders a witness for every confirmed
// cycle, in report order, and records the confirmed count, the found
// deadlocks and the witness digest on v. t, when non-nil, records a span
// per capture and per render.
func (v *verdict) witness(body func(*dlfuzz.Ctx), s *spec, cycles []*dlfuzz.Cycle, sums []*campaign.CycleSummary, observed []*dlfuzz.DeadlockInfo, keep bool, t *tracer) ([]*obs.Witness, error) {
	cfg := fuzzerConfig(s.confirm)
	digest := fnv.New64a()
	var confirmed []*dlfuzz.Cycle
	var wits []*obs.Witness
	for i, sum := range sums {
		if !sum.Confirmed() {
			continue
		}
		v.confirmed++
		confirmed = append(confirmed, cycles[i])
		target, seed := i, sum.ExampleSeed
		if sum.Example == nil {
			target, seed = sum.CrossExampleTarget, sum.CrossExampleSeed
		}
		t.begin("obs.capture")
		wit, err := obs.Capture(body, s.ref, cycles[target], target, cfg, seed, s.confirm.MaxSteps)
		t.end()
		if err != nil {
			return nil, fmt.Errorf("witness for cycle %d: %w", i+1, err)
		}
		t.begin("report.render")
		n, err := renderWitness(digest, wit)
		t.end()
		if err != nil {
			return nil, err
		}
		v.witnessBytes += n
		if keep {
			wits = append(wits, wit)
		}
	}
	v.witnessHash = digest.Sum64()
	v.found = foundKeys(observed, confirmed, s.confirm)
	return wits, nil
}

// renderWitness encodes and renders a witness into w, the artifacts a
// user of dlfuzz -witness-dir and dlfuzz replay sees, and returns the
// encoded size.
func renderWitness(w io.Writer, wit *obs.Witness) (int, error) {
	cw := &countingWriter{w: w}
	if err := wit.Encode(cw); err != nil {
		return 0, err
	}
	report.WriteWitness(w, wit)
	return cw.n, nil
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	return n, err
}

func cycleKeys(cycles []*dlfuzz.Cycle) []string {
	out := make([]string, len(cycles))
	for i, c := range cycles {
		out[i] = c.Key()
	}
	return out
}

// foundKeys returns the distinct canonical keys of the observed
// deadlocks and confirmed cycles, sorted: a deadlock both observed and
// confirmed is one finding.
func foundKeys(observed []*dlfuzz.DeadlockInfo, confirmed []*dlfuzz.Cycle, o dlfuzz.ConfirmOptions) []string {
	cfg := fuzzerConfig(o)
	var out []string
	for _, dl := range observed {
		out = append(out, fuzzer.DeadlockKey(dl, cfg))
	}
	for _, c := range confirmed {
		out = append(out, fuzzer.CycleKey(c, cfg))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func blockingVerdict(rep *dlfuzz.BlockingReport) *verdict {
	var keys strings.Builder
	for _, v := range rep.Verdicts {
		fmt.Fprintf(&keys, "%s partial=%t runs=%d first=%d\n", v.Key, v.Partial, v.Runs, v.FirstSeed)
	}
	return &verdict{
		execs: rep.Runs,
		blocking: blockingTotals{
			rep.Runs, rep.CompletedRuns, rep.DeadlockRuns, rep.StepLimitRuns,
			rep.BlockedRuns, rep.PartialRuns, rep.TotalRuns, rep.Steps, keys.String(),
		},
	}
}
