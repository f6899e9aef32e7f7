package main

import (
	"bufio"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"dlfuzz/internal/obs"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOptions configure one measured run.
type runOptions struct {
	root string
	seed int64
	// seconds is the least time the timed loop runs, in whole passes.
	seconds float64
	// minBeyond is how many of the checks the timings are taken from
	// (the faster two thirds of each program's) must lie beyond their
	// p99 latency; the timed loop runs on until they do.
	minBeyond int
	// setups is how many times set-up runs; setup_s is their median.
	setups int
}

// program is one check of a pass: its spec, the reference verdict of
// the warm-up pass, and why it failed, if it did.
type program struct {
	spec      *spec
	ref       *verdict
	witnesses []*obs.Witness
	failure   string
	// checks counts the program's checks after set-up.
	checks int
}

func (p *program) fail(format string, args ...any) {
	if p.failure == "" {
		p.failure = fmt.Sprintf(format, args...)
	}
}

// verify counts one check of p and fails p if the check erred or its
// verdict differs from the reference.
func (p *program) verify(v *verdict, err error, pass int) {
	p.checks++
	switch {
	case err != nil:
		p.fail("pass %d: %v", pass+1, err)
	case !reflect.DeepEqual(v, p.ref):
		p.fail("pass %d verdict differs from the warm-up pass", pass+1)
	}
}

// tally counts the checks made and failed: a failing program fails
// every one of its checks.
func tally(progs []*program) (attempted, failed int, failures []string) {
	for _, p := range progs {
		attempted += p.checks
		if p.failure != "" {
			failures = append(failures, p.spec.name+": "+p.failure)
			failed += p.checks
		}
	}
	return attempted, failed, failures
}

// setUp loads the workload and runs the untimed warm-up pass, whose
// verdicts are the reference every later check must repeat, and checks
// them against the programs' known answers. It is timed from start.
func setUp(w workload, o runOptions, start time.Time) ([]*program, time.Duration, error) {
	specs, err := w.load(o.root, o.seed)
	if err != nil {
		return nil, 0, err
	}
	progs := make([]*program, len(specs))
	for i, s := range specs {
		p := &program{spec: s}
		progs[i] = p
		v, wits, err := runCheck(s, true)
		if err != nil {
			p.fail("warm-up: %v", err)
			continue
		}
		p.ref, p.witnesses = v, wits
		if s.expect != nil {
			if err := s.expect(v); err != nil {
				p.fail("%v", err)
			}
		}
	}
	return progs, time.Since(start), nil
}

// measure runs o.setups set-ups and then the timed closed loop, and
// returns every end-to-end metric and the timed loop's slowdown over the
// reference host. The first set-up is timed from process start.
func measure(w workload, o runOptions, processStart time.Time) (*result, float64, []string, error) {
	var progs []*program
	var setups []float64
	var setupCalibs []calibration
	for i := range max(o.setups, 1) {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		next, took, err := setUp(w, o, start)
		if err != nil {
			return nil, 0, nil, err
		}
		setups = append(setups, took.Seconds())
		setupCalibs = append(setupCalibs, calibrate())
		if progs == nil {
			progs = next
			continue
		}
		for j, p := range next {
			if !reflect.DeepEqual(p.ref, progs[j].ref) {
				progs[j].fail("set-up %d verdict differs from set-up 1", i+1)
			}
		}
	}

	// lat[i] holds program i's check latencies in ms, one per pass; a
	// calibration follows each pass.
	lat := make([][]float64, len(progs))
	var calibs []calibration
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	passes := 0
	for ; passes == 0 || time.Since(start).Seconds() < o.seconds || !tailReady(len(progs)*fastShare(passes), o.minBeyond); passes++ {
		for i, p := range progs {
			t0 := time.Now()
			v, _, err := runCheck(p.spec, false)
			lat[i] = append(lat[i], float64(time.Since(t0).Nanoseconds())/1e6)
			p.verify(v, err, passes)
		}
		calibs = append(calibs, calibrate())
	}
	runtime.ReadMemStats(&after)

	// Replays run after the timed loop: every reference witness must
	// re-form its deadlock.
	for _, p := range progs {
		replayWitnesses(p)
	}
	attempted, failed, failures := tally(progs)
	findings, execs := 0, 0
	for _, p := range progs {
		if p.ref != nil {
			findings += p.ref.findings()
			execs += p.ref.execs
		}
	}

	// Timings come from the faster two thirds of each program's checks.
	// All checks of a program do the same work, so its slower third
	// differs only by the time a busy host added, and dropping it drops
	// no work. The latency percentiles are taken over the checks kept;
	// a pass takes the sum of each program's median kept latency, so the
	// rates are per pass at that time. Selecting by program rather than
	// by pass keeps a host stall inside one check of a fast pass out of
	// the tail (see README.md, Load shape). All timings are then divided
	// by the host's slowdown, set-up time by the slowdown measured
	// during set-up: a process can start in a slow phase and leave it
	// before the timed loop.
	slow := slowdown(calibs)
	var kept []float64
	passMs := 0.0
	for _, l := range lat {
		slices.Sort(l)
		fast := l[:fastShare(len(l))]
		kept = append(kept, fast...)
		passMs += median(fast)
	}
	slices.Sort(kept)
	p50, _ := nearestRank(kept, 50)
	p99, err := tailPercentile(kept, 99, o.minBeyond)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("check_ms_p99: %w", err)
	}
	pass := passMs / 1000 / slow
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, 0, nil, err
	}
	return &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":            {median(setups) / slowdown(setupCalibs), "s"},
			"checks_per_s":       {float64(len(progs)) / pass, "1/s"},
			"check_ms_p50":       {p50 / slow, "ms"},
			"check_ms_p99":       {p99 / slow, "ms"},
			"execs_per_s":        {float64(execs) / pass, "1/s"},
			"alloc_kb_per_check": {float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(passes*len(progs)), "KiB"},
			"rss_peak_mb":        {rss, "MiB"},
			"findings":           {float64(findings), "count"},
		},
	}, slow, failures, nil
}

// fastShare is how many of a program's n checks the timings are taken
// from: the faster two thirds, rounded up. Keeping the faster half
// steadied the tail no better over the same runs, and needs a quarter
// more checks for the p99: phase1-large, at about 25 ms a check, would
// outgrow the benchmark's time budget on a slow host.
func fastShare(n int) int { return (2*n + 2) / 3 }

// replayWitnesses replays a program's reference witnesses on a freshly
// parsed body and fails the program if any deadlock does not re-form.
func replayWitnesses(p *program) {
	if len(p.witnesses) == 0 {
		return
	}
	body, err := programBody(p.spec)
	if err != nil {
		p.fail("%v", err)
		return
	}
	for i, wit := range p.witnesses {
		if _, err := obs.Replay(body, wit); err != nil {
			p.fail("witness %d: %v", i+1, err)
		}
	}
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
