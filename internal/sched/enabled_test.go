package sched_test

// The scheduler keeps its enabled set across state-neutral grants and
// settles only the granted thread's membership when it posts again.
// These tests hold the kept set to a full rescan — every alive thread
// asked Enabled — before every decision and in the state a stalled run
// ends in.

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dlfuzz/internal/event"
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/lang"
	"dlfuzz/internal/lang/gen"
	"dlfuzz/internal/sched"
	"dlfuzz/internal/workloads"
)

// rescan returns the enabled set by asking every alive thread.
func rescan(s *sched.Scheduler) []event.TID {
	var out []event.TID
	for _, t := range s.AliveTIDs() {
		if s.Enabled(t) {
			out = append(out, t)
		}
	}
	return out
}

// rescanCheck wraps a SoloPolicy and records the first decision whose
// enabled set differs from a rescan: for Next the set it is handed, for
// Solo the set {t} a forced run stands for.
type rescanCheck struct {
	inner sched.SoloPolicy
	diff  string
}

func (p *rescanCheck) note(s *sched.Scheduler, kept []event.TID) {
	if p.diff != "" {
		return
	}
	if want := rescan(s); !slices.Equal(kept, want) {
		p.diff = fmt.Sprintf("step %d: kept %v, rescan %v", s.Steps(), kept, want)
	}
}

func (p *rescanCheck) Next(s *sched.Scheduler, enabled []event.TID) event.TID {
	p.note(s, enabled)
	return p.inner.Next(s, enabled)
}

func (p *rescanCheck) Solo(s *sched.Scheduler, t event.TID, n int) int {
	p.note(s, []event.TID{t})
	if p.diff == "" && s.Pending(t).Kind != event.KindStep {
		p.diff = fmt.Sprintf("step %d: Solo offered %s's %s", s.Steps(), t, s.Pending(t).Kind)
	}
	return p.inner.Solo(s, t, n)
}

// checkKeptEnabled runs prog under the random and the blocking policy
// at seed, holding the kept enabled set to a rescan, and describes the
// first difference, or returns "". A stalled run must also end with no
// thread enabled: a kept set that lost a member ends the run early
// without another decision to compare at.
func checkKeptEnabled(prog func(*sched.Ctx), seed int64, maxSteps int) string {
	for _, pol := range []sched.SoloPolicy{sched.RandomPolicy{}, fuzzer.BlockingPolicy{P: 0.7}} {
		p := &rescanCheck{inner: pol}
		s := sched.NewShell()
		var left []event.TID
		out := s.RunThen(sched.Options{Seed: seed, MaxSteps: maxSteps, Policy: p}, prog, func() {
			left = rescan(s)
		})
		if p.diff != "" {
			return fmt.Sprintf("%T: %s", pol, p.diff)
		}
		if out == sched.Stall && len(left) > 0 {
			return fmt.Sprintf("%T: stalled with %v enabled", pol, left)
		}
	}
	return ""
}

// neutralThenWake has a thread whose previous grant was state-neutral
// post requests that enable another thread — a receive that meets a
// blocked unbuffered sender, then its exit, which a joiner waits on —
// while a bystander works, so that a kept set missing the woken thread
// is seen at the next decision and not only at a stall.
func neutralThenWake(c *sched.Ctx) {
	ch := c.NewChan(0, "ntw.main:1")
	c.Spawn("bystander", nil, "ntw.main:2", func(c *sched.Ctx) { c.Work(20, "ntw.bystander:3") })
	r := c.Spawn("receiver", nil, "ntw.main:4", func(c *sched.Ctx) {
		c.New("Object", "ntw.receiver:5")
		c.Recv(ch, "ntw.receiver:6")
		c.New("Object", "ntw.receiver:7")
	})
	c.Send(ch, 1, "ntw.main:8")
	c.Join(r, "ntw.main:9")
}

// rescanInput is one program of TestEnabledMatchesRescan.
type rescanInput struct {
	name string
	prog func(*sched.Ctx)
}

// rescanInputs are neutralThenWake, the Table 1 and blocking
// workloads, the testdata CLF programs (the channel ones included), the
// committed corpus and the generated blocking programs of seeds 1-8.
func rescanInputs(t *testing.T) []rescanInput {
	ins := []rescanInput{{"go/neutral-then-wake", neutralThenWake}}
	for _, w := range append(workloads.All(), workloads.Blocking()...) {
		ins = append(ins, rescanInput{"workload/" + w.Name, w.Prog})
	}
	for _, pattern := range []string{"*.clf", "corpus/gen-*.clf"} {
		files, err := filepath.Glob(filepath.Join("../../testdata", pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			ins = append(ins, rescanInput{"clf/" + filepath.Base(file), compileCLF(t, file, string(src))})
		}
	}
	for seed := int64(1); seed <= 8; seed++ {
		name := gen.FileName(seed)
		ins = append(ins, rescanInput{"gen-blocking/" + name, compileCLF(t, name, gen.Generate(seed, gen.Blocking()))})
	}
	if len(ins) < 40 {
		t.Fatalf("only %d programs", len(ins))
	}
	return ins
}

// compileCLF compiles a CLF program for the VM.
func compileCLF(t testing.TB, file, src string) func(*sched.Ctx) {
	prog, err := lang.Parse(file, src)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return lang.NewInterp(prog, io.Discard).Main()
}

// TestEnabledMatchesRescan holds the kept enabled set to a full rescan
// before every decision of every input, at several seeds and at a step
// limit that cuts runs off.
func TestEnabledMatchesRescan(t *testing.T) {
	for _, in := range rescanInputs(t) {
		t.Run(in.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 4; seed++ {
				for _, maxSteps := range []int{97, 50_000} {
					if d := checkKeptEnabled(in.prog, seed, maxSteps); d != "" {
						t.Fatalf("seed %d max-steps %d: %s", seed, maxSteps, d)
					}
				}
			}
		})
	}
}

// rescanPresets are the generator presets FuzzEnabledMatchesRescan
// draws from.
var rescanPresets = []func() gen.Config{gen.Small, gen.Medium, gen.Large, gen.Blocking}

// FuzzEnabledMatchesRescan generates a program from the fuzz bytes — a
// preset, a generator seed, a scheduler seed and a step limit — and
// holds the kept enabled set to a full rescan on it.
func FuzzEnabledMatchesRescan(f *testing.F) {
	input := func(preset byte, genSeed, schedSeed int64, maxSteps uint32) []byte {
		b := []byte{preset}
		b = binary.LittleEndian.AppendUint64(b, uint64(genSeed))
		b = binary.LittleEndian.AppendUint64(b, uint64(schedSeed))
		return binary.LittleEndian.AppendUint32(b, maxSteps)
	}
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(input(byte(seed), seed, seed, uint32(41*seed)))
		f.Add(input(byte(seed), seed, seed, 50_000))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 21 {
			return
		}
		cfg := rescanPresets[int(data[0])%len(rescanPresets)]()
		genSeed := int64(binary.LittleEndian.Uint64(data[1:]))
		schedSeed := int64(binary.LittleEndian.Uint64(data[9:]))
		maxSteps := 1 + int(binary.LittleEndian.Uint32(data[17:])%100_000)
		name := gen.FileName(genSeed)
		prog := compileCLF(t, name, gen.Generate(genSeed, cfg))
		if d := checkKeptEnabled(prog, schedSeed, maxSteps); d != "" {
			t.Fatalf("%s %s, sched seed %d, max-steps %d: %s", cfg.Preset, name, schedSeed, maxSteps, d)
		}
	})
}
