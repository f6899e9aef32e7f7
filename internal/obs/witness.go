package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"dlfuzz/internal/event"
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/object"
	"dlfuzz/internal/sched"
	"dlfuzz/internal/trace"
)

// WitnessVersion identifies the witness JSONL format. Bump on any
// incompatible change to the line schemas below.
const WitnessVersion = 1

// WitnessConfig is the serialized form of the fuzzer.Config a witness
// was captured under. Replay needs it to recompute canonical deadlock
// keys with the same abstraction.
type WitnessConfig struct {
	Abstraction  string `json:"abstraction"`
	K            int    `json:"k"`
	UseContext   bool   `json:"useContext"`
	YieldOpt     bool   `json:"yieldOpt"`
	YieldBudget  int    `json:"yieldBudget,omitempty"`
	PauseTimeout int    `json:"pauseTimeout,omitempty"`
}

// witnessConfig serializes cfg.
func witnessConfig(cfg fuzzer.Config) WitnessConfig {
	return WitnessConfig{
		Abstraction:  cfg.Abstraction.String(),
		K:            cfg.K,
		UseContext:   cfg.UseContext,
		YieldOpt:     cfg.YieldOpt,
		YieldBudget:  cfg.YieldBudget,
		PauseTimeout: cfg.PauseTimeout,
	}
}

// FuzzerConfig decodes the serialized configuration, rejecting values
// no capture could have recorded.
func (wc WitnessConfig) FuzzerConfig() (fuzzer.Config, error) {
	abs, ok := object.AbstractionByName(wc.Abstraction)
	if !ok {
		return fuzzer.Config{}, fmt.Errorf("obs: unknown abstraction %q", wc.Abstraction)
	}
	if wc.K < 0 {
		return fuzzer.Config{}, fmt.Errorf("obs: negative abstraction depth k=%d", wc.K)
	}
	return fuzzer.Config{
		Abstraction:  abs,
		K:            wc.K,
		UseContext:   wc.UseContext,
		YieldOpt:     wc.YieldOpt,
		YieldBudget:  wc.YieldBudget,
		PauseTimeout: wc.PauseTimeout,
	}, nil
}

// WitnessComponent is one component of the targeted potential cycle, in
// the abstract (thread, lock, context) form iGoodlock reported it.
type WitnessComponent struct {
	Index   int      `json:"i"`
	Thread  string   `json:"thread"`
	Lock    string   `json:"lock"`
	Context []string `json:"context,omitempty"`
}

// SchedPoint is one active-checker steering decision: kind is "pause",
// "thrash", "yield" or "evict".
type SchedPoint struct {
	Kind   string `json:"kind"`
	Thread int    `json:"thread"`
	Step   int    `json:"step"`
	Loc    string `json:"loc,omitempty"`
}

// WitnessEvent is one synchronization event of the recorded execution
// (acquire/release/wait/notify/await/signal/spawn/join/exit). Pure
// computation events (calls, returns, allocations, steps) are elided to
// keep witnesses compact; the schedule line preserves the complete
// decision sequence regardless.
type WitnessEvent struct {
	Seq    uint64 `json:"seq"`
	Kind   string `json:"kind"`
	Thread int    `json:"thread"`
	Loc    string `json:"loc,omitempty"`
	Obj    string `json:"obj,omitempty"`
	Target int    `json:"target"`
}

// WitnessEdge is one thread's position in the confirmed deadlock cycle.
type WitnessEdge struct {
	Thread  int      `json:"thread"`
	Want    string   `json:"want"`
	WantLoc string   `json:"wantLoc"`
	Held    []string `json:"held"`
	Context []string `json:"context"`
}

// Witness is a complete, self-contained record of one deadlock-
// confirming execution. Program is a resolvable name in "workload:NAME"
// or "clf:PATH" form; SchedSeed, MaxSteps and Config pin down the
// execution; Schedule is the full decision sequence; CycleKey and
// DeadlockKey are the canonical keys (fuzzer.CycleKey/DeadlockKey) of
// the targeted cycle and the confirmed deadlock.
type Witness struct {
	Program     string
	SchedSeed   int64
	Target      int
	MaxSteps    int
	Config      WitnessConfig
	CycleKey    string
	DeadlockKey string

	Components   []WitnessComponent
	Schedule     []int
	Points       []SchedPoint
	Events       []WitnessEvent
	DeadlockStep int
	Edges        []WitnessEdge
}

// Reproduced reports whether the witnessed deadlock is the targeted
// cycle (as opposed to a cross-matched or novel deadlock reached while
// biasing toward it).
func (w *Witness) Reproduced() bool { return w.DeadlockKey == w.CycleKey }

// Cycle reconstructs the targeted cycle in igoodlock form, suitable for
// fuzzer.MatchesCycle against a replayed deadlock.
func (w *Witness) Cycle() *igoodlock.Cycle {
	c := &igoodlock.Cycle{}
	for _, comp := range w.Components {
		ctx := make(event.Context, len(comp.Context))
		for i, l := range comp.Context {
			ctx[i] = event.Loc(l)
		}
		c.Components = append(c.Components, igoodlock.Component{
			ThreadAbs: object.Key(comp.Thread),
			LockAbs:   object.Key(comp.Lock),
			Context:   ctx,
		})
	}
	return c
}

// The witness JSONL line kinds, tagged by K.
type witnessHeader struct {
	K           string        `json:"k"`
	V           int           `json:"v"`
	Program     string        `json:"program"`
	SchedSeed   int64         `json:"schedSeed"`
	Target      int           `json:"target"`
	MaxSteps    int           `json:"maxSteps"`
	Config      WitnessConfig `json:"config"`
	CycleKey    string        `json:"cycleKey"`
	DeadlockKey string        `json:"deadlockKey"`
}

type witnessComponentLine struct {
	K string `json:"k"`
	WitnessComponent
}

type witnessScheduleLine struct {
	K     string `json:"k"`
	Order []int  `json:"order"`
}

type witnessPointLine struct {
	K string `json:"k"`
	SchedPoint
}

type witnessEventLine struct {
	K string `json:"k"`
	WitnessEvent
}

type witnessDeadlockLine struct {
	K     string        `json:"k"`
	Step  int           `json:"step"`
	Key   string        `json:"key"`
	Edges []WitnessEdge `json:"edges"`
}

// Encode writes the witness as versioned JSONL: one header, the cycle
// components, the schedule, the steering points, the sync events, and a
// deadlock trailer. The output is byte-deterministic for a given
// witness.
func (w *Witness) Encode(out io.Writer) error {
	bw := bufio.NewWriter(out)
	enc := json.NewEncoder(bw)
	write := func(line any) error { return enc.Encode(line) }
	if err := write(witnessHeader{
		K: "witness", V: WitnessVersion,
		Program: w.Program, SchedSeed: w.SchedSeed, Target: w.Target,
		MaxSteps: w.MaxSteps, Config: w.Config,
		CycleKey: w.CycleKey, DeadlockKey: w.DeadlockKey,
	}); err != nil {
		return err
	}
	for _, c := range w.Components {
		if err := write(witnessComponentLine{K: "component", WitnessComponent: c}); err != nil {
			return err
		}
	}
	if err := write(witnessScheduleLine{K: "schedule", Order: w.Schedule}); err != nil {
		return err
	}
	for _, p := range w.Points {
		if err := write(witnessPointLine{K: "point", SchedPoint: p}); err != nil {
			return err
		}
	}
	for _, ev := range w.Events {
		if err := write(witnessEventLine{K: "ev", WitnessEvent: ev}); err != nil {
			return err
		}
	}
	if err := write(witnessDeadlockLine{K: "deadlock", Step: w.DeadlockStep, Key: w.DeadlockKey, Edges: w.Edges}); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadWitness decodes a witness written by Encode. The deadlock trailer
// is required; its key must agree with the header, and the header's
// checker configuration must decode (see WitnessConfig.FuzzerConfig).
func ReadWitness(r io.Reader) (*Witness, error) {
	dec := json.NewDecoder(r)
	var hdr witnessHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("obs: witness header: %w", err)
	}
	if hdr.K != "witness" {
		return nil, fmt.Errorf("obs: not a witness trace (first line %q)", hdr.K)
	}
	if hdr.V != WitnessVersion {
		return nil, fmt.Errorf("obs: witness version %d, want %d", hdr.V, WitnessVersion)
	}
	if _, err := hdr.Config.FuzzerConfig(); err != nil {
		return nil, err
	}
	w := &Witness{
		Program: hdr.Program, SchedSeed: hdr.SchedSeed, Target: hdr.Target,
		MaxSteps: hdr.MaxSteps, Config: hdr.Config,
		CycleKey: hdr.CycleKey, DeadlockKey: hdr.DeadlockKey,
	}
	sawSchedule, sawDeadlock := false, false
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("obs: witness line: %w", err)
		}
		var tag struct {
			K string `json:"k"`
		}
		if err := json.Unmarshal(raw, &tag); err != nil {
			return nil, fmt.Errorf("obs: witness line: %w", err)
		}
		switch tag.K {
		case "component":
			var line witnessComponentLine
			if err := json.Unmarshal(raw, &line); err != nil {
				return nil, fmt.Errorf("obs: component line: %w", err)
			}
			w.Components = append(w.Components, line.WitnessComponent)
		case "schedule":
			var line witnessScheduleLine
			if err := json.Unmarshal(raw, &line); err != nil {
				return nil, fmt.Errorf("obs: schedule line: %w", err)
			}
			w.Schedule = line.Order
			sawSchedule = true
		case "point":
			var line witnessPointLine
			if err := json.Unmarshal(raw, &line); err != nil {
				return nil, fmt.Errorf("obs: point line: %w", err)
			}
			w.Points = append(w.Points, line.SchedPoint)
		case "ev":
			var line witnessEventLine
			if err := json.Unmarshal(raw, &line); err != nil {
				return nil, fmt.Errorf("obs: ev line: %w", err)
			}
			w.Events = append(w.Events, line.WitnessEvent)
		case "deadlock":
			var line witnessDeadlockLine
			if err := json.Unmarshal(raw, &line); err != nil {
				return nil, fmt.Errorf("obs: deadlock line: %w", err)
			}
			if line.Key != w.DeadlockKey {
				return nil, fmt.Errorf("obs: deadlock trailer key %q disagrees with header %q", line.Key, w.DeadlockKey)
			}
			w.DeadlockStep = line.Step
			w.Edges = line.Edges
			sawDeadlock = true
		default:
			return nil, fmt.Errorf("obs: unknown witness line kind %q", tag.K)
		}
	}
	if !sawSchedule || !sawDeadlock {
		return nil, fmt.Errorf("obs: witness is missing its schedule or deadlock trailer (truncated?)")
	}
	return w, nil
}

// recorder implements fuzzer.Hooks and sched.Observer for one capture.
type recorder struct {
	points []SchedPoint
	events []WitnessEvent
}

func (r *recorder) OnPause(t event.TID, step int, loc event.Loc) {
	r.points = append(r.points, SchedPoint{Kind: "pause", Thread: int(t), Step: step, Loc: string(loc)})
}

func (r *recorder) OnThrash(victim event.TID, step int) {
	r.points = append(r.points, SchedPoint{Kind: "thrash", Thread: int(victim), Step: step})
}

func (r *recorder) OnYield(t event.TID, step int, loc event.Loc) {
	r.points = append(r.points, SchedPoint{Kind: "yield", Thread: int(t), Step: step, Loc: string(loc)})
}

func (r *recorder) OnEvict(t event.TID, step int) {
	r.points = append(r.points, SchedPoint{Kind: "evict", Thread: int(t), Step: step})
}

func (r *recorder) OnEvent(ev sched.Ev) {
	switch ev.Kind {
	case event.KindCall, event.KindReturn, event.KindNew, event.KindStep, event.KindYield:
		return
	}
	we := WitnessEvent{
		Seq:    ev.Seq,
		Kind:   ev.Kind.String(),
		Thread: int(ev.Thread),
		Loc:    string(ev.Loc),
		Target: int(ev.Target),
	}
	if ev.Obj != nil {
		we.Obj = ev.Obj.String()
	}
	r.events = append(r.events, we)
}

// Capture re-executes a known deadlock-confirming (cycle, scheduler
// seed) pair under the active checker with a recording policy and
// returns the witness. program is the resolvable name stored in the
// header ("workload:NAME" or "clf:PATH"); target the cycle's index in
// its report. Because an execution is a pure function of (program,
// policy, seed) and observers never influence decisions, the captured
// run is identical to the campaign run that first confirmed the
// deadlock. Capture fails if the run does not end in a deadlock.
func Capture(prog func(*sched.Ctx), program string, cycle *igoodlock.Cycle, target int, cfg fuzzer.Config, schedSeed int64, maxSteps int) (*Witness, error) {
	rec := &recorder{}
	pol := fuzzer.New(cycle, cfg)
	pol.SetHooks(rec)
	recording := trace.NewRecording(pol)
	s := sched.New(sched.Options{
		Seed:      schedSeed,
		MaxSteps:  maxSteps,
		Policy:    recording,
		Observers: []sched.Observer{rec},
	})
	res := s.Run(prog)
	if res.Outcome != sched.Deadlock {
		return nil, fmt.Errorf("obs: capture run ended in %s, not deadlock (program %s, seed %d)", res.Outcome, program, schedSeed)
	}
	w := &Witness{
		Program:      program,
		SchedSeed:    schedSeed,
		Target:       target,
		MaxSteps:     maxSteps,
		Config:       witnessConfig(cfg),
		CycleKey:     fuzzer.CycleKey(cycle, cfg),
		DeadlockKey:  fuzzer.DeadlockKey(res.Deadlock, cfg),
		Points:       rec.points,
		Events:       rec.events,
		DeadlockStep: res.Deadlock.Step,
	}
	for i, comp := range cycle.Components {
		wc := WitnessComponent{Index: i, Thread: string(comp.ThreadAbs), Lock: string(comp.LockAbs)}
		for _, l := range comp.Context {
			wc.Context = append(wc.Context, string(l))
		}
		w.Components = append(w.Components, wc)
	}
	for _, t := range recording.Schedule() {
		w.Schedule = append(w.Schedule, int(t))
	}
	for _, e := range res.Deadlock.Edges {
		we := WitnessEdge{
			Thread:  int(e.Thread),
			Want:    e.Want.String(),
			WantLoc: string(e.WantLoc),
		}
		for _, h := range e.Held {
			we.Held = append(we.Held, h.String())
		}
		for _, l := range e.Context {
			we.Context = append(we.Context, string(l))
		}
		w.Edges = append(w.Edges, we)
	}
	return w, nil
}

// ReplayReport describes a successful replay.
type ReplayReport struct {
	// Result is the replayed execution's verdict (Outcome == Deadlock).
	Result *sched.Result
	// DeadlockKey is the canonical key of the replayed deadlock; it
	// equals the witness's DeadlockKey.
	DeadlockKey string
	// Reproduced reports whether the deadlock is the witness's targeted
	// cycle (mirrors Witness.Reproduced).
	Reproduced bool
}

// Replay drives prog through the witness's recorded schedule and
// asserts the recorded deadlock re-forms: the run must end in a
// deadlock, without leaving the schedule, and the confirmed cycle's
// canonical key must equal the recorded one. Any other outcome is an
// error describing the divergence.
func Replay(prog func(*sched.Ctx), w *Witness) (*ReplayReport, error) {
	cfg, err := w.Config.FuzzerConfig()
	if err != nil {
		return nil, err
	}
	schedule := make(trace.Schedule, len(w.Schedule))
	for i, t := range w.Schedule {
		schedule[i] = event.TID(t)
	}
	rp := trace.NewReplay(schedule)
	s := sched.New(sched.Options{Seed: w.SchedSeed, MaxSteps: w.MaxSteps, Policy: rp})
	res := s.Run(prog)
	if rp.Diverged() {
		return nil, fmt.Errorf("obs: replay diverged from the recorded schedule after %d steps (program changed?)", res.Steps)
	}
	if res.Outcome != sched.Deadlock {
		return nil, fmt.Errorf("obs: replay ended in %s, want deadlock", res.Outcome)
	}
	key := fuzzer.DeadlockKey(res.Deadlock, cfg)
	if key != w.DeadlockKey {
		return nil, fmt.Errorf("obs: replay confirmed a different deadlock:\n  got  %s\n  want %s", key, w.DeadlockKey)
	}
	return &ReplayReport{
		Result:      res,
		DeadlockKey: key,
		Reproduced:  fuzzer.MatchesCycle(res.Deadlock, w.Cycle(), cfg),
	}, nil
}
