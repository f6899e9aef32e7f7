package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"

	"dlfuzz/internal/event"
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/object"
	"dlfuzz/internal/sched"
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

// Witness is a complete, self-contained record of one execution,
// usually a deadlock-confirming one (Capture). Program is a resolvable
// name in "workload:NAME" or "clf:PATH" form; SchedSeed, MaxSteps and
// Config pin down the execution; Schedule is the full decision
// sequence; CycleKey and DeadlockKey are the canonical keys
// (fuzzer.CycleKey/DeadlockKey) of the targeted cycle and the confirmed
// deadlock. An empty CycleKey means the run targeted no cycle; an empty
// DeadlockKey means the recorded run did not deadlock.
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
// biasing toward it). A run that did not deadlock reproduces nothing.
func (w *Witness) Reproduced() bool { return w.DeadlockKey != "" && w.DeadlockKey == w.CycleKey }

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
// witness, and byte-identical to encoding/json's rendering of the line
// structs above (see witnessEncoder).
func (w *Witness) Encode(out io.Writer) error {
	bp := encodeBufs.Get().(*[]byte)
	e := witnessEncoder{out: out, buf: (*bp)[:0]}
	e.header(w)
	for _, c := range w.Components {
		e.component(c)
	}
	e.line("schedule")
	e.name("order")
	e.ints(w.Schedule)
	e.end()
	for _, p := range w.Points {
		e.point(p)
	}
	for _, ev := range w.Events {
		e.event(ev)
	}
	e.deadlock(w)
	e.flush()
	if cap(e.buf) <= maxPooledEncodeBuf {
		*bp = e.buf
		encodeBufs.Put(bp)
	}
	return e.err
}

const (
	// encodeFlushSize is the buffered size at which Encode writes out
	// the lines it has appended so far.
	encodeFlushSize = 16 << 10
	// maxPooledEncodeBuf caps the buffers encodeBufs keeps: a witness
	// with one huge schedule line must not pin its buffer.
	maxPooledEncodeBuf = 64 << 10
)

// encodeBufs recycles Encode's line buffers. A fresh one has room for
// a flush's worth of lines plus the line that crosses the threshold.
var encodeBufs = sync.Pool{New: func() any {
	buf := make([]byte, 0, 2*encodeFlushSize)
	return &buf
}}

// witnessEncoder appends witness JSONL lines into buf, writing them out
// in chunks. Every line renders the fields of its line struct in
// declaration order, with the same omitempty and nil-slice (null)
// rules, so the bytes equal encoding/json's. Strings are copied
// verbatim when they need no escaping and go through json.Marshal
// otherwise (see appendString).
type witnessEncoder struct {
	out io.Writer
	buf []byte
	err error
}

// line opens a line tagged kind.
func (e *witnessEncoder) line(kind string) {
	e.buf = append(e.buf, `{"k":"`...)
	e.buf = append(e.buf, kind...)
	e.buf = append(e.buf, '"')
}

// end closes the current line and writes the buffer out once it has
// grown past encodeFlushSize.
func (e *witnessEncoder) end() {
	e.buf = append(e.buf, '}', '\n')
	if len(e.buf) >= encodeFlushSize {
		e.flush()
	}
}

// flush writes the buffered lines, keeping the first write error.
func (e *witnessEncoder) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.out.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// name appends the separator and key of the next field of an open
// object. Keys are fixed identifiers that need no escaping.
func (e *witnessEncoder) name(key string) {
	e.buf = append(e.buf, ',', '"')
	e.buf = append(e.buf, key...)
	e.buf = append(e.buf, '"', ':')
}

func (e *witnessEncoder) str(key, v string) {
	e.name(key)
	e.buf = appendString(e.buf, v)
}

// strOmit is str for an omitempty field.
func (e *witnessEncoder) strOmit(key, v string) {
	if v != "" {
		e.str(key, v)
	}
}

func (e *witnessEncoder) int(key string, v int64) {
	e.name(key)
	e.buf = strconv.AppendInt(e.buf, v, 10)
}

func (e *witnessEncoder) bool(key string, v bool) {
	e.name(key)
	e.buf = strconv.AppendBool(e.buf, v)
}

// ints appends an int array; nil renders as null, as encoding/json does.
func (e *witnessEncoder) ints(vs []int) {
	if vs == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.buf = append(e.buf, '[')
	for i, v := range vs {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = strconv.AppendInt(e.buf, int64(v), 10)
	}
	e.buf = append(e.buf, ']')
}

// strs appends a string array; nil renders as null.
func (e *witnessEncoder) strs(vs []string) {
	if vs == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.buf = append(e.buf, '[')
	for i, v := range vs {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = appendString(e.buf, v)
	}
	e.buf = append(e.buf, ']')
}

// header renders witnessHeader.
func (e *witnessEncoder) header(w *Witness) {
	e.line("witness")
	e.int("v", WitnessVersion)
	e.str("program", w.Program)
	e.int("schedSeed", w.SchedSeed)
	e.int("target", int64(w.Target))
	e.int("maxSteps", int64(w.MaxSteps))
	c := w.Config
	e.name("config")
	e.buf = append(e.buf, `{"abstraction":`...)
	e.buf = appendString(e.buf, c.Abstraction)
	e.int("k", int64(c.K))
	e.bool("useContext", c.UseContext)
	e.bool("yieldOpt", c.YieldOpt)
	if c.YieldBudget != 0 {
		e.int("yieldBudget", int64(c.YieldBudget))
	}
	if c.PauseTimeout != 0 {
		e.int("pauseTimeout", int64(c.PauseTimeout))
	}
	e.buf = append(e.buf, '}')
	e.str("cycleKey", w.CycleKey)
	e.str("deadlockKey", w.DeadlockKey)
	e.end()
}

// component renders witnessComponentLine.
func (e *witnessEncoder) component(c WitnessComponent) {
	e.line("component")
	e.int("i", int64(c.Index))
	e.str("thread", c.Thread)
	e.str("lock", c.Lock)
	if len(c.Context) > 0 {
		e.name("context")
		e.strs(c.Context)
	}
	e.end()
}

// point renders witnessPointLine.
func (e *witnessEncoder) point(p SchedPoint) {
	e.line("point")
	e.str("kind", p.Kind)
	e.int("thread", int64(p.Thread))
	e.int("step", int64(p.Step))
	e.strOmit("loc", p.Loc)
	e.end()
}

// event renders witnessEventLine.
func (e *witnessEncoder) event(ev WitnessEvent) {
	e.line("ev")
	e.name("seq")
	e.buf = strconv.AppendUint(e.buf, ev.Seq, 10)
	e.str("kind", ev.Kind)
	e.int("thread", int64(ev.Thread))
	e.strOmit("loc", ev.Loc)
	e.strOmit("obj", ev.Obj)
	e.int("target", int64(ev.Target))
	e.end()
}

// deadlock renders witnessDeadlockLine.
func (e *witnessEncoder) deadlock(w *Witness) {
	e.line("deadlock")
	e.int("step", int64(w.DeadlockStep))
	e.str("key", w.DeadlockKey)
	e.name("edges")
	if w.Edges == nil {
		e.buf = append(e.buf, "null"...)
	} else {
		e.buf = append(e.buf, '[')
		for i, edge := range w.Edges {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.buf = append(e.buf, `{"thread":`...)
			e.buf = strconv.AppendInt(e.buf, int64(edge.Thread), 10)
			e.str("want", edge.Want)
			e.str("wantLoc", edge.WantLoc)
			e.name("held")
			e.strs(edge.Held)
			e.name("context")
			e.strs(edge.Context)
			e.buf = append(e.buf, '}')
		}
		e.buf = append(e.buf, ']')
	}
	e.end()
}

// appendString appends s as a JSON string exactly as encoding/json
// renders it. Printable ASCII with nothing to escape is copied as is;
// a string holding a quote, a backslash, a control byte, one of the
// HTML-escaped '<', '>' and '&', or any byte past 0x7e (non-ASCII,
// including U+2028/U+2029 and invalid UTF-8) goes through json.Marshal.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// ErrNotWitness is wrapped by ReadWitness's error for JSON lines whose
// first record is not a witness header, such as a run journal.
var ErrNotWitness = errors.New("obs: not a witness trace")

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
		return nil, fmt.Errorf("%w (first line %q)", ErrNotWitness, hdr.K)
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

// policies holds reusable checker policies for one-shot witness runs:
// a policy's abstraction intern table stays warm across captures, and
// sched.New hands every execution a warm scheduler shell, so a witness
// run costs what a campaign run costs.
var policies = sync.Pool{New: func() any { return new(fuzzer.Policy) }}

// Capture re-executes a known deadlock-confirming (cycle, scheduler
// seed) pair under the active checker with a recording policy and
// returns the witness. program is the resolvable name stored in the
// header ("workload:NAME" or "clf:PATH"); target the cycle's index in
// its report. Because an execution is a pure function of (program,
// policy, seed) and observers never influence decisions, the captured
// run is identical to the campaign run that first confirmed the
// deadlock. Capture fails if the run does not end in a deadlock. It is
// safe for concurrent use.
func Capture(prog func(*sched.Ctx), program string, cycle *igoodlock.Cycle, target int, cfg fuzzer.Config, schedSeed int64, maxSteps int) (*Witness, error) {
	// A run that panics drops its policy rather than returning it.
	pol := policies.Get().(*fuzzer.Policy)
	w, err := capture(pol, prog, program, cycle, target, cfg, schedSeed, maxSteps)
	policies.Put(pol)
	return w, err
}

// capture is Capture on the given policy shell.
func capture(pol *fuzzer.Policy, prog func(*sched.Ctx), program string, cycle *igoodlock.Cycle, target int, cfg fuzzer.Config, schedSeed int64, maxSteps int) (*Witness, error) {
	rec := &recorder{}
	pol.Reset(cycle, cfg)
	pol.SetHooks(rec)
	recording := NewRecording(pol)
	res := sched.New(sched.Options{
		Seed:      schedSeed,
		MaxSteps:  maxSteps,
		Policy:    recording,
		Observers: []sched.Observer{rec},
	}).Run(prog)
	pol.SetHooks(nil)
	if res.Outcome != sched.Deadlock {
		return nil, fmt.Errorf("obs: capture run ended in %s, not deadlock (program %s, seed %d)", res.Outcome, program, schedSeed)
	}
	w := NewWitness(program, schedSeed, maxSteps, cfg, cycle, target, recording.Schedule(), res)
	w.Points, w.Events = rec.points, rec.events
	return w, nil
}

// NewWitness assembles the witness of one recorded execution of
// program under (schedSeed, maxSteps): its decision sequence and its
// result. cycle is the candidate the run was biased toward, reported as
// the target-th; a nil cycle records a run that targeted none (no
// components, an empty CycleKey). When the run did not deadlock, the
// trailer is empty: key "", step 0, no edges. Steering points and sync
// events are left to the caller that observed them. The witness keeps
// schedule, a RecordingPolicy's Schedule, without copying it; an empty
// one is stored as nil, so its order line reads null.
func NewWitness(program string, schedSeed int64, maxSteps int, cfg fuzzer.Config, cycle *igoodlock.Cycle, target int, schedule []int, res *sched.Result) *Witness {
	w := &Witness{
		Program:   program,
		SchedSeed: schedSeed,
		Target:    target,
		MaxSteps:  maxSteps,
		Config:    witnessConfig(cfg),
	}
	if cycle != nil {
		w.CycleKey = fuzzer.CycleKey(cycle, cfg)
		for i, comp := range cycle.Components {
			wc := WitnessComponent{Index: i, Thread: string(comp.ThreadAbs), Lock: string(comp.LockAbs)}
			for _, l := range comp.Context {
				wc.Context = append(wc.Context, string(l))
			}
			w.Components = append(w.Components, wc)
		}
	}
	if len(schedule) > 0 {
		w.Schedule = schedule
	}
	if res.Deadlock == nil {
		return w
	}
	w.DeadlockKey = fuzzer.DeadlockKey(res.Deadlock, cfg)
	w.DeadlockStep = res.Deadlock.Step
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
	return w
}

// ReplayOptions returns the scheduler options that replay w: the
// recorded scheduler seed and step bound, and a fresh ReplayPolicy over
// the recorded schedule, also returned so the caller can ask whether
// the run left it. Following the schedule draws nothing from the RNG,
// so the seed matters only to what the run does not decide through the
// policy (see sched.Scheduler.wake) and to a replay that diverges.
func (w *Witness) ReplayOptions() (sched.Options, *ReplayPolicy) {
	rp := NewReplay(w.Schedule)
	return sched.Options{Seed: w.SchedSeed, MaxSteps: w.MaxSteps, Policy: rp}, rp
}

// ReplayReport describes a successful replay.
type ReplayReport struct {
	// Result is the replayed execution's verdict. It ends in a deadlock
	// exactly when the recorded run did.
	Result *sched.Result
	// DeadlockKey is the canonical key of the replayed deadlock, empty
	// when the run did not deadlock; it equals the witness's
	// DeadlockKey.
	DeadlockKey string
	// Reproduced reports whether the deadlock is the witness's targeted
	// cycle (mirrors Witness.Reproduced).
	Reproduced bool
}

// Replay drives prog through the witness's recorded schedule and
// asserts the recorded run re-forms: the run must follow the whole
// schedule, neither leaving it nor ending before it is spent, and it
// must end with the recorded canonical deadlock key — a deadlock with
// the same key, or, for a witness whose key is empty, no lock deadlock
// at all. Any other outcome is an error describing the divergence. It
// is safe for concurrent use.
func Replay(prog func(*sched.Ctx), w *Witness) (*ReplayReport, error) {
	cfg, err := w.Config.FuzzerConfig()
	if err != nil {
		return nil, err
	}
	opts, rp := w.ReplayOptions()
	res := sched.New(opts).Run(prog)
	if rp.Diverged() || rp.pos < len(rp.schedule) {
		return nil, fmt.Errorf("obs: replay diverged from the recorded schedule after %d steps (program changed?)", res.Steps)
	}
	key := ""
	if res.Deadlock != nil {
		key = fuzzer.DeadlockKey(res.Deadlock, cfg)
	}
	switch {
	case key == w.DeadlockKey:
	case w.DeadlockKey == "":
		return nil, errors.New("obs: replay ended in deadlock, want no deadlock")
	case key == "":
		return nil, fmt.Errorf("obs: replay ended in %s, want deadlock", res.Outcome)
	default:
		return nil, fmt.Errorf("obs: replay confirmed a different deadlock:\n  got  %s\n  want %s", key, w.DeadlockKey)
	}
	return &ReplayReport{
		Result:      res,
		DeadlockKey: key,
		Reproduced:  key != "" && fuzzer.MatchesCycle(res.Deadlock, w.Cycle(), cfg),
	}, nil
}
