// Package trace captures executions for offline inspection and replay:
// the full event stream (serialized as JSON lines for external tooling)
// and the scheduling decision sequence, which can be replayed to drive a
// later execution through the same interleaving.
//
// Seeds already make runs reproducible within one binary; schedules make
// them portable — a confirmed deadlock's schedule can be stored next to
// a bug report and replayed elsewhere, or replayed against a modified
// program to check whether a fix really removes the interleaving.
// Schedules persist as witness files (internal/obs), the one schedule
// format.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"dlfuzz/internal/event"
	"dlfuzz/internal/sched"
)

// Record is one serialized event.
type Record struct {
	Seq     uint64   `json:"seq"`
	Kind    string   `json:"kind"`
	Thread  int      `json:"thread"`
	Loc     string   `json:"loc,omitempty"`
	Obj     uint64   `json:"obj,omitempty"`
	ObjType string   `json:"objType,omitempty"`
	ObjSite string   `json:"objSite,omitempty"`
	Method  string   `json:"method,omitempty"`
	Target  int      `json:"target,omitempty"`
	LockSet []uint64 `json:"lockSet,omitempty"`
	Context []string `json:"context,omitempty"`
}

// Collector is a scheduler observer that accumulates the event stream.
type Collector struct {
	records []Record
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// OnEvent appends the event as a record.
func (c *Collector) OnEvent(ev sched.Ev) {
	r := Record{
		Seq:    ev.Seq,
		Kind:   ev.Kind.String(),
		Thread: int(ev.Thread),
		Loc:    string(ev.Loc),
		Method: ev.Method,
		Target: int(ev.Target),
	}
	if ev.Obj != nil {
		r.Obj = ev.Obj.ID
		r.ObjType = ev.Obj.Type
		r.ObjSite = string(ev.Obj.Site)
	}
	for _, l := range ev.LockSet {
		r.LockSet = append(r.LockSet, l.ID)
	}
	for _, loc := range ev.Context {
		r.Context = append(r.Context, string(loc))
	}
	c.records = append(c.records, r)
}

// Records returns the collected records in order.
func (c *Collector) Records() []Record { return c.records }

// Len returns the number of collected records.
func (c *Collector) Len() int { return len(c.records) }

// Encode serializes the records as JSON lines.
func (c *Collector) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range c.records {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses JSON-lines records.
func Read(r io.Reader) ([]Record, error) {
	var out []Record
	dec := json.NewDecoder(r)
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		out = append(out, rec)
	}
}

// RecordingPolicy wraps a scheduling policy and records every decision,
// producing a Schedule that ReplayPolicy can drive later.
type RecordingPolicy struct {
	Inner sched.Policy
	order []event.TID
}

// NewRecording wraps inner (nil means the plain random policy).
func NewRecording(inner sched.Policy) *RecordingPolicy {
	if inner == nil {
		inner = sched.RandomPolicy{}
	}
	return &RecordingPolicy{Inner: inner}
}

// Next delegates and records the choice.
func (p *RecordingPolicy) Next(s *sched.Scheduler, enabled []event.TID) event.TID {
	t := p.Inner.Next(s, enabled)
	p.order = append(p.order, t)
	return t
}

// Solo delegates to Inner's Solo, when it has one, and records every
// decision taken.
func (p *RecordingPolicy) Solo(s *sched.Scheduler, t event.TID, n int) int {
	inner, ok := p.Inner.(sched.SoloPolicy)
	if !ok {
		return 0
	}
	took := inner.Solo(s, t, n)
	for range took {
		p.order = append(p.order, t)
	}
	return took
}

// Schedule returns the recorded decision sequence.
func (p *RecordingPolicy) Schedule() Schedule {
	out := make(Schedule, len(p.order))
	copy(out, p.order)
	return out
}

// Schedule is a sequence of scheduling decisions (thread ids).
type Schedule []event.TID

// ReplayPolicy drives an execution through a recorded schedule. If the
// program has changed and a recorded choice is no longer enabled, or
// the schedule runs out before the program does (the schedule
// diverges), it falls back to random scheduling from that point and
// remembers the divergence.
type ReplayPolicy struct {
	schedule Schedule
	pos      int
	diverged bool
}

// NewReplay returns a policy replaying the schedule.
func NewReplay(s Schedule) *ReplayPolicy {
	return &ReplayPolicy{schedule: s}
}

// Next replays the recorded decision when it is still enabled.
func (p *ReplayPolicy) Next(s *sched.Scheduler, enabled []event.TID) event.TID {
	if !p.diverged && p.pos < len(p.schedule) {
		want := p.schedule[p.pos]
		for _, t := range enabled {
			if t == want {
				p.pos++
				return t
			}
		}
	}
	p.diverged = true
	return enabled[s.Rand().Intn(len(enabled))]
}

// Solo replays the run of t recorded at the current position, up to n
// decisions; the decision after a shorter run diverges, as Next would
// find t's recorded rival disabled or the schedule spent, and each
// decision from there on is a random pick's one draw.
func (p *ReplayPolicy) Solo(s *sched.Scheduler, t event.TID, n int) int {
	k := 0
	if !p.diverged {
		for k < n && p.pos < len(p.schedule) && p.schedule[p.pos] == t {
			p.pos++
			k++
		}
		if k == n {
			return n
		}
		p.diverged = true
	}
	s.SkipDraws(n - k)
	return n
}

// Diverged reports whether the replay left the recorded schedule (the
// recorded choice was disabled, or the schedule ran out before the
// program did).
func (p *ReplayPolicy) Diverged() bool {
	return p.diverged
}
