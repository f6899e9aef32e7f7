package obs

import (
	"bufio"
	"encoding/json"
	"io"

	"dlfuzz/internal/event"
	"dlfuzz/internal/sched"
)

// traceRecord is one event of the JSON-lines event trace.
type traceRecord struct {
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

// Collector is a scheduler observer that accumulates the full event
// stream, for Encode to write as JSON lines.
type Collector struct {
	records []traceRecord
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// OnEvent appends the event as a record.
func (c *Collector) OnEvent(ev sched.Ev) {
	r := traceRecord{
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

// RecordingPolicy wraps a scheduling policy and records every decision
// as a witness schedule, which ReplayPolicy can drive later.
type RecordingPolicy struct {
	inner sched.Policy
	order []int
}

// NewRecording wraps inner (nil means the plain random policy).
func NewRecording(inner sched.Policy) *RecordingPolicy {
	if inner == nil {
		inner = sched.RandomPolicy{}
	}
	return &RecordingPolicy{inner: inner}
}

// Next delegates and records the choice.
func (p *RecordingPolicy) Next(s *sched.Scheduler, enabled []event.TID) event.TID {
	t := p.inner.Next(s, enabled)
	p.order = append(p.order, int(t))
	return t
}

// Solo delegates to the wrapped policy's Solo, when it has one, and
// records every decision taken. The wrapper passes every call through,
// so the inner policy sees the decisions its Solo precondition is
// stated over.
func (p *RecordingPolicy) Solo(s *sched.Scheduler, t event.TID, n int) int {
	solo, ok := p.inner.(sched.SoloPolicy)
	if !ok {
		return 0
	}
	took := solo.Solo(s, t, n)
	for range took {
		p.order = append(p.order, int(t))
	}
	return took
}

// Schedule returns the recorded decision sequence, nil when no decision
// was taken. The slice is the recording's own: it is meant to be handed
// to a Witness once the run is over.
func (p *RecordingPolicy) Schedule() []int { return p.order }

// ReplayPolicy drives an execution through a recorded schedule. If the
// program has changed and a recorded choice is no longer enabled, or
// the schedule runs out before the program does (the schedule
// diverges), it falls back to random scheduling from that point and
// remembers the divergence.
type ReplayPolicy struct {
	schedule []int
	pos      int
	diverged bool
}

// NewReplay returns a policy replaying the schedule.
func NewReplay(schedule []int) *ReplayPolicy {
	return &ReplayPolicy{schedule: schedule}
}

// Next replays the recorded decision when it is still enabled.
func (p *ReplayPolicy) Next(s *sched.Scheduler, enabled []event.TID) event.TID {
	if !p.diverged && p.pos < len(p.schedule) {
		want := event.TID(p.schedule[p.pos])
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
// decision from there on is a random pick's one draw. The position
// alone fixes what Next would return, so Solo needs no Next call before
// it, the batch's first decision included.
func (p *ReplayPolicy) Solo(s *sched.Scheduler, t event.TID, n int) int {
	k := 0
	if !p.diverged {
		for k < n && p.pos < len(p.schedule) && event.TID(p.schedule[p.pos]) == t {
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
