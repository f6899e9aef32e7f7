package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dlfuzz/internal/event"
	"dlfuzz/internal/object"
	"dlfuzz/internal/sched"
)

// inversion deadlocks under the right schedule.
func inversion(c *sched.Ctx) {
	a := c.New("Object", "t:1")
	b := c.New("Object", "t:2")
	body := func(l1, l2 *object.Obj) func(*sched.Ctx) {
		return func(c *sched.Ctx) {
			c.Sync(l1, "t:3", func() {
				c.Sync(l2, "t:4", func() {})
			})
		}
	}
	t1 := c.Spawn("a", nil, "t:5", body(a, b))
	t2 := c.Spawn("b", nil, "t:6", body(b, a))
	c.Join(t1, "t:7")
	c.Join(t2, "t:7")
}

func TestCollectorRoundTrip(t *testing.T) {
	col := NewCollector()
	s := sched.New(sched.Options{Seed: 1, Observers: []sched.Observer{col}})
	s.Run(inversion)
	if col.Len() == 0 {
		t.Fatal("no events collected")
	}
	var buf bytes.Buffer
	if err := col.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != col.Len() {
		t.Fatalf("round trip lost records: %d vs %d", len(back), col.Len())
	}
	for i, r := range back {
		if !reflect.DeepEqual(r, col.Records()[i]) {
			t.Fatalf("record %d changed in round trip: %+v vs %+v", i, r, col.Records()[i])
		}
	}
	first := back[0]
	if first.Seq == 0 || first.Kind == "" {
		t.Errorf("first record incomplete: %+v", first)
	}
	// Acquire records must carry their context.
	found := false
	for _, r := range back {
		if r.Kind == "Acquire" && r.Loc == "t:4" {
			found = true
			if len(r.Context) != 2 || len(r.LockSet) != 1 {
				t.Errorf("acquire record: %+v", r)
			}
		}
	}
	if !found {
		t.Error("inner acquire not in trace")
	}
}

// findDeadlockSchedule records schedules until one deadlocks.
func findDeadlockSchedule(t *testing.T) Schedule {
	t.Helper()
	for seed := int64(0); seed < 100; seed++ {
		rec := NewRecording(nil)
		s := sched.New(sched.Options{Seed: seed, Policy: rec})
		if s.Run(inversion).Outcome == sched.Deadlock {
			return rec.Schedule()
		}
	}
	t.Fatal("no deadlocking seed found")
	return nil
}

func TestReplayReproducesDeadlock(t *testing.T) {
	schedule := findDeadlockSchedule(t)
	// Replay with a *different* RNG seed: the schedule, not the seed,
	// must determine the outcome.
	rep := NewReplay(schedule)
	s := sched.New(sched.Options{Seed: 987654, Policy: rep})
	res := s.Run(inversion)
	if res.Outcome != sched.Deadlock {
		t.Fatalf("replay outcome %v, want deadlock", res.Outcome)
	}
	if rep.Diverged() {
		t.Error("replay diverged on the identical program")
	}
}

func TestReplayDivergesOnChangedProgram(t *testing.T) {
	schedule := findDeadlockSchedule(t)
	// A different program: single thread, no locks. Thread 1 from the
	// schedule never exists, so the replay must diverge and fall back
	// to random without crashing.
	other := func(c *sched.Ctx) {
		c.Work(10, "o:1")
	}
	rep := NewReplay(schedule)
	s := sched.New(sched.Options{Seed: 5, Policy: rep})
	res := s.Run(other)
	if res.Outcome != sched.Completed {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if !rep.Diverged() && !rep.Exhausted() {
		t.Error("replay should have diverged or exhausted")
	}
}

func TestScheduleRoundTrip(t *testing.T) {
	in := Schedule{0, 1, 1, 2, 0}
	var buf bytes.Buffer
	if err := in.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := ReadSchedule(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip: %v vs %v", out, in)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("round trip: %v vs %v", out, in)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewBufferString("{not json")); err == nil {
		t.Error("expected parse error")
	}
	if _, err := ReadSchedule(bytes.NewBufferString("nope")); err == nil {
		t.Error("expected parse error")
	}
}

func TestRecordingPreservesInnerBehaviour(t *testing.T) {
	// Recording must not perturb scheduling: same seed with and without
	// the wrapper yields the same outcome and step count.
	plain := sched.New(sched.Options{Seed: 11})
	r1 := plain.Run(inversion)
	rec := NewRecording(nil)
	wrapped := sched.New(sched.Options{Seed: 11, Policy: rec})
	r2 := wrapped.Run(inversion)
	if r1.Outcome != r2.Outcome || r1.Steps != r2.Steps {
		t.Errorf("recording perturbed the run: %v/%d vs %v/%d",
			r1.Outcome, r1.Steps, r2.Outcome, r2.Steps)
	}
	if len(rec.Schedule()) != r2.Steps {
		t.Errorf("schedule length %d != steps %d", len(rec.Schedule()), r2.Steps)
	}
}

func TestEventStringHasKind(t *testing.T) {
	// Guard the Kind serialization against enum drift.
	col := NewCollector()
	col.OnEvent(sched.Ev{Kind: event.KindWait, Thread: 2, Seq: 1})
	if col.Records()[0].Kind != "Wait" {
		t.Errorf("kind = %q", col.Records()[0].Kind)
	}
}

// FuzzReadSchedule feeds arbitrary bytes to the two trace decoders,
// ReadSchedule and Read, seeded with a committed schedule and event
// trace. Bad input must come back as a "trace:" error, never a panic;
// an accepted schedule must survive an Encode/ReadSchedule round trip.
func FuzzReadSchedule(f *testing.F) {
	for _, name := range []string{"fig1.schedule", "fig1.trace"} {
		seed, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wellFormed := func(what string, err error) {
			if !strings.HasPrefix(err.Error(), "trace: ") {
				t.Fatalf("%s: malformed error %q", what, err)
			}
		}
		if recs, err := Read(bytes.NewReader(data)); err != nil {
			if recs != nil {
				t.Fatalf("Read: records alongside error %v", err)
			}
			wellFormed("Read", err)
		}
		s, err := ReadSchedule(bytes.NewReader(data))
		if err != nil {
			wellFormed("ReadSchedule", err)
			return
		}
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := ReadSchedule(&buf)
		if err != nil || !reflect.DeepEqual(again, s) {
			t.Fatalf("schedule round trip: %v, %v != %v", err, again, s)
		}
	})
}
