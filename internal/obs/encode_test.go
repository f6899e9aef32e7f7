package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
	"unicode/utf8"
)

// encodeReference is the encoding/json rendering of the witness line
// structs that Encode's appender replaced, kept as its reference.
func encodeReference(w *Witness, out io.Writer) error {
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

// shaped returns nil, an empty slice or vs, by the low two bits of s.
func shaped[T any](s uint8, vs ...T) []T {
	switch s & 3 {
	case 0:
		return nil
	case 1:
		return []T{}
	}
	return vs
}

// fuzzWitness builds a witness whose every string, integer and slice
// shape comes from the fuzzer's arguments.
func fuzzWitness(a, b, c, d string, seed int64, i, j, k int, flag bool, shape uint16) *Witness {
	abs := []string{"trivial", "k-object", "exec-index", b}[shape&3]
	s := uint8(shape >> 2)
	w := &Witness{
		Program: a, SchedSeed: seed, Target: i, MaxSteps: j,
		Config: WitnessConfig{
			Abstraction: abs, K: k, UseContext: flag, YieldOpt: !flag,
			YieldBudget: i, PauseTimeout: j,
		},
		CycleKey: c, DeadlockKey: d,
		Components: shaped(s,
			WitnessComponent{Index: k, Thread: a, Lock: b, Context: shaped(s>>2, c, d)},
			WitnessComponent{Index: -1, Thread: d, Lock: c}),
		Schedule: shaped(s>>4, i, j, k, -1),
		Points: shaped(s>>6,
			SchedPoint{Kind: b, Thread: i, Step: j, Loc: d},
			SchedPoint{Kind: "thrash", Thread: -k}),
		Events: shaped(uint8(shape>>10),
			WitnessEvent{Seq: uint64(seed), Kind: c, Thread: k, Obj: a, Target: i},
			WitnessEvent{Kind: "acquire", Loc: b, Target: -1}),
		DeadlockStep: j,
		Edges: shaped(uint8(shape>>12),
			WitnessEdge{Thread: i, Want: a, WantLoc: d,
				Held: shaped(uint8(shape>>14), b, c), Context: shaped(uint8(shape>>13), d)}),
	}
	return w
}

// jsonString is what a string reads back as after encoding/json: every
// byte of an invalid UTF-8 sequence becomes U+FFFD.
func jsonString(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	var b []rune
	for _, r := range s {
		b = append(b, r)
	}
	return string(b)
}

func jsonStrings(vs []string) []string {
	for i, v := range vs {
		vs[i] = jsonString(v)
	}
	return vs
}

// decoded returns what ReadWitness must make of w's encoding: strings
// as JSON reads them back, and the slices whose lines or fields vanish
// when empty (components, points, events, omitempty contexts) as nil.
func decoded(w Witness) *Witness {
	w.Program, w.CycleKey, w.DeadlockKey = jsonString(w.Program), jsonString(w.CycleKey), jsonString(w.DeadlockKey)
	w.Config.Abstraction = jsonString(w.Config.Abstraction)
	var comps []WitnessComponent
	for _, c := range w.Components {
		c.Thread, c.Lock = jsonString(c.Thread), jsonString(c.Lock)
		if len(c.Context) == 0 {
			c.Context = nil
		}
		c.Context = jsonStrings(append([]string(nil), c.Context...))
		comps = append(comps, c)
	}
	w.Components = comps
	var points []SchedPoint
	for _, p := range w.Points {
		p.Kind, p.Loc = jsonString(p.Kind), jsonString(p.Loc)
		points = append(points, p)
	}
	w.Points = points
	var events []WitnessEvent
	for _, ev := range w.Events {
		ev.Kind, ev.Loc, ev.Obj = jsonString(ev.Kind), jsonString(ev.Loc), jsonString(ev.Obj)
		events = append(events, ev)
	}
	w.Events = events
	if w.Edges != nil {
		edges := make([]WitnessEdge, len(w.Edges))
		for i, e := range w.Edges {
			e.Want, e.WantLoc = jsonString(e.Want), jsonString(e.WantLoc)
			if e.Held != nil {
				e.Held = jsonStrings(append([]string{}, e.Held...))
			}
			if e.Context != nil {
				e.Context = jsonStrings(append([]string{}, e.Context...))
			}
			edges[i] = e
		}
		w.Edges = edges
	}
	return &w
}

// FuzzWitnessEncode holds Encode to the encoding/json reference byte
// for byte, and to ReadWitness: a witness with a usable config decodes
// back to itself (up to JSON's own normalization), any other is
// rejected.
func FuzzWitnessEncode(f *testing.F) {
	f.Add("workload:lists", "exec-index", "[a,1]/[b,2]", "o3:Object@x:1", int64(7), 3, 0, 10, true, uint16(0xffff))
	f.Add(`say "hi"\`, "a<b>&c", "\u2028line\u2029sep", "\xff\xfebad", int64(-1), -5, 1<<31, 0, false, uint16(0xaaaa))
	f.Add("\x00\x1f\x7f\t\n", "k-object", "", "", int64(-1<<63), 0, -1, -2, true, uint16(0x5555))
	f.Add("héllo wörld", "trivial", "é\U0001F600", "tab\there", int64(1<<62), 1<<40, -1<<40, 7, false, uint16(2))
	f.Fuzz(func(t *testing.T, a, b, c, d string, seed int64, i, j, k int, flag bool, shape uint16) {
		w := fuzzWitness(a, b, c, d, seed, i, j, k, flag, shape)
		var got, want bytes.Buffer
		if err := w.Encode(&got); err != nil {
			t.Fatal(err)
		}
		if err := encodeReference(w, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("Encode differs from encoding/json:\ngot:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
		}
		dec, err := ReadWitness(bytes.NewReader(got.Bytes()))
		if _, cfgErr := decoded(*w).Config.FuzzerConfig(); cfgErr != nil {
			if err == nil {
				t.Fatalf("witness with unusable config decoded (%v)", cfgErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("ReadWitness: %v\n%s", err, got.Bytes())
		}
		if exp := decoded(*w); !reflect.DeepEqual(dec, exp) {
			t.Fatalf("round trip:\ngot  %+v\nwant %+v", dec, exp)
		}
	})
}

// TestEncodeAllocs guards the appender's allocation count on a
// plain-ASCII witness, where no string takes the json.Marshal path. A
// warm Encode allocates nothing; the bound leaves room for the buffer
// pool's misses (after a GC, or the drops the race detector injects).
// The encoding/json path took 148.
func TestEncodeAllocs(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/golden/witness/lists-v2.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	w, err := ReadWitness(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Grow(2 * len(raw))
	allocs := testing.AllocsPerRun(100, func() {
		buf.Reset()
		if err := w.Encode(&buf); err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Fatal("re-encoded golden differs")
	}
	const maxAllocs = 8
	if allocs > maxAllocs {
		t.Errorf("Encode of a plain-ASCII witness: %.0f allocations, want <= %d", allocs, maxAllocs)
	}
	t.Logf("%.0f allocations per Encode", allocs)
}
