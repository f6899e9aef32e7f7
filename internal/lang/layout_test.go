package lang

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dlfuzz/internal/sched"
)

// pointerFree reports the first field path of typ that holds a pointer
// the garbage collector would scan, or "" when there is none.
func pointerFree(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	case reflect.Array:
		return pointerFree(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerFree(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	default:
		return path + " (" + typ.String() + ")"
	}
}

// TestLayout pins the VM's data layout: an instruction and a value hold
// no pointer, so code, frames, the constant pools and the field heap
// are memory the garbage collector does not scan and slot stores need
// no write barrier, and their sizes stay where the allocation profile
// put them.
func TestLayout(t *testing.T) {
	for _, c := range []struct {
		v    any
		size uintptr
	}{
		{instr{}, 24},
		{vval{}, 16},
	} {
		typ := reflect.TypeOf(c.v)
		if p := pointerFree(typ, typ.Name()); p != "" {
			t.Errorf("%s holds a pointer at %s", typ, p)
		}
		if got := typ.Size(); got != c.size {
			t.Errorf("sizeof(%s) = %d, want %d", typ, got, c.size)
		}
	}
}

// TestWarmSpawnAllocs pins the allocations of one warm execution of a
// spawning program. Frames, thread records (each with its spawn
// arguments) and the per-run state are pooled, so the VM allocates
// nothing per call or per spawn, and objects with their execution
// indexes come from the scheduler shell's arena: the one allocation is
// the Result. Before thread records were pooled, each of philosophers'
// three spawns also allocated a closure and a record, and main a
// record: 22. Before the arena, each object and its index took two
// allocations: 15. A run that deadlocks ends with its threads dropped,
// deep in calls and sync blocks; its per-run state must return to the
// pool all the same, so it allocates only the Result, the deadlock
// report (six) and its two latch handles: 9.
func TestWarmSpawnAllocs(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("race and coverage instrumentation allocate")
	}
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "philosophers.clf"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, src string
		want      float64
	}{
		{"philosophers", string(src), 1},
		{"deadlock", `
fn worker(a, b, mine, theirs) {
    sync (a) { signal mine; await theirs; sync (b) { } }
}
fn main() {
    var a = new Object;
    var b = new Object;
    var x = newlatch;
    var y = newlatch;
    var t1 = spawn worker(a, b, x, y);
    var t2 = spawn worker(b, a, y, x);
    join t1;
    join t2;
}`, 9},
	} {
		prog, err := Parse(c.name+".clf", c.src)
		if err != nil {
			t.Fatal(err)
		}
		body := NewInterp(prog, nil).Main()
		run := func() { sched.New(sched.Options{Seed: 3}).Run(body) }
		run()
		got := testing.AllocsPerRun(50, run)
		t.Logf("%s: %.0f allocations per warm execution", c.name, got)
		if got > c.want {
			t.Errorf("%s: %.0f allocations per warm execution, want at most %.0f", c.name, got, c.want)
		}
	}
}
