package static

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	dynamic "dlfuzz/internal/analysis"
	"dlfuzz/internal/harness"
	"dlfuzz/internal/lang"
)

// analyze parses and analyzes CLF source.
func analyze(t *testing.T, src string) *Result {
	t.Helper()
	prog, err := lang.Parse("s.clf", src)
	if err != nil {
		t.Fatal(err)
	}
	return Analyze(prog)
}

func TestSimpleInversion(t *testing.T) {
	res := analyze(t, `
		fn a(x, y) { sync (x) { sync (y) { } } }
		fn main() {
			var l1 = new Object;
			var l2 = new Object;
			var t1 = spawn a(l1, l2);
			var t2 = spawn a(l2, l1);
			join t1;
			join t2;
		}`)
	// Both allocation sites flow into both parameters, so the analysis
	// sees orders in both directions (including same-site pairs).
	if len(res.Cycles) == 0 {
		t.Fatalf("no cycles; edges = %v", res.Edges)
	}
	found := false
	for _, c := range res.Cycles {
		if len(c.Sites) == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("no two-site cycle: %v", res.Cycles)
	}
}

func TestConsistentOrderNoCycle(t *testing.T) {
	res := analyze(t, `
		fn a(x, y) { sync (x) { sync (y) { } } }
		fn main() {
			var l1 = new Object;
			var l2 = new Object;
			var t1 = spawn a(l1, l2);
			var t2 = spawn a(l1, l2);
			join t1;
			join t2;
		}`)
	// x only ever sees site l1 and y only site l2: one direction only.
	if len(res.Cycles) != 0 {
		t.Errorf("cycles = %v", res.Cycles)
	}
	if len(res.Edges) != 1 {
		t.Errorf("edges = %v", res.Edges)
	}
}

func TestPointsToThroughCallsAndReturns(t *testing.T) {
	res := analyze(t, `
		fn makeLock() { return new Object; }
		fn id(o) { return o; }
		fn main() {
			var a = makeLock();
			var b = id(a);
			sync (b) { }
		}`)
	sites, ok := res.PointsTo["main.b"]
	if !ok || len(sites) != 1 || !strings.Contains(string(sites[0]), "s.clf:2") {
		t.Errorf("points-to main.b = %v", sites)
	}
}

func TestFactorySelfLoop(t *testing.T) {
	// Both locks come from one factory site: the static analysis can
	// only report a self-loop on that site (the synchronizedList
	// pattern: same-site objects in opposite orders).
	res := analyze(t, `
		fn makeLock() { return new Object; }
		fn a(x, y) { sync (x) { sync (y) { } } }
		fn main() {
			var l1 = makeLock();
			var l2 = makeLock();
			var t1 = spawn a(l1, l2);
			var t2 = spawn a(l2, l1);
			join t1;
			join t2;
		}`)
	if len(res.Cycles) == 0 {
		t.Fatalf("no cycles; edges = %v", res.Edges)
	}
	if len(res.Cycles[0].Sites) != 1 {
		t.Errorf("expected a self-loop first, got %v", res.Cycles[0])
	}
}

func TestStaticFalsePositiveSingleThread(t *testing.T) {
	// One thread takes the locks in both orders *sequentially*: no
	// deadlock is possible, iGoodlock's thread-distinctness condition
	// rejects it, but the static analysis (like Williams et al.)
	// reports it anyway. This is the false-positive class the paper's
	// dynamic approach exists to avoid.
	src := `
		fn main() {
			var l1 = new Object;
			var l2 = new Object;
			sync (l1) { sync (l2) { } }
			sync (l2) { sync (l1) { } }
		}`
	res := analyze(t, src)
	if len(res.Cycles) == 0 {
		t.Fatal("static analysis should report the (false) cycle")
	}
	prog, err := lang.Parse("s.clf", src)
	if err != nil {
		t.Fatal(err)
	}
	interp := lang.NewInterp(prog, nil)
	p1, err := dynamic.ObserveMany(interp.Main(), harness.DefaultVariant().Goodlock,
		dynamic.CampaignOptions{Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Cycles)+len(p1.FalsePositives) != 0 {
		t.Errorf("iGoodlock should reject the single-thread cycle: %v", p1.Cycles)
	}
}

func TestStaticSeesThroughGuards(t *testing.T) {
	// The latch-ordered inversion (the paper's Jigsaw Section 5.4
	// pattern): really impossible, statically reported — another false
	// positive class, one that iGoodlock shares and the happens-before
	// filter removes.
	res := analyze(t, `
		fn late(p, q, l) {
			await l;
			sync (q) { sync (p) { } }
		}
		fn main() {
			var p = new Object;
			var q = new Object;
			var l = newlatch;
			sync (p) { sync (q) { } }
			signal l;
			var t = spawn late(p, q, l);
			join t;
		}`)
	if len(res.Cycles) == 0 {
		t.Error("static analysis cannot see the latch ordering and should report the cycle")
	}
}

func TestLockOrderThroughCallChain(t *testing.T) {
	// The outer lock is taken in main, the inner deep in a call chain:
	// the heldAt propagation must connect them.
	res := analyze(t, `
		fn inner(y) { sync (y) { } }
		fn middle(y) { inner(y); }
		fn main() {
			var a = new Object;
			var b = new Object;
			sync (a) { middle(b); }
			sync (b) { middle(a); }
		}`)
	twoSite := 0
	for _, c := range res.Cycles {
		if len(c.Sites) == 2 {
			twoSite++
		}
	}
	if twoSite == 0 {
		t.Errorf("interprocedural cycle missed: %v", res.Cycles)
	}
}

func TestSpawnedFunctionStartsLockFree(t *testing.T) {
	// A spawn inside a sync must not inherit the held environment: the
	// child starts with no locks.
	res := analyze(t, `
		fn child(y) { sync (y) { } }
		fn main() {
			var a = new Object;
			var b = new Object;
			sync (a) {
				var t = spawn child(b);
				join t;
			}
		}`)
	for _, e := range res.Edges {
		if strings.Contains(string(e.Outer), "s.clf:4") && strings.Contains(string(e.Inner), "s.clf:5") {
			t.Errorf("spawned child inherited the parent's locks: %v", e)
		}
	}
}

func TestTestdataProgramsAnalyze(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.clf"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata: %v", err)
	}
	// Every shipped deadlocking program must be flagged statically too
	// (the static analysis over-approximates the dynamic one); the
	// known-clean programs must not be.
	// The blocking-op programs hold no lock-order cycles either: their
	// deadlocks are channel/WaitGroup protocol bugs, invisible to the
	// lock-order analysis by design.
	clean := map[string]bool{
		"prodcons.clf":  true,
		"chancycle.clf": true,
		"wgleak.clf":    true,
		"pipeline.clf":  true,
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lang.Parse(filepath.Base(f), string(src))
		if err != nil {
			t.Fatal(err)
		}
		res := Analyze(prog)
		if clean[filepath.Base(f)] {
			if len(res.Cycles) != 0 {
				t.Errorf("%s: unexpected static cycles: %v", f, res.Cycles)
			}
		} else if len(res.Cycles) == 0 {
			t.Errorf("%s: no static cycles reported", f)
		}
	}
}

func TestDeterministicOutput(t *testing.T) {
	src := `
		fn a(x, y) { sync (x) { sync (y) { } } }
		fn main() {
			var l1 = new Object;
			var l2 = new Object;
			var l3 = new Object;
			var t1 = spawn a(l1, l2);
			var t2 = spawn a(l2, l3);
			var t3 = spawn a(l3, l1);
			join t1; join t2; join t3;
		}`
	r1 := analyze(t, src)
	r2 := analyze(t, src)
	if len(r1.Edges) != len(r2.Edges) || len(r1.Cycles) != len(r2.Cycles) {
		t.Fatal("nondeterministic result size")
	}
	for i := range r1.Edges {
		if r1.Edges[i] != r2.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
	for i := range r1.Cycles {
		if cycleKey(r1.Cycles[i]) != cycleKey(r2.Cycles[i]) {
			t.Fatalf("cycle %d differs", i)
		}
	}
}

func TestPointsToThroughFields(t *testing.T) {
	// Locks flowing through object fields must still reach the
	// lock-order graph (field-based heap abstraction).
	res := analyze(t, `
		fn worker(srv) {
			sync (srv.lockA) { sync (srv.lockB) { } }
		}
		fn rev(srv) {
			sync (srv.lockB) { sync (srv.lockA) { } }
		}
		fn main() {
			var srv = new Server;
			srv.lockA = new Object;
			srv.lockB = new Object;
			var t1 = spawn worker(srv);
			var t2 = spawn rev(srv);
			join t1;
			join t2;
		}`)
	twoSite := 0
	for _, c := range res.Cycles {
		if len(c.Sites) == 2 {
			twoSite++
		}
	}
	if twoSite == 0 {
		t.Errorf("field-carried lock cycle missed: cycles=%v edges=%v", res.Cycles, res.Edges)
	}
}
