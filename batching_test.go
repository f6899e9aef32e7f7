package dlfuzz_test

// Golden suite for the batched-Work scheduler protocol. Ctx.Work posts
// one batched request and receives its n grants without reposting; the
// scheduler used to offer a reference protocol of one Step request per
// step, and these tests were live differentials between the two. That
// protocol is gone, so the goldens under testdata/golden/ — captured
// from the per-step side before it was deleted — stand in for it: every
// built-in workload and every committed CLF program must still produce
// the same event streams, Results and campaign summaries at every
// parallelism. The suite also guards the batch path's allocation rate.
// Regenerate with DLFUZZ_UPDATE_GOLDEN=1 only for a deliberate schedule
// change.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"dlfuzz"
	"dlfuzz/internal/campaign"
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/object"
	"dlfuzz/internal/sched"
	"dlfuzz/internal/trace"
	"dlfuzz/internal/workloads"
)

// eventRecorder captures the full event stream of one execution.
type eventRecorder struct {
	events []sched.Ev
}

func (r *eventRecorder) OnEvent(ev sched.Ev) { r.events = append(r.events, ev) }

// diffProgs collects every program the differential suite runs: the
// built-in workloads, the hand-written testdata CLF programs, and the
// committed generated corpus.
func diffProgs(t *testing.T) map[string]func(*sched.Ctx) {
	t.Helper()
	progs := make(map[string]func(*sched.Ctx))
	for _, w := range workloads.All() {
		progs["workload/"+w.Name] = w.Prog
	}
	for _, pattern := range []string{"*.clf", filepath.Join("corpus", "gen-*.clf")} {
		files, err := filepath.Glob(filepath.Join("testdata", pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := dlfuzz.ParseCLF(file, string(src))
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			progs["clf/"+filepath.Base(file)] = prog.Body()
		}
	}
	if len(progs) < 10 {
		t.Fatalf("differential corpus suspiciously small: %d programs", len(progs))
	}
	return progs
}

// Golden files for the two differentials below, captured from the
// retired per-step Work protocol.
const (
	batchingSchedGolden    = "testdata/golden/batching_sched.txt"
	batchingCampaignGolden = "testdata/golden/batching_campaign.txt"
)

// goldenSections checks rendered sections against a sectioned golden
// file, or, with DLFUZZ_UPDATE_GOLDEN set, collects them and rewrites
// the file once every subtest has finished.
type goldenSections struct {
	path   string
	update bool
	want   map[string]string
	mu     sync.Mutex
	got    map[string]string
}

func newGoldenSections(t *testing.T, path string) *goldenSections {
	g := &goldenSections{path: path, update: os.Getenv("DLFUZZ_UPDATE_GOLDEN") != "", got: map[string]string{}}
	if !g.update {
		g.want = readGoldenSections(t, path)
		return g
	}
	t.Cleanup(func() {
		names := make([]string, 0, len(g.got))
		for name := range g.got {
			names = append(names, name)
		}
		sort.Strings(names)
		var out strings.Builder
		for _, name := range names {
			fmt.Fprintf(&out, "== %s ==\n%s", name, g.got[name])
		}
		writeGolden(t, path, out.String())
	})
	return g
}

// check compares one section, labelled by the run that produced it;
// under update it records the first rendering of each section.
func (g *goldenSections) check(t *testing.T, name, label, got string) {
	t.Helper()
	if g.update {
		g.mu.Lock()
		if _, ok := g.got[name]; !ok {
			g.got[name] = got
		}
		g.mu.Unlock()
		return
	}
	want, ok := g.want[name]
	if !ok {
		t.Fatalf("%s: no section %q (run with DLFUZZ_UPDATE_GOLDEN=1 to capture)", g.path, name)
	}
	if got != want {
		t.Fatalf("%s diverged from %s:\n--- golden ---\n%s--- got ---\n%s", label, g.path, want, got)
	}
}

// renderDeadlock prints every field of a deadlock witness, including
// the held-lock lists its String form only counts.
func renderDeadlock(d *sched.DeadlockInfo) string {
	if d == nil {
		return "<nil>"
	}
	held := make([][]*object.Obj, len(d.Edges))
	for i, e := range d.Edges {
		held[i] = e.Held
	}
	return fmt.Sprintf("step=%d held=%v %s", d.Step, held, d)
}

// renderExecution prints one scheduled execution: every Result field,
// the deadlock or blocked verdict, and the SHA-256 of its trace.Collector
// JSONL event stream.
func renderExecution(t *testing.T, prog func(*sched.Ctx), seed int64) string {
	col := trace.NewCollector()
	res := sched.New(sched.Options{Seed: seed, Observers: []sched.Observer{col}}).Run(prog)
	h := sha256.New()
	if err := col.Encode(h); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d outcome=%s steps=%d events=%d acquires=%d spawned=%d allocated=%d trace=%x\n",
		seed, res.Outcome, res.Steps, res.Events, res.Acquires, res.Spawned, res.Allocated, h.Sum(nil))
	if res.Deadlock != nil {
		fmt.Fprintf(&b, "  deadlock %s\n", renderDeadlock(res.Deadlock))
	}
	if res.Blocked != nil {
		fmt.Fprintf(&b, "  blocked step=%d %s\n", res.Blocked.Step, res.Blocked)
	}
	return b.String()
}

// TestBatchedWorkSchedDifferential runs every program at several seeds
// and requires each execution to match the golden captured from the
// retired per-step protocol: the same Result fields, the same deadlock
// or blocked verdict, and the same event stream (by hash).
func TestBatchedWorkSchedDifferential(t *testing.T) {
	g := newGoldenSections(t, batchingSchedGolden)
	for name, prog := range diffProgs(t) {
		name, prog := name, prog
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var b strings.Builder
			for _, seed := range []int64{0, 1, 7, 42} {
				b.WriteString(renderExecution(t, prog, seed))
			}
			g.check(t, name, "execution", b.String())
		})
	}
}

// renderSummary prints every field of a multi-cycle campaign summary.
func renderSummary(sum *campaign.MultiSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "executions=%d deadlocked=%d unmatched=%d thrashes=%d yields=%d steps=%d\n",
		sum.Executions, sum.Deadlocked, sum.Unmatched, sum.Thrashes, sum.Yields, sum.Steps)
	for i, c := range sum.Cycles {
		fmt.Fprintf(&b, "cycle %d runs=%d deadlocked=%d reproduced=%d thrashes=%d yields=%d steps=%d\n",
			i+1, c.Runs, c.Deadlocked, c.Reproduced, c.Thrashes, c.Yields, c.Steps)
		fmt.Fprintf(&b, "  example seed=%d %s\n", c.ExampleSeed, renderDeadlock(c.Example))
		fmt.Fprintf(&b, "  cross=%d seed=%d target=%d %s\n",
			c.CrossMatches, c.CrossExampleSeed, c.CrossExampleTarget, renderDeadlock(c.CrossExample))
	}
	return b.String()
}

// TestBatchedWorkCampaignDifferential extends the check through Phase
// II: for each workload, one multi-cycle campaign at parallelism 1, 2
// and 4 must reproduce, field for field, the summary captured from the
// retired per-step protocol.
func TestBatchedWorkCampaignDifferential(t *testing.T) {
	g := newGoldenSections(t, batchingCampaignGolden)
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			find, err := dlfuzz.Find(w.Prog, dlfuzz.DefaultFindOptions())
			if err != nil {
				t.Fatal(err)
			}
			if len(find.Cycles) == 0 {
				t.Skipf("%s reports no cycles", w.Name)
			}
			const runs = 24
			for _, par := range []int{1, 2, 4} {
				sum := campaign.ConfirmCycles(w.Prog, find.Cycles, fuzzer.DefaultConfig(), runs, 0, campaign.Options{Parallelism: par})
				g.check(t, w.Name, fmt.Sprintf("parallelism %d", par), renderSummary(sum))
			}
		})
	}
}

// TestBatchedWorkAllocations guards the batch path's allocation rate: a
// pooled execution of the Work-heavy lists workload must stay under one
// allocation per scheduling decision. (The bench module's
// alloc_kb_per_check and sched.allocs_per_step track allocation across
// the whole check; this is the in-tree regression tripwire for the
// scheduler itself.)
func TestBatchedWorkAllocations(t *testing.T) {
	w, ok := workloads.ByName("lists")
	if !ok {
		t.Fatal("lists workload missing")
	}
	pool := sched.NewPool()
	res := pool.Run(sched.Options{Seed: 1}, w.Prog)
	if res.Steps == 0 {
		t.Fatal("lists run took no steps")
	}
	allocs := testing.AllocsPerRun(50, func() {
		pool.Run(sched.Options{Seed: 1}, w.Prog)
	})
	if perStep := allocs / float64(res.Steps); perStep > 1.0 {
		t.Errorf("pooled batched run allocates %.3f per step (%.0f allocs / %d steps); want <= 1.0",
			perStep, allocs, res.Steps)
	}
}
