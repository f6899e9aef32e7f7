package dlfuzz_test

// Mutex-path differential golden. The blocking-op event model (channels,
// WaitGroups, partial-deadlock classification) must not perturb a single
// byte of the mutex-only pipeline: every built-in workload, every
// testdata CLF program and every committed corpus entry renders the same
// Phase I + Phase II report as it did before the extension, at widths 1,
// 2 and 4. The golden under testdata/golden/ was captured from the tree
// *before* the event-model change landed; regenerate with
//
//	DLFUZZ_UPDATE_GOLDEN=1 go test -run TestMutexDifferential .
//
// only when a deliberate pipeline change moves the reports.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dlfuzz"
	"dlfuzz/internal/workloads"
)

const mutexGoldenPath = "testdata/golden/mutex_differential.txt"

// differentialPrograms enumerates every mutex-era program the golden
// pins, as (section name, body) pairs in deterministic order.
func differentialPrograms(t *testing.T) (names []string, progs map[string]func(*dlfuzz.Ctx)) {
	t.Helper()
	progs = map[string]func(*dlfuzz.Ctx){}
	add := func(name string, body func(*dlfuzz.Ctx)) {
		if _, dup := progs[name]; dup {
			t.Fatalf("duplicate differential program %q", name)
		}
		names = append(names, name)
		progs[name] = body
	}
	for _, w := range workloads.All() {
		add("workload:"+w.Name, w.Prog)
	}
	for _, dir := range []string{"testdata", filepath.Join("testdata", "corpus")} {
		files, err := filepath.Glob(filepath.Join(dir, "*.clf"))
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(files)
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := dlfuzz.ParseCLF(file, string(src))
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			add("clf:"+filepath.ToSlash(file), prog.Body())
		}
	}
	return names, progs
}

// renderDifferential runs the two-phase pipeline at the given width and
// prints every deterministic field of both reports.
func renderDifferential(body func(*dlfuzz.Ctx), width int) string {
	var b strings.Builder
	fopts := dlfuzz.DefaultFindOptions()
	fopts.Seed = 1
	fopts.Runs = 2
	fopts.Parallelism = width
	find, err := dlfuzz.Find(body, fopts)
	if err != nil {
		fmt.Fprintf(&b, "finderr %v\n", err)
	}
	if find == nil {
		return b.String()
	}
	fmt.Fprintf(&b, "find deps=%d raw=%d runs=%d completed=%d attempts=%d seed=%d new=%v\n",
		find.Deps, find.RawDeps, find.ObservationRuns, find.CompletedRuns,
		find.Attempts, find.Seed, find.NewCyclesByRun)
	for _, c := range find.Cycles {
		fmt.Fprintf(&b, "cycle %s\n", c.Key())
	}
	for _, c := range find.FalsePositives {
		fmt.Fprintf(&b, "fp %s\n", c.Key())
	}
	for _, d := range find.ObservedDeadlocks {
		fmt.Fprintf(&b, "observed %s\n", d)
	}
	if err != nil || len(find.Cycles) == 0 {
		return b.String()
	}
	copts := dlfuzz.DefaultConfirmOptions()
	copts.Runs = 12
	copts.Parallelism = width
	copts.Ranks = find.Ranks()
	multi := dlfuzz.ConfirmAll(body, find.Cycles, copts)
	fmt.Fprintf(&b, "confirm exec=%d deadlocked=%d unmatched=%d thrashes=%d yields=%d steps=%d\n",
		multi.Executions, multi.Deadlocked, multi.Unmatched,
		multi.Thrashes, multi.Yields, multi.Steps)
	for i, r := range multi.Reports {
		fmt.Fprintf(&b, "report %d runs=%d repro=%d dead=%d thrashes=%d yields=%d steps=%d cross=%d",
			i, r.Runs, r.Reproduced, r.Deadlocked, r.Thrashes, r.Yields, r.Steps, r.CrossMatches)
		if r.Example != nil {
			fmt.Fprintf(&b, " exseed=%d ex=%s", r.ExampleSeed, r.Example)
		}
		if r.CrossExample != nil {
			fmt.Fprintf(&b, " xseed=%d x=%s", r.CrossExampleSeed, r.CrossExample)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestMutexDifferential pins the mutex-only pipeline byte-for-byte
// against the pre-extension golden, and checks widths 1/2/4 agree.
func TestMutexDifferential(t *testing.T) {
	names, progs := differentialPrograms(t)
	update := os.Getenv("DLFUZZ_UPDATE_GOLDEN") != ""

	golden := map[string]string{}
	if !update {
		golden = readGoldenSections(t, mutexGoldenPath)
	}

	var out strings.Builder
	seen := map[string]bool{}
	for _, name := range names {
		name := name
		body := progs[name]
		seen[name] = true
		serial := renderDifferential(body, 1)
		for _, width := range []int{2, 4} {
			if got := renderDifferential(body, width); got != serial {
				t.Errorf("%s: width %d diverged from serial:\n--- width 1 ---\n%s--- width %d ---\n%s",
					name, width, serial, width, got)
			}
		}
		if update {
			fmt.Fprintf(&out, "== %s ==\n%s", name, serial)
			continue
		}
		want, ok := golden[name]
		if !ok {
			t.Logf("%s: no golden section (new program, not pinned)", name)
			continue
		}
		if serial != want {
			t.Errorf("%s: report diverged from pre-extension golden:\n--- golden ---\n%s--- got ---\n%s",
				name, want, serial)
		}
	}
	if update {
		writeGolden(t, mutexGoldenPath, out.String())
		return
	}
	for name := range golden {
		if !seen[name] {
			t.Errorf("golden section %q has no matching program (removed?)", name)
		}
	}
}

// readGoldenSections parses a sectioned golden file: each "== name =="
// line opens a section whose body is every line up to the next header.
func readGoldenSections(t *testing.T, path string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with DLFUZZ_UPDATE_GOLDEN=1 to capture): %v", err)
	}
	golden := map[string]string{}
	var cur string
	var body strings.Builder
	flush := func() {
		if cur != "" {
			golden[cur] = body.String()
		}
		body.Reset()
	}
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		trimmed := strings.TrimSuffix(line, "\n")
		if strings.HasPrefix(trimmed, "== ") && strings.HasSuffix(trimmed, " ==") {
			flush()
			cur = strings.TrimSuffix(strings.TrimPrefix(trimmed, "== "), " ==")
			continue
		}
		if cur != "" {
			body.WriteString(line)
		}
	}
	flush()
	return golden
}

// writeGolden rewrites a golden file (DLFUZZ_UPDATE_GOLDEN=1 mode).
func writeGolden(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("golden updated: %s", path)
}
