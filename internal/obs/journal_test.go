package obs_test

// Run-journal contract: the stream is one record per execution in seed
// order, deterministic modulo the two wall-clock fields, and its totals
// agree with the campaign summary the same runs produced.

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dlfuzz/internal/analysis"
	"dlfuzz/internal/campaign"
	"dlfuzz/internal/harness"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/obs"
	"dlfuzz/internal/sched"
	"dlfuzz/internal/workloads"
)

// journalFixture runs Phase I on lists and returns what a journaled
// Phase II campaign needs.
func journalFixture(t *testing.T) (func(*sched.Ctx), []*igoodlock.Cycle) {
	t.Helper()
	w, ok := workloads.ByName("lists")
	if !ok {
		t.Fatal("lists workload missing")
	}
	v := harness.DefaultVariant()
	p1, err := analysis.ObserveMany(w.Prog, v.Goodlock, analysis.CampaignOptions{Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cycles := p1.Cycles
	if len(cycles) > 3 {
		cycles = cycles[:3]
	}
	if len(cycles) == 0 {
		t.Fatal("lists produced no cycles")
	}
	return w.Prog, cycles
}

// journaledCampaign runs a multi-cycle campaign with a journal attached
// and returns the decoded journal plus the campaign summary.
func journaledCampaign(t *testing.T, prog func(*sched.Ctx), cycles []*igoodlock.Cycle,
	runs, parallelism int) (*obs.JournalFile, *campaign.MultiSummary) {
	t.Helper()
	cfg := harness.DefaultVariant().Fuzzer
	var buf bytes.Buffer
	j := obs.NewJournal(&buf, obs.JournalMeta{
		Program: "workload:lists", Cycles: len(cycles),
		Runs: runs, Parallelism: parallelism,
	})
	sum := campaign.ConfirmCycles(prog, cycles, cfg, runs, 0,
		campaign.Options{Parallelism: parallelism, OnRun: j.Record})
	if err := j.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}
	jf, err := obs.ReadJournal(&buf)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	return jf, sum
}

// scrubWall zeroes the two documented nondeterministic fields.
func scrubWall(jf *obs.JournalFile) {
	for i := range jf.Runs {
		jf.Runs[i].WallNs = 0
		jf.Runs[i].Worker = 0
	}
}

// TestJournalDeterministic: two serial campaigns from the same seeds
// produce identical journals modulo wall time, and a parallel campaign
// produces the same records in the same (seed) order. Only the header's
// parallelism field may differ.
func TestJournalDeterministic(t *testing.T) {
	prog, cycles := journalFixture(t)
	ref, _ := journaledCampaign(t, prog, cycles, 45, 1)
	scrubWall(ref)
	for _, par := range []int{1, 3} {
		got, _ := journaledCampaign(t, prog, cycles, 45, par)
		scrubWall(got)
		if !reflect.DeepEqual(ref.Runs, got.Runs) {
			t.Errorf("parallelism %d: journal records diverged from serial reference", par)
		}
	}
}

// TestJournalMatchesSummary cross-checks the journal against the
// campaign's own aggregation: one record per execution, per-target run
// counts and reproduction counts in agreement, every record's scheduler
// seed derivable from its campaign seed.
func TestJournalMatchesSummary(t *testing.T) {
	prog, cycles := journalFixture(t)
	jf, sum := journaledCampaign(t, prog, cycles, 45, 2)
	if len(jf.Runs) != sum.Executions {
		t.Fatalf("journal has %d records, campaign ran %d executions", len(jf.Runs), sum.Executions)
	}
	perTarget := make([]int, len(cycles))
	perTargetRepro := make([]int, len(cycles))
	steps, deadlocked := 0, 0
	for i, r := range jf.Runs {
		if r.Seed != int64(i) {
			t.Fatalf("record %d out of seed order: seed %d", i, r.Seed)
		}
		if want := r.Seed / int64(len(cycles)); r.SchedSeed != want {
			t.Fatalf("seed %d: scheduler seed %d, want %d", r.Seed, r.SchedSeed, want)
		}
		if want := int(r.Seed) % len(cycles); r.Target != want {
			t.Fatalf("seed %d: target %d, want %d", r.Seed, r.Target, want)
		}
		perTarget[r.Target]++
		if r.Reproduced {
			perTargetRepro[r.Target]++
		}
		if r.Outcome == "deadlock" {
			deadlocked++
		}
		steps += r.Steps
	}
	if deadlocked != sum.Deadlocked {
		t.Errorf("journal saw %d deadlocked runs, summary %d", deadlocked, sum.Deadlocked)
	}
	if steps != sum.Steps {
		t.Errorf("journal steps %d, summary %d", steps, sum.Steps)
	}
	for i := range cycles {
		if perTarget[i] != sum.Cycles[i].Runs {
			t.Errorf("cycle %d: %d journal records, summary ran %d", i, perTarget[i], sum.Cycles[i].Runs)
		}
		if perTargetRepro[i] != sum.Cycles[i].Reproduced {
			t.Errorf("cycle %d: %d reproductions in journal, summary %d",
				i, perTargetRepro[i], sum.Cycles[i].Reproduced)
		}
	}
}

// TestReadJournalValidates: truncated and non-journal streams must not
// decode.
func TestReadJournalValidates(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJournal(&buf, obs.JournalMeta{Program: "workload:lists"})
	j.Record(&obs.RunRecord{Outcome: "deadlock", Steps: 3})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.String()
	lines := strings.SplitAfter(full, "\n")
	truncated := strings.Join(lines[:len(lines)-2], "") // drop the total trailer
	if _, err := obs.ReadJournal(strings.NewReader(truncated)); err == nil {
		t.Error("journal without a total trailer accepted")
	}
	if _, err := obs.ReadJournal(strings.NewReader(`{"k":"witness","v":1}` + "\n")); err == nil {
		t.Error("witness header accepted as journal")
	}
	if _, err := obs.ReadJournal(strings.NewReader(full)); err != nil {
		t.Errorf("valid journal rejected: %v", err)
	}
}

// FuzzReadJournal feeds arbitrary bytes to the journal reader, seeded
// with a committed journal. Bad input must come back as an "obs:"
// error, never a panic; an accepted journal carries the current
// version and a totals trailer that matched its run lines.
func FuzzReadJournal(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("testdata", "fig1.journal"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"k":"journal","v":1}` + "\n" + `{"k":"total","runs":1}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		jf, err := obs.ReadJournal(bytes.NewReader(data))
		if err != nil {
			if jf != nil || !strings.HasPrefix(err.Error(), "obs: ") {
				t.Fatalf("bad journal: got %v, %q", jf, err)
			}
			return
		}
		if jf.Version != obs.JournalVersion {
			t.Fatalf("accepted journal version %d", jf.Version)
		}
	})
}
