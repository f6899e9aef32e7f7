package workloads_test

import (
	"strings"
	"testing"

	"dlfuzz/internal/analysis"
	"dlfuzz/internal/harness"
	. "dlfuzz/internal/workloads"
)

// These tests pin the Figure 2 shape claims: the relative behaviour of
// the five DeadlockFuzzer variants that the paper's evaluation turns on.
// Campaign sizes are kept small; the claims are about orderings with
// wide margins, not absolute values.

// variantCampaign measures one (workload, variant) pair over a few
// cycles and seeds.
func variantCampaign(t *testing.T, w Workload, v harness.Variant, maxCycles, runs int) (prob, thrash float64) {
	t.Helper()
	p1, err := analysis.ObserveMany(w.Prog, v.Goodlock, analysis.CampaignOptions{Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cycles := p1.Cycles
	if maxCycles > 0 && len(cycles) > maxCycles {
		cycles = cycles[:maxCycles]
	}
	if len(cycles) == 0 {
		t.Fatalf("%s/%s: no cycles", w.Name, v.Name)
	}
	for _, cyc := range cycles {
		sum := confirmOne(w, cyc, v.Fuzzer, runs)
		prob += sum.Probability()
		thrash += sum.AvgThrashes()
	}
	n := float64(len(cycles))
	return prob / n, thrash / n
}

func variantByName(t *testing.T, name string) harness.Variant {
	t.Helper()
	for _, v := range harness.Variants() {
		if v.Name == name {
			return v
		}
	}
	t.Fatalf("unknown variant %s", name)
	return harness.Variant{}
}

// TestFigure2TrivialAbstractionHurtsCollections: the paper's headline
// variant-3 effect — with the trivial abstraction the checker steers
// toward the wrong objects on the list benchmarks.
func TestFigure2TrivialAbstractionHurtsCollections(t *testing.T) {
	if testing.Short() {
		t.Skip("variant sweep")
	}
	w, _ := ByName("lists")
	v2 := harness.DefaultVariant()
	v3 := variantByName(t, "ignore-abstraction")
	p2, _ := variantCampaign(t, w, v2, 6, 10)
	p3, _ := variantCampaign(t, w, v3, 6, 10)
	if p2 < 0.9 {
		t.Errorf("variant 2 on lists: prob %.2f", p2)
	}
	if p3 >= p2-0.2 {
		t.Errorf("variant 3 (%.2f) should be clearly below variant 2 (%.2f) on lists", p3, p2)
	}
}

// TestFigure2NoYieldsHurtsMaps: without yields, a competing deadlock on
// the same two monitors frequently fires before the requested one — the
// paper's explanation of the Maps row.
func TestFigure2NoYieldsHurtsMaps(t *testing.T) {
	if testing.Short() {
		t.Skip("variant sweep")
	}
	w, _ := ByName("maps")
	v2 := harness.DefaultVariant()
	v5 := variantByName(t, "no-yields")
	p2, _ := variantCampaign(t, w, v2, 8, 10)
	p5, _ := variantCampaign(t, w, v5, 8, 10)
	if p2 < 0.9 {
		t.Errorf("variant 2 on maps: prob %.2f", p2)
	}
	if p5 > 0.75 {
		t.Errorf("no-yields on maps should show the competing-deadlock effect: prob %.2f", p5)
	}
}

// TestFigure2NoContextThrashesSwing: the same locks are acquired at many
// program locations in Swing; without contexts the checker pauses at all
// of them.
func TestFigure2NoContextThrashesSwing(t *testing.T) {
	if testing.Short() {
		t.Skip("variant sweep")
	}
	w, _ := ByName("swing")
	v2 := harness.DefaultVariant()
	v4 := variantByName(t, "ignore-context")
	_, th2 := variantCampaign(t, w, v2, 1, 10)
	_, th4 := variantCampaign(t, w, v4, 1, 10)
	if th4 < th2+2 {
		t.Errorf("ignore-context should thrash far more on swing: %.2f vs %.2f", th4, th2)
	}
}

// TestFigure2KObjectThrashesWhereFactoriesCollapse: the k-object
// abstraction cannot tell factory-allocated objects apart, so it pauses
// decoys and thrashes on log/dbcp where exec-indexing does not.
func TestFigure2KObjectThrashesWhereFactoriesCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("variant sweep")
	}
	v1 := variantByName(t, "context+k-object")
	v2 := harness.DefaultVariant()
	for _, name := range []string{"log", "dbcp"} {
		w, _ := ByName(name)
		_, th1 := variantCampaign(t, w, v1, 3, 10)
		_, th2 := variantCampaign(t, w, v2, 3, 10)
		if th1 <= th2 {
			t.Errorf("%s: k-object should thrash more than exec-index (%.2f vs %.2f)", name, th1, th2)
		}
	}
}

// TestJigsawModestProbability pins the Table 1 jigsaw shape: real
// cycles exist but reproduce with clearly sub-1 probability because the
// keep-alive budget race can route the targeted client away from the
// locks.
func TestJigsawModestProbability(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	w, _ := ByName("jigsaw")
	p1, err := analysis.ObserveMany(w.Prog, harness.DefaultVariant().Goodlock, analysis.CampaignOptions{Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var probSum float64
	clientCycles := 0
	for _, cyc := range p1.Cycles {
		sum := confirmOne(w, cyc, harness.DefaultVariant().Fuzzer, 20)
		// Only the client cycles are budget-gated; the idle-killer
		// cycle reproduces nearly always.
		if strings.Contains(cyc.String(), "clientConnectionFinished") {
			clientCycles++
			probSum += sum.Probability()
		}
	}
	if clientCycles == 0 {
		t.Fatal("no client cycles found")
	}
	avg := probSum / float64(clientCycles)
	if avg < 0.05 || avg > 0.85 {
		t.Errorf("client-cycle probability %.2f should be modest (budget race)", avg)
	}
}
