package lang_test

import (
	"os"
	"path/filepath"
	"testing"

	"dlfuzz/internal/lang"
	"dlfuzz/internal/lang/gen"
	"dlfuzz/internal/sched"
)

// BenchmarkCLFInterp compares the CLF back ends: each iteration is one
// plain scheduled execution of a program, once per back end
// sub-benchmark, reporting steps/sec. The programs are philosophers,
// pipeline, the compute-bound dense.clf, every committed corpus entry
// and gen.Large's seed-1 program, most of whose runs deadlock. The
// corpus entries are lock-dense, so the scheduler's share bounds the
// VM's advantage there; dense.clf brackets the ratio from the other
// side. The VM runs its threads as sched.Machines, the tree-walker on
// coroutines, so a cross-thread grant and a deadlocked run's teardown
// differ in cost between the two as well. The VM's speedup over the
// tree-walker here is the number EXPERIMENTS.md records.
func BenchmarkCLFInterp(b *testing.B) {
	names := []string{"philosophers.clf", "pipeline.clf", "dense.clf"}
	corpus, err := filepath.Glob(filepath.Join(testdata, "corpus", "gen-*.clf"))
	if err != nil {
		b.Fatal(err)
	}
	for _, file := range corpus {
		names = append(names, filepath.Join("corpus", filepath.Base(file)))
	}
	srcs := map[string]string{}
	for _, name := range names {
		src, err := os.ReadFile(filepath.Join(testdata, name))
		if err != nil {
			b.Fatal(err)
		}
		srcs[name] = string(src)
	}
	large := "gen-large-1.clf"
	names = append(names, large)
	srcs[large] = gen.Generate(1, gen.Large())
	for _, name := range names {
		prog, err := lang.Parse(name, srcs[name])
		if err != nil {
			b.Fatal(err)
		}
		for _, backend := range []struct {
			name string
			body func(*sched.Ctx)
		}{
			{"vm", lang.NewInterp(prog, nil).Main()},
			{"tree", lang.TreeWalkMain(lang.NewInterp(prog, nil))},
		} {
			backend := backend
			b.Run(name+"/"+backend.name, func(b *testing.B) {
				steps := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					steps += sched.New(sched.Options{Seed: int64(i)}).Run(backend.body).Steps
				}
				b.StopTimer()
				if b.Elapsed() > 0 {
					b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/sec")
				}
			})
		}
	}
}
