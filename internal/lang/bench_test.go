package lang_test

import (
	"os"
	"path/filepath"
	"testing"

	"dlfuzz/internal/lang"
	"dlfuzz/internal/sched"
)

// BenchmarkCLFInterp compares the CLF back ends: each iteration is one
// plain scheduled execution of a committed program, once per back end
// sub-benchmark, reporting steps/sec. The programs are philosophers,
// pipeline, the compute-bound dense.clf and every committed corpus
// entry. The corpus entries are lock-dense, so the shared handshake
// bounds the VM's advantage there; dense.clf brackets the ratio from
// the other side. The VM's speedup over the tree-walker here is the
// number EXPERIMENTS.md records.
func BenchmarkCLFInterp(b *testing.B) {
	names := []string{"philosophers.clf", "pipeline.clf", "dense.clf"}
	corpus, err := filepath.Glob(filepath.Join(testdata, "corpus", "gen-*.clf"))
	if err != nil {
		b.Fatal(err)
	}
	for _, file := range corpus {
		names = append(names, filepath.Join("corpus", filepath.Base(file)))
	}
	for _, name := range names {
		src, err := os.ReadFile(filepath.Join(testdata, name))
		if err != nil {
			b.Fatal(err)
		}
		prog, err := lang.Parse(name, string(src))
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
