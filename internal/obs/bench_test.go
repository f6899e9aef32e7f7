package obs_test

import (
	"io"
	"testing"

	"dlfuzz/internal/obs"
)

// BenchmarkCapture captures one witness per op, cycling through the
// confirmed cycles of the built-in workloads.
func BenchmarkCapture(b *testing.B) {
	targets := workloadTargets(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := targets[i%len(targets)]
		if _, err := obs.Capture(c.prog, c.name, c.cycle, c.target, c.cfg, c.seed, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/witness")
}

// BenchmarkWitnessEncode encodes one witness per op, cycling through
// the witnesses of the built-in workloads' confirmed cycles.
func BenchmarkWitnessEncode(b *testing.B) {
	var wits []*obs.Witness
	for _, c := range workloadTargets(b) {
		wit, err := obs.Capture(c.prog, c.name, c.cycle, c.target, c.cfg, c.seed, 0)
		if err != nil {
			b.Fatal(err)
		}
		wits = append(wits, wit)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wits[i%len(wits)].Encode(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/witness")
}
