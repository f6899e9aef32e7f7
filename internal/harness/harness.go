// Package harness runs the paper's experiments over its five
// DeadlockFuzzer variants: Table 1, the Figure 2 variant sweep and its
// thrash/reproduction correlation, and the Phase I finder bakeoff. Each
// experiment drives the two phases through their single entry points,
// analysis.ObserveMany and campaign.ConfirmCycles.
package harness

import (
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/object"
	"dlfuzz/internal/predict"
)

// Variant is one of the five DeadlockFuzzer configurations compared in
// Figure 2. Phase I and Phase II must agree on the abstraction, so each
// variant carries both configs.
type Variant struct {
	Name     string
	Fuzzer   fuzzer.Config
	Goodlock predict.Config
}

// Variants returns the paper's five variants in Figure 2 order.
func Variants() []Variant {
	mk := func(name string, abs object.Abstraction, ctx, yield bool) Variant {
		return Variant{
			Name: name,
			Fuzzer: fuzzer.Config{
				Abstraction: abs, K: 10, UseContext: ctx, YieldOpt: yield,
			},
			Goodlock: predict.Config{Abstraction: abs, K: 10},
		}
	}
	return []Variant{
		mk("context+k-object", object.KObject, true, true),
		mk("context+exec-index", object.ExecIndex, true, true),
		mk("ignore-abstraction", object.Trivial, true, true),
		mk("ignore-context", object.ExecIndex, false, true),
		mk("no-yields", object.ExecIndex, true, false),
	}
}

// DefaultVariant returns variant 2, the configuration behind Table 1.
func DefaultVariant() Variant { return Variants()[1] }
