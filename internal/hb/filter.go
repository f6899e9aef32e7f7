package hb

import "dlfuzz/internal/igoodlock"

// ProvablyFalse reports whether some pair of the cycle's acquire events
// is ordered by must-happens-before. A cycle requires all of its
// components' critical sections to overlap, so if any two components'
// acquire events are ordered by must synchronization (spawn/join/latch),
// the cycle cannot occur in any execution with the same must-sync
// structure. It is the one definition that finder-agnostic candidate
// partitioning (and sound finders' prefilters) share.
//
// Components whose dependencies carry no clocks (recorder ran without a
// ClockSource, or the dependency was merged across observation runs)
// never prove a cycle false. For relations merged from a multi-seed
// observation campaign, clocks are only compared between dependencies
// recorded in the same run (Dep.Run): one run's ordering says nothing
// about another's, so cross-run component pairs are treated as
// potentially concurrent.
func ProvablyFalse(c *igoodlock.Cycle) bool {
	for i := range c.Components {
		di := c.Components[i].Dep
		vi := VC(di.VC)
		if vi == nil {
			continue
		}
		for j := i + 1; j < len(c.Components); j++ {
			dj := c.Components[j].Dep
			if dj.Run != di.Run {
				continue // clocks from different runs are incomparable
			}
			vj := VC(dj.VC)
			if vj == nil {
				continue
			}
			if Ordered(vi, vj) {
				return true
			}
		}
	}
	return false
}
