package report

import (
	"fmt"
	"io"
	"strings"

	"dlfuzz/internal/obs"
)

// WriteWitness renders a witness trace for humans: what ran, the
// targeted cycle, how the checker steered, and the confirmed deadlock —
// the `dlfuzz replay` counterpart to the JSONL the witness is stored as.
// A witness with no components (a plain recorded run) names no target,
// and one with no deadlock says so.
func WriteWitness(w io.Writer, wit *obs.Witness) {
	targeted := len(wit.Components) > 0
	fmt.Fprintf(w, "witness v%d: %s (sched seed %d, ", obs.WitnessVersion, wit.Program, wit.SchedSeed)
	if targeted {
		fmt.Fprintf(w, "target cycle %d, ", wit.Target)
	}
	fmt.Fprintf(w, "%s/k=%d)\n", wit.Config.Abstraction, wit.Config.K)
	for _, c := range wit.Components {
		fmt.Fprintf(w, "  component %d: thread %s acquires %s", c.Index, c.Thread, c.Lock)
		if len(c.Context) > 0 {
			fmt.Fprintf(w, " at [%s]", strings.Join(c.Context, ", "))
		}
		fmt.Fprintln(w)
	}
	pauses, thrashes, yields, evicts := 0, 0, 0, 0
	for _, p := range wit.Points {
		switch p.Kind {
		case "pause":
			pauses++
		case "thrash":
			thrashes++
		case "yield":
			yields++
		case "evict":
			evicts++
		}
	}
	fmt.Fprintf(w, "  schedule: %d decisions, %d pauses, %d thrashes, %d yields, %d evictions\n",
		len(wit.Schedule), pauses, thrashes, yields, evicts)
	if wit.DeadlockKey == "" {
		fmt.Fprintln(w, "  no deadlock")
		return
	}
	fmt.Fprintf(w, "  deadlock at step %d", wit.DeadlockStep)
	if wit.Reproduced() {
		fmt.Fprint(w, " (reproduces the targeted cycle)")
	} else if targeted {
		fmt.Fprint(w, " (different cycle than targeted)")
	}
	fmt.Fprintln(w)
	for _, e := range wit.Edges {
		fmt.Fprintf(w, "    t%d wants %s@%s holding [%s]\n",
			e.Thread, e.Want, e.WantLoc, strings.Join(e.Held, ", "))
	}
}
