// Package analysis is the composable single-pass pipeline layer: one
// scheduled execution, observed by any set of typed analyses at once.
//
// The paper's two phases are really one event stream consumed by several
// analyses — the lock-dependency recorder (Definition 1), the vector-clock
// tracker behind the happens-before filter, an event-trace collector, simple
// event statistics. Without a shared pipeline each consumer is
// hand-threaded through its caller: a hardcoded observer list per entry
// point, and another bespoke wiring site for every new consumer. A Pipeline makes the
// wiring declarative: attach the analyses you want, run the program once,
// and read each analysis's typed result. Single-pass sharing is the
// architectural direction of the linear-time prediction line of work
// (Tunç et al. 2023) — one observed execution amortized across every
// analysis that wants it.
//
// Attachment order is significant exactly once: an analysis that consumes
// another's per-event state (the dependency recorder reading the HB
// tracker's clocks) must be attached after its supplier, because the
// scheduler notifies observers in attachment order. The convenience
// constructors (HB, LockDeps) encode that contract in their signatures:
// LockDeps takes the clock source it depends on.
package analysis
