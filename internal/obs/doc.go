// Package obs is dlfuzz's structured observability layer: exportable,
// versioned artifacts describing what a campaign did, designed so that a
// confirmed deadlock does not die with the process.
//
// Three artifact families live here, all JSON-lines or plain text so
// external tooling can consume them without this library:
//
//   - Witness traces (witness.go): a deterministic JSONL record of one
//     deadlock-confirming execution — the target cycle, every scheduling
//     decision, the active checker's pause/thrash/yield points, the sync
//     event stream, and the confirmed cycle's canonical key. Capture
//     re-executes a known-reproducing (cycle, seed) pair under a
//     recording policy; Replay drives a fresh execution through the
//     recorded schedule and asserts the identical deadlock re-forms.
//     Both run on pooled capture shells (a scheduler pool and a checker
//     policy), so a witness costs what a pooled campaign run costs.
//
//   - Run journals (journal.go): one RunRecord per campaign execution
//     (outcome, steps, acquires, pauses, thrashes, yields, wall time,
//     worker), streamed in seed order through campaign.Options.OnRun.
//     Everything except the wall-time and worker fields is a pure
//     function of the campaign's inputs, so journals diff cleanly
//     across machines and parallelism settings.
//
//   - Metrics snapshots (metrics.go): expvar-style "name value" lines
//     aggregating RunRecords globally, per outcome and per worker, for
//     quick before/after comparison next to benchmark output.
//
// The layer is strictly opt-in: with no journal, metrics sink or
// witness capture attached, campaigns run with nil hooks and the
// scheduler hot path keeps its allocation-free steady state (pinned by
// the AllocsPerRun guards in sched and fuzzer).
package obs
