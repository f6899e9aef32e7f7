// Package obs is dlfuzz's structured observability layer: exportable,
// versioned artifacts describing what a campaign did, designed so that a
// confirmed deadlock does not die with the process.
//
// Two artifact families live here, both JSON lines so external tooling
// can consume them without this library:
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
//     across machines and parallelism settings. The journal is the one
//     run-record format: its trailer carries the campaign totals, and
//     per-outcome or per-worker aggregates fold out of ReadJournal's
//     records.
//
// The layer is strictly opt-in: with no journal or witness capture
// attached, campaigns run with nil hooks and the scheduler hot path
// keeps its allocation-free steady state (pinned by the AllocsPerRun
// guards in sched and fuzzer).
package obs
