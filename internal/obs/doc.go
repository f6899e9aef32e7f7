// Package obs is dlfuzz's structured observability layer: exportable,
// versioned artifacts describing what a campaign did, designed so that a
// confirmed deadlock does not die with the process.
//
// Three artifact families live here, all JSON lines so external
// tooling can consume them without this library:
//
//   - Witness traces (witness.go): a deterministic JSONL record of one
//     deadlock-confirming execution — the target cycle, every scheduling
//     decision, the active checker's pause/thrash/yield points, the sync
//     event stream, and the confirmed cycle's canonical key. Capture
//     re-executes a known-reproducing (cycle, seed) pair under a
//     RecordingPolicy; Replay drives a fresh execution through the
//     recorded schedule with a ReplayPolicy, at the witness's seed and
//     step bound (Witness.ReplayOptions), and asserts the recorded run
//     re-forms: it stays on the schedule and ends with the recorded
//     deadlock key. Both run on warm scheduler shells, like every
//     execution, and Capture on a pooled checker policy, so a witness
//     costs what a campaign run costs. Witnesses are the one schedule
//     format: a schedule is the witness's []int from recording to
//     replay. `dlfuzz run -record` records single runs through the same
//     policies, and Replay checks every witness, one that recorded no
//     deadlock included (its DeadlockKey is empty).
//
//   - Event traces (trace.go): the full event stream of one run, one
//     record per scheduler event, written by Collector (`dlfuzz run
//     -trace`). A trace record and a witness's ev line are two
//     encodings of one event, kept apart on purpose: the trace bytes
//     are hashed by the batching golden and the ev line is pinned by
//     the witness goldens, so one encoder for both would move one of
//     those byte contracts.
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
