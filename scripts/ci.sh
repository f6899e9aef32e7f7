#!/usr/bin/env bash
# Tier-1 CI for dlfuzz, also available as `make ci`:
#
#   1. go vet            — static checks
#   2. go build          — every package compiles
#   3. go test           — the full suite (runs campaigns through the
#                          parallel engine by default)
#   3b. go test at one P — the scheduler, the campaign engine and the
#                          root suites again at GOMAXPROCS=1, the P
#                          count the benchmark runs at
#   4. go test -race     — the scheduler (whose thread coroutines hand
#                          the turn between goroutines), the analysis
#                          pipeline, the concurrent campaign engine, the
#                          harness built on them, the observability layer,
#                          the CLF interpreter (print() from parallel
#                          workers) and the dlfuzz CLI must be race-clean
#                          (`make race`)
#   4b. bench module     — the benchmark's own tests (`cd bench && go
#                          test ./...`): the traced check must match the
#                          untraced one, and every workload runs once
#   5. fuzz smoke        — FuzzParser, FuzzReadWitness, FuzzReadJournal,
#                          FuzzReadSchedule and FuzzDecodeManifest each
#                          explore for a few seconds from their seeded
#                          corpora, and FuzzWitnessEncode holds the
#                          witness encoder to encoding/json's bytes
#   6. vm diff           — the bytecode VM and the tree-walking
#                          interpreter must be byte-identical (events,
#                          output, campaign reports) over the curated
#                          programs, the committed corpus and the
#                          recorded FuzzInterp seeds (`make vm-diff`)
#   7. bench smoke       — every benchmark runs once, so benchmark-only
#                          code paths (pooled runners, allocation
#                          reporting, BenchmarkCheck behind `make
#                          profile`) cannot rot between perf runs
#   8. replay smoke      — fuzz philosophers with -witness-dir, then
#                          `dlfuzz replay` every emitted witness
#   9. corpus smoke      — dlgen harvests a fresh 25-seed corpus into a
#                          temp dir and re-validates it, then re-validates
#                          the committed testdata/corpus (every program
#                          must still parse, report its manifest cycle
#                          keys, and pass the serial-vs-parallel width
#                          differential)
#  10. bakeoff smoke     — every registered Phase I finder runs over the
#                          first five corpus programs; a finder that
#                          declares itself sound must have zero
#                          Phase-II-unconfirmed candidates
#  11. blocking smoke    — the blocking-deadlock campaign runs over the
#                          curated chan/WaitGroup suite at widths 1/2/4
#                          and must produce byte-identical reports
#  12. docs links        — every relative link in README.md and
#                          docs/*.md resolves to a file in the repo
#
# Steps 4 and 5–11 are Makefile targets, so each smoke has one
# definition and runs on its own too. FUZZTIME overrides the fuzz smoke
# window (the Makefile's default is 10s). Performance is measured by the
# benchmark under bench/, not here.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet ./... =="
go vet ./...

echo "== go build ./... =="
go build ./...

echo "== go test ./... =="
go test ./...

echo "== go test at GOMAXPROCS=1 (sched + campaign + root suites) =="
GOMAXPROCS=1 go test -count=1 ./internal/sched/ ./internal/campaign/ .

echo "== go test -race (sched + analysis + campaign + harness + obs + lang + dlfuzz CLI) =="
make race

echo "== bench module: traced ≡ untraced fidelity and every-workload smoke =="
(cd bench && go test ./...)

echo "== fuzz smoke: every decoder target and the witness encoder for ${FUZZTIME:-10s} each =="
make fuzz-smoke

echo "== vm diff: bytecode VM vs tree-walker byte identity =="
make vm-diff

echo "== bench smoke: every benchmark once =="
make bench-smoke

echo "== replay smoke: witness round trip on philosophers =="
make replay-smoke

echo "== corpus smoke: harvest 25 seeds, validate fresh and committed corpora =="
make corpus-smoke

echo "== bakeoff smoke: finder bakeoff + sound-finder gate on 5 corpus entries =="
make bakeoff-smoke

echo "== blocking smoke: blocking campaign byte-identical at widths 1/2/4 =="
make blocking-smoke

echo "== docs links: relative links in README.md and docs/*.md resolve =="
bad=0
for doc in README.md docs/*.md; do
	base="$(dirname "$doc")"
	# Markdown links, minus absolute URLs and in-page anchors.
	for target in $(grep -o ']([^)]*)' "$doc" | sed 's/^](//; s/)$//' |
		grep -v '^http' | grep -v '^#' | sed 's/#.*//'); do
		if [ ! -e "$base/$target" ]; then
			echo "broken link in $doc: $target"
			bad=1
		fi
	done
done
[ "$bad" -eq 0 ]

echo "CI OK"
