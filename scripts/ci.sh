#!/usr/bin/env bash
# Tier-1 CI for dlfuzz, also available as `make ci`:
#
#   1. go vet            — static checks
#   1b. gofmt            — every Go file is gofmt-clean (`make fmt-check`)
#   2. go build          — every package compiles
#   3. go test           — the full suite (runs campaigns through the
#                          parallel engine by default)
#   3b. go test at one P — the scheduler, the campaign engine, the CLF
#                          VM (its unwind parity included) and the root
#                          suites again at GOMAXPROCS=1, the P count the
#                          benchmark runs at
#   4. go test -race     — the scheduler (whose Go-bodied threads hand
#                          the turn between coroutines, whose CLF threads
#                          start on one, and whose warm shells move
#                          between goroutines), the analysis
#                          pipeline, the concurrent campaign engine, the
#                          harness built on them, the Phase II runner
#                          drawing shells from the shared warm set, the
#                          observability layer, the CLF interpreter
#                          (print() from parallel workers) and the dlfuzz
#                          CLI must be race-clean (`make race`)
#   4b. bench module     — the benchmark's own tests (`cd bench && go
#                          test ./...`): the traced check must match the
#                          untraced one, and every workload runs once
#   5. fuzz smoke        — FuzzParser, FuzzReadWitness, FuzzReadJournal
#                          and FuzzDecodeManifest each
#                          explore for a few seconds from their seeded
#                          corpora (FuzzParser also holds Parse to the
#                          first lexing error of its input), FuzzInterp
#                          holds the bytecode VM to the test-only
#                          tree-walker on every program the parser
#                          accepts, FuzzWitnessEncode holds the witness
#                          encoder to encoding/json's bytes,
#                          FuzzActivePolicy holds the incremental Phase II
#                          policy to the full-rescan reference on
#                          generated programs, and FuzzSoloGrant holds
#                          every policy that takes forced runs in one
#                          call (SoloPolicy) to its step-by-step self on
#                          generated programs of every preset and on the
#                          hand-written forced-run cases,
#                          FuzzEnabledMatchesRescan holds the enabled set
#                          the scheduler keeps across state-neutral
#                          grants to a full rescan on generated programs,
#                          and FuzzWarmShell holds every Result kept from
#                          generated programs run interleaved on one warm
#                          shell (its object arena reused run after run)
#                          to a brand-new shell's run of the same seed
#   6. vm diff           — the bytecode VM and the test-only
#                          tree-walking reference interpreter must be
#                          byte-identical (events, output, campaign
#                          reports) over the curated programs, the
#                          committed corpus and the recorded FuzzInterp
#                          seeds (`make vm-diff`, one package:
#                          internal/lang)
#   7. bench smoke       — every root benchmark and BenchmarkCLFInterp
#                          run once, so benchmark-only code paths
#                          (pooled runners, allocation reporting,
#                          BenchmarkCheck behind `make profile`, the
#                          tree-walker's benchmark) cannot rot between
#                          perf runs
#   8. replay smoke      — fuzz philosophers with -witness-dir, then
#                          `dlfuzz replay` every emitted witness; record
#                          a step-limited `dlfuzz run` and replay it with
#                          `dlfuzz replay`: exit 0, same outcome line
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
# Steps 1b, 4 and 5–11 are Makefile targets, so each smoke has one
# definition and runs on its own too. FUZZTIME overrides the fuzz smoke
# window (the Makefile's default is 10s). Performance is measured by the
# benchmark under bench/, not here.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet ./... =="
go vet ./...

echo "== gofmt: every Go file formatted =="
make fmt-check

echo "== go build ./... =="
go build ./...

echo "== go test ./... =="
go test ./...

echo "== go test at GOMAXPROCS=1 (sched + campaign + lang + root suites) =="
GOMAXPROCS=1 go test -count=1 ./internal/sched/ ./internal/campaign/ ./internal/lang/ .

echo "== go test -race (sched + analysis + campaign + harness + fuzzer + obs + lang + dlfuzz CLI) =="
make race

echo "== bench module: traced ≡ untraced fidelity and every-workload smoke =="
(cd bench && go test ./...)

echo "== fuzz smoke: every decoder target, the VM differential, the witness encoder, the active policy, forced runs, the kept enabled set and results kept across warm-shell reuse for ${FUZZTIME:-10s} each =="
make fuzz-smoke

echo "== vm diff: bytecode VM vs test-only tree-walker byte identity =="
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
