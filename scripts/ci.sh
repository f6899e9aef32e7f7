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
#                          harness built on them, the observability layer
#                          and the dlfuzz CLI must be race-clean
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
#                          reporting) cannot rot between perf runs
#   8. pipeline bench    — machine-readable Check cost over the Figure-2
#                          workloads and the CLF corpus (each CLF row
#                          once per interpreter back end), written to
#                          BENCH_pipeline.json; the fresh stepsPerSec
#                          column is compared per row name against the
#                          committed baseline and WARNS (never fails)
#                          on a large drop
#   9. phase1 bench      — multi-seed observation campaign stats and
#                          sharded-closure wall times (BENCH_phase1.json)
#  10. replay smoke      — fuzz philosophers with -witness-dir, then
#                          `dlfuzz replay` every emitted witness
#  11. corpus smoke      — dlgen harvests a fresh 25-seed corpus into a
#                          temp dir and re-validates it, then re-validates
#                          the committed testdata/corpus (every program
#                          must still parse, report its manifest cycle
#                          keys, and pass the serial-vs-parallel width
#                          differential)
#  12. bakeoff smoke     — every registered Phase I finder runs over the
#                          first five corpus programs; a finder that
#                          declares itself sound must have zero
#                          Phase-II-unconfirmed candidates
#  13. blocking smoke    — the blocking-deadlock campaign runs over the
#                          curated chan/WaitGroup suite at widths 1/2/4
#                          and must produce byte-identical reports
#  14. docs links        — every relative link in README.md and
#                          docs/*.md resolves to a file in the repo
#
# FUZZTIME overrides the smoke window (default 10s); BENCHRUNS the
# pipeline benchmark's Phase II budget (default 40).
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"
BENCHRUNS="${BENCHRUNS:-40}"

echo "== go vet ./... =="
go vet ./...

echo "== go build ./... =="
go build ./...

echo "== go test ./... =="
go test ./...

echo "== go test at GOMAXPROCS=1 (sched + campaign + root suites) =="
GOMAXPROCS=1 go test -count=1 ./internal/sched/ ./internal/campaign/ .

echo "== go test -race (sched + analysis + campaign + harness + obs + dlfuzz CLI) =="
make race

echo "== bench module: traced ≡ untraced fidelity and every-workload smoke =="
(cd bench && go test ./...)

echo "== fuzz smoke: every decoder target and the witness encoder for ${FUZZTIME} each =="
go test -run=Fuzz -fuzz=FuzzParser -fuzztime="${FUZZTIME}" ./internal/lang/
go test -run=Fuzz -fuzz=FuzzReadWitness -fuzztime="${FUZZTIME}" ./internal/obs/
go test -run=Fuzz -fuzz=FuzzWitnessEncode -fuzztime="${FUZZTIME}" ./internal/obs/
go test -run=Fuzz -fuzz=FuzzReadJournal -fuzztime="${FUZZTIME}" ./internal/obs/
go test -run=Fuzz -fuzz=FuzzReadSchedule -fuzztime="${FUZZTIME}" ./internal/trace/
go test -run=Fuzz -fuzz=FuzzDecodeManifest -fuzztime="${FUZZTIME}" ./internal/corpus/

echo "== vm diff: bytecode VM vs tree-walker byte identity =="
# The full differential (curated programs + committed corpus at widths
# 1/2/4, parity suite, recorded FuzzInterp seeds); `make vm-diff` runs
# the same thing. The pipeline-bench baseline compare below extends to
# the CLF rows automatically: the join is keyed by workload name, and
# each corpus entry benches as clf/<name>@vm and clf/<name>@tree.
make vm-diff

echo "== bench smoke: every benchmark once =="
go test -run='^$' -bench=. -benchtime=1x .

echo "== pipeline bench: Check cost over Figure-2 workloads =="
baseline=""
if [ -f BENCH_pipeline.json ]; then
	baseline="$(mktemp)"
	cp BENCH_pipeline.json "$baseline"
fi
go run ./cmd/dlbench -pipeline-json BENCH_pipeline.json -runs "${BENCHRUNS}"
if [ -n "$baseline" ]; then
	# Compare the machine-dependent columns per workload against the
	# committed baseline. Wall-clock on shared runners is far too noisy
	# to gate on, so every comparison here only warns: throughput below
	# a third of baseline, or allocations per step above thrice it.
	metric() {
		awk -v key="\"$2\"" '/"workload"/ { gsub(/[",]/, "", $2); w = $2 }
		     $1 == key":" { gsub(/,/, "", $2); print w, $2 }' "$1" | sort
	}
	join <(metric "$baseline" stepsPerSec) <(metric BENCH_pipeline.json stepsPerSec) | awk '
		$2 > 0 && $3 < $2 / 3 {
			printf "WARN: %s stepsPerSec %s -> %s (fell below 1/3 of baseline)\n", $1, $2, $3
			warned = 1
		}
		END { if (!warned) print "stepsPerSec within tolerance of committed baseline" }'
	join <(metric "$baseline" allocsPerStep) <(metric BENCH_pipeline.json allocsPerStep) | awk '
		$2 > 0 && $3 > $2 * 3 {
			printf "WARN: %s allocsPerStep %s -> %s (rose above 3x baseline)\n", $1, $2, $3
			warned = 1
		}
		END { if (!warned) print "allocsPerStep within tolerance of committed baseline" }'
	rm -f "$baseline"
fi

echo "== phase1 bench: observation campaign + sharded closure =="
go run ./cmd/dlbench -phase1-json BENCH_phase1.json -gen-seeds 8
# The closure speedup gate needs real cores: at GOMAXPROCS=1 the sharded
# rounds time-slice one CPU and speedup4 is pure scheduling noise. The
# bench records the GOMAXPROCS it ran under; gate on that.
benchprocs="$(awk '/"gomaxprocs"/ { gsub(/,/, "", $2); print $2; exit }' BENCH_phase1.json)"
if [ "${benchprocs:-1}" -gt 1 ]; then
	awk '/"maxLen"/ { gsub(/,/, "", $2); ml = $2 }
	     /"speedup4"/ { gsub(/,/, "", $2)
	         if ($2 + 0 <= 1.0) {
	             printf "WARN: closure maxLen=%s speedup4=%s (parallel closure not faster than serial)\n", ml, $2
	             warned = 1
	         } }
	     END { if (!warned) print "closure speedup4 > 1.0 at every maxLen" }' BENCH_phase1.json
else
	echo "closure speedup4 gate skipped (GOMAXPROCS=1)"
fi

echo "== replay smoke: witness round trip on philosophers =="
witdir="$(mktemp -d)"
trap 'rm -rf "$witdir"' EXIT
# Exit 1 means "deadlocks found" — expected here; anything else is a failure.
go run ./cmd/dlfuzz -runs 30 -witness-dir "$witdir" \
	testdata/philosophers.clf >/dev/null || [ $? -eq 1 ]
go run ./cmd/dlfuzz replay -q "$witdir"

echo "== corpus smoke: harvest 25 seeds, validate fresh and committed corpora =="
corpusdir="$(mktemp -d)"
trap 'rm -rf "$witdir" "$corpusdir"' EXIT
go run ./cmd/dlgen harvest -dir "$corpusdir" -seeds 25 -max-programs 6 \
	-confirm-runs 3 >/dev/null
go run ./cmd/dlgen status -dir "$corpusdir" -check >/dev/null
go run ./cmd/dlgen status -dir testdata/corpus -check

echo "== bakeoff smoke: finder bakeoff + sound-finder gate on 5 corpus entries =="
bakeoff="$(mktemp)"
trap 'rm -rf "$witdir" "$corpusdir" "$bakeoff"' EXIT
go run ./cmd/dlbench -bakeoff-json "$bakeoff" -bakeoff-entries 5 -check-sound

echo "== blocking smoke: blocking campaign byte-identical at widths 1/2/4 =="
blockdir="$(mktemp -d)"
trap 'rm -rf "$witdir" "$corpusdir" "$bakeoff" "$blockdir"' EXIT
# Every workload the CLI lists under the blocking suite; exit 1 means
# "deadlocks found" and is expected for the planted bugs.
go build -o "$blockdir/dlfuzz" ./cmd/dlfuzz
for name in $("$blockdir/dlfuzz" -list |
	awk 'insuite && NF { print $1 } /blocking suite/ { insuite = 1 }'); do
	for w in 1 2 4; do
		"$blockdir/dlfuzz" -blocking -runs 20 -parallel "$w" \
			-workload "$name" > "$blockdir/$name.$w" || [ $? -eq 1 ]
	done
	cmp "$blockdir/$name.1" "$blockdir/$name.2"
	cmp "$blockdir/$name.1" "$blockdir/$name.4"
done
echo "blocking reports identical at widths 1/2/4"

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
