# Convenience entry points; scripts/ci.sh is the source of truth for
# what a CI pass runs.

GO ?= go

.PHONY: ci build test race bench bench-smoke profile fuzz-smoke vet replay-smoke corpus-smoke corpus bakeoff-smoke blocking-smoke vm-diff

ci:
	./scripts/ci.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./internal/sched/ ./internal/analysis/ ./internal/campaign/ \
		./internal/harness/ ./internal/obs/ ./cmd/dlfuzz/

# Fuzz philosophers with -witness-dir, then replay every emitted witness
# and require each recorded deadlock to reproduce (the CI replay smoke,
# runnable on its own).
replay-smoke:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/dlfuzz -runs 30 -witness-dir "$$dir" \
		testdata/philosophers.clf >/dev/null || [ $$? -eq 1 ]; \
	$(GO) run ./cmd/dlfuzz replay "$$dir"

# Serial-vs-parallel campaign scaling on the CLF programs, the sharded
# Phase I closure at 1/2/4 workers, and the machine-readable cost
# benchmarks (BENCH_pipeline.json, BENCH_phase1.json,
# BENCH_bakeoff.json).
bench:
	$(GO) test -run='^$$' -bench=BenchmarkConfirmCampaign -benchtime=20x .
	$(GO) test -run='^$$' -bench=BenchmarkClosure -benchtime=3x .
	$(GO) run ./cmd/dlbench -pipeline-json BENCH_pipeline.json -runs 100
	$(GO) run ./cmd/dlbench -phase1-json BENCH_phase1.json -gen-seeds 8
	$(GO) run ./cmd/dlbench -bakeoff-json BENCH_bakeoff.json

# Race every registered Phase I finder over the first five corpus
# programs and require each sound finder to confirm all of its
# candidates (the CI bakeoff smoke, runnable on its own).
bakeoff-smoke:
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	$(GO) run ./cmd/dlbench -bakeoff-json "$$out" -bakeoff-entries 5 \
		-check-sound

# One pass over every benchmark — including the Phase I closure smoke
# (BenchmarkClosure at every worker count) — so benchmark-only code
# paths compile and run (the CI bench smoke, runnable on its own).
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x .

# CPU and heap profiles of the full Check pipeline on the lists
# workload, written to cpu.pprof / mem.pprof in the repo root. Inspect
# with `go tool pprof cpu.pprof`.
profile:
	$(GO) run ./cmd/dlbench -pipeline-json /dev/null -workload lists \
		-runs 400 -cpuprofile cpu.pprof -memprofile mem.pprof

fuzz-smoke:
	$(GO) test -run=Fuzz -fuzz=FuzzParser -fuzztime=10s ./internal/lang/

# Byte-identity differential between the bytecode VM and the tree-walking
# interpreter: scheduled runs, confirm campaigns and blocking analyses
# over the curated programs and the committed corpus at widths 1/2/4,
# the per-program VM parity suite, and a replay of every recorded
# FuzzInterp seed (the CI vm-diff step, runnable on its own).
vm-diff:
	$(GO) test -run 'TestVMTree' -count=1 .
	$(GO) test -run 'TestVM|FuzzInterp' -count=1 ./internal/lang/

# Run the blocking-deadlock campaign over the curated chan/WaitGroup
# suite at widths 1/2/4 and require byte-identical reports (the CI
# blocking smoke, runnable on its own). Exit 1 from the CLI means
# "deadlocks found" — expected for the planted bugs.
blocking-smoke:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/dlfuzz" ./cmd/dlfuzz || exit 1; \
	for name in $$("$$dir/dlfuzz" -list | \
		awk 'insuite && NF { print $$1 } /blocking suite/ { insuite = 1 }'); do \
		for w in 1 2 4; do \
			"$$dir/dlfuzz" -blocking -runs 20 -parallel $$w \
				-workload "$$name" > "$$dir/$$name.$$w" || [ $$? -eq 1 ] || exit 1; \
		done; \
		cmp "$$dir/$$name.1" "$$dir/$$name.2" || exit 1; \
		cmp "$$dir/$$name.1" "$$dir/$$name.4" || exit 1; \
		echo "$$name: identical at widths 1/2/4"; \
	done

# Harvest a small generator corpus into a temp dir and re-validate it,
# then re-validate the committed corpus (parse, cycle-key survival, and
# the serial-vs-parallel width differential). The CI corpus smoke,
# runnable on its own.
corpus-smoke:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/dlgen harvest -dir "$$dir" -seeds 25 -max-programs 6 \
		-confirm-runs 3 && \
	$(GO) run ./cmd/dlgen status -dir "$$dir" -check && \
	$(GO) run ./cmd/dlgen status -dir testdata/corpus -check

# Rebuild the committed scenario corpus from scratch (deterministic:
# re-running with an unchanged generator reproduces every byte).
corpus:
	$(GO) run ./cmd/dlgen harvest -dir testdata/corpus -seeds 200 \
		-confirm-runs 5 -max-programs 24 -v
