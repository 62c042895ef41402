# Verify flow. `make verify` is the tier-1 gate (see ROADMAP.md); `make race`
# runs the race detector over the parallel evaluation engine, the experiment
# harness that drives it, the serving daemon, and (in short mode) the two
# hot engines. `make serve-harness` runs the prefetch-as-a-service
# concurrency harness — N concurrent sessions over real sockets, bit-exact
# against the single-process path, clean and under fault injection — with
# the race detector on (see docs/serving.md). `make sweep-harness` runs the
# distributed-sweep chaos harness — coordinator/worker fleets under seeded
# kills, disconnects and coordinator resume, bit-identical to the clean
# single-process run — with the race detector on (see docs/distributed.md).
# `make pfdebug` re-runs the suite with the invariant assertions compiled in (see
# docs/testing.md), and `make fuzz-short` gives each native fuzz target a
# brief budget. `make chaos` runs the fault-injection suite under the race
# detector (see docs/resilience.md). `make examples` runs every example
# end to end. `make bench-micro` records the SNN,
# end-to-end simulate, simulator, evaluation-engine, prefetcher,
# PATHFINDER-advise, trace-codec and Fig. 4-lineup grid benchmarks into
# BENCH_snn.json, BENCH_simulate.json, BENCH_sim.json, BENCH_runner.json,
# BENCH_prefetch.json, BENCH_core.json, BENCH_trace.json and
# BENCH_experiments.json (see docs/performance.md; the streaming-replay
# benchmark lands in BENCH_sim.json, the decoder/encoder ones in
# BENCH_trace.json). `make bench-check` re-runs the simulator, runner,
# prefetcher, PATHFINDER-advise, SNN-kernel, trace-codec and Fig. 4-lineup
# grid benchmarks and compares them against the committed records, failing on
# >25% ns/op or allocs/op regressions, or on a recorded benchmark missing
# from the run (cmd/benchdiff). BENCH_simulate.json is recorded but not
# gated.

GO ?= go
FUZZTIME ?= 15s

.PHONY: build test vet race pfdebug chaos fuzz-short serve-harness sweep-harness examples bench bench-micro bench-check verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./internal/runner/... ./internal/experiments/... ./internal/dist/...
	$(GO) test -race -short ./internal/snn/... ./internal/sim/... ./internal/refmodel/... ./internal/trace/... ./internal/serve/...

# Run the tests with the pfdebug invariant assertions enabled (LRU stack
# property, DRAM bank legality, membrane/trace ranges, weight normalization).
pfdebug:
	$(GO) test -tags pfdebug ./...

# The chaos suite: the evaluation engine under injected panics, transient
# failures, hangs and trace corruption, plus the fault framework itself,
# all with the race detector on. The overlapped and pipelined cell tests (a
# cell's baseline, generation and timed replay side by side, the replay
# reading the file chunk by chunk) run ten times over.
chaos:
	$(GO) test -race -run 'Chaos|Journal|Flight|Progress' ./internal/runner/...
	$(GO) test -race -count=10 -run 'Overlap|Pipeline' ./internal/runner/...
	$(GO) test -race ./internal/fault/...

# Give each native fuzz target a short budget, with invariant assertions on.
# Go runs one -fuzz pattern per package invocation, so targets run in turn.
fuzz-short:
	$(GO) test -tags pfdebug ./internal/refmodel/ -run '^$$' -fuzz FuzzPresent -fuzztime $(FUZZTIME)
	$(GO) test -tags pfdebug ./internal/refmodel/ -run '^$$' -fuzz FuzzCacheAccess -fuzztime $(FUZZTIME)
	$(GO) test -tags pfdebug ./internal/sim/ -run '^$$' -fuzz FuzzPrefetchFeed -fuzztime $(FUZZTIME)
	$(GO) test -tags pfdebug ./internal/trace/ -run '^$$' -fuzz FuzzStreamRead -fuzztime $(FUZZTIME)
	$(GO) test -tags pfdebug ./internal/trace/ -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME)
	$(GO) test -tags pfdebug ./internal/trace/ -run '^$$' -fuzz FuzzReadText -fuzztime $(FUZZTIME)
	$(GO) test -tags pfdebug ./internal/trace/ -run '^$$' -fuzz FuzzReadPrefetches -fuzztime $(FUZZTIME)
	$(GO) test -tags pfdebug ./internal/serve/ -run '^$$' -fuzz FuzzServeFrame -fuzztime $(FUZZTIME)
	$(GO) test -tags pfdebug ./internal/core/ -run '^$$' -fuzz FuzzLoadSession -fuzztime $(FUZZTIME)
	$(GO) test -tags pfdebug ./internal/flat/ -run '^$$' -fuzz FuzzLRU -fuzztime $(FUZZTIME)
	$(GO) test -tags pfdebug ./internal/runner/ -run '^$$' -fuzz FuzzOpenJournal -fuzztime $(FUZZTIME)
	$(GO) test -tags pfdebug ./internal/dist/ -run '^$$' -fuzz FuzzLoadGrid -fuzztime $(FUZZTIME)
	$(GO) test -tags pfdebug ./internal/dist/ -run '^$$' -fuzz FuzzReadMsg -fuzztime $(FUZZTIME)
	$(GO) test -tags pfdebug ./ -run '^$$' -fuzz FuzzLoadPrefetcher -fuzztime $(FUZZTIME)

# The serving-daemon integration harness: concurrent client sessions over
# real sockets, per-session prediction streams bit-identical to the
# single-process path, clean and under seeded fault injection, all with
# the race detector on. The admission, eviction, spill and drain tests
# around the one session table run ten times over.
serve-harness:
	$(GO) test -race -count=1 -run 'TestHarness' ./internal/serve/
	$(GO) test -race -count=10 -run 'MaxSessions|LRUEviction|Evicted|Drain|Spill' ./internal/serve/

# The distributed-sweep chaos harness: coordinator/worker fleets over real
# sockets under seeded worker kills, disconnects and coordinator
# kill-and-resume, with survivor results required bit-identical to a clean
# single-process sweep, all with the race detector on.
sweep-harness:
	$(GO) test -race -count=1 -run 'TestSweepHarness' ./internal/dist/

# Run every example end to end. Their TestBuildGate tests only link them;
# this catches an example whose main panics or exits non-zero.
examples:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d || exit 1; \
	done

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# SNN hot-path micro-benchmarks (5 repetitions, alloc counts) aggregated
# into BENCH_snn.json and the root package's end-to-end BenchmarkSimulate
# into BENCH_simulate.json; the simulator and evaluation-engine benchmarks
# split per package (benchjson -by-pkg) into BENCH_sim.json and
# BENCH_runner.json.
BENCHCOUNT ?= 5

bench-micro:
	$(GO) test ./internal/snn -run '^$$' -bench 'BenchmarkPresent' -benchmem -count=$(BENCHCOUNT) -timeout 30m | \
	  $(GO) run ./cmd/benchjson -o BENCH_snn.json
	$(GO) test . -run '^$$' -bench 'BenchmarkSimulate$$' -benchmem -count=$(BENCHCOUNT) -timeout 30m | \
	  $(GO) run ./cmd/benchjson -o BENCH_simulate.json
	$(GO) test ./internal/sim ./internal/runner -run '^$$' -bench 'BenchmarkRun|BenchmarkEval' -benchmem -count=$(BENCHCOUNT) -timeout 30m | \
	  $(GO) run ./cmd/benchjson -by-pkg .
	$(GO) test ./internal/prefetch -run '^$$' -bench 'BenchmarkAdvise' -benchmem -count=$(BENCHCOUNT) -timeout 30m | \
	  $(GO) run ./cmd/benchjson -o BENCH_prefetch.json
	$(GO) test ./internal/core -run '^$$' -bench '^BenchmarkPathfinderAdvise$$/^ManyPC$$' -benchmem -count=$(BENCHCOUNT) -timeout 30m | \
	  $(GO) run ./cmd/benchjson -o BENCH_core.json
	$(GO) test ./internal/trace -run '^$$' -bench 'BenchmarkReaderNext|BenchmarkRead$$|BenchmarkStreamEncode' -benchmem -count=$(BENCHCOUNT) -timeout 30m | \
	  $(GO) run ./cmd/benchjson -o BENCH_trace.json
	$(GO) test ./internal/experiments -run '^$$' -bench '^BenchmarkFig4Grid$$' -benchmem -count=$(BENCHCOUNT) -timeout 30m | \
	  $(GO) run ./cmd/benchjson -o BENCH_experiments.json
	@cat BENCH_snn.json BENCH_simulate.json BENCH_sim.json BENCH_runner.json BENCH_prefetch.json BENCH_core.json BENCH_trace.json BENCH_experiments.json

# Regression gate: rerun the hot-path benchmarks and diff against the
# committed BENCH_*.json. A >25% ns/op slowdown (min of BENCHCOUNT runs)
# or any allocs/op increase fails a gate. Every gate runs and prints its
# verdict; the target then fails naming the gates that failed.
bench-check:
	@failed=""; \
	echo "== bench-check gate: sim/runner"; \
	if ! $(GO) test ./internal/sim ./internal/runner -run '^$$' -bench 'BenchmarkRun|BenchmarkEval' -benchmem -count=$(BENCHCOUNT) -timeout 30m | \
	  $(GO) run ./cmd/benchdiff -pkg internal/sim=BENCH_sim.json -pkg internal/runner=BENCH_runner.json; then failed="$$failed sim/runner"; fi; \
	echo "== bench-check gate: prefetch"; \
	if ! $(GO) test ./internal/prefetch -run '^$$' -bench 'BenchmarkAdvise' -benchmem -count=$(BENCHCOUNT) -timeout 30m | \
	  $(GO) run ./cmd/benchdiff -pkg internal/prefetch=BENCH_prefetch.json; then failed="$$failed prefetch"; fi; \
	echo "== bench-check gate: core"; \
	if ! $(GO) test ./internal/core -run '^$$' -bench '^BenchmarkPathfinderAdvise$$/^ManyPC$$' -benchmem -count=$(BENCHCOUNT) -timeout 30m | \
	  $(GO) run ./cmd/benchdiff -pkg internal/core=BENCH_core.json; then failed="$$failed core"; fi; \
	echo "== bench-check gate: snn"; \
	if ! $(GO) test ./internal/snn -run '^$$' -bench 'BenchmarkPresent' -benchmem -count=$(BENCHCOUNT) -timeout 30m | \
	  $(GO) run ./cmd/benchdiff -pkg internal/snn=BENCH_snn.json; then failed="$$failed snn"; fi; \
	echo "== bench-check gate: trace"; \
	if ! $(GO) test ./internal/trace -run '^$$' -bench 'BenchmarkReaderNext|BenchmarkRead$$|BenchmarkStreamEncode' -benchmem -count=$(BENCHCOUNT) -timeout 30m | \
	  $(GO) run ./cmd/benchdiff -pkg internal/trace=BENCH_trace.json; then failed="$$failed trace"; fi; \
	echo "== bench-check gate: experiments"; \
	if ! $(GO) test ./internal/experiments -run '^$$' -bench '^BenchmarkFig4Grid$$' -benchmem -count=$(BENCHCOUNT) -timeout 30m | \
	  $(GO) run ./cmd/benchdiff -pkg internal/experiments=BENCH_experiments.json; then failed="$$failed experiments"; fi; \
	if [ -n "$$failed" ]; then echo "bench-check: failing gates:$$failed" >&2; exit 1; fi

verify: build test vet race pfdebug
