# AMPeD build/verify/bench entry points. Everything is plain `go` — no
# external tools — so every target works in the bare module checkout.

GO ?= go
SWEEP_BENCH := 'BenchmarkSweep(GPT3|Megatron530B|MoE)$$|BenchmarkEvaluate$$|BenchmarkSolveGPT3$$|BenchmarkSessionEvaluateInferencePoint$$|Benchmark(Sort|Top)ByTime$$|BenchmarkSpaceTop(Roofline)?$$|BenchmarkEnumerate$$'
SERVE_BENCH := 'BenchmarkSessionEvaluatePoint(Traced|Roofline)?$$|BenchmarkShardedSweep(ChaosOff)?$$|BenchmarkShardStreamChunks$$'
BATCH_BENCH := 'BenchmarkEvaluateBatch|BenchmarkSessionEvaluatePoint$$'

.PHONY: build test verify serve-smoke bench-check audit chaos bench bench-sweep bench-serve bench-batch loc clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## loc prints the non-test Go line count of every package under internal/
## and cmd/, then their total — the size measure a change reports.
loc:
	@for d in $$(find internal cmd -name '*.go' ! -name '*_test.go' -exec dirname {} + | sort -u); do \
		printf '%7d %s\n' $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l) $$d; \
	done
	@printf '%7d total\n' $$(find internal cmd -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)

## verify is the tier-1 gate: compile, vet, full test suite (in a random
## test order to keep order dependencies out), the amped-serve end-to-end
## smoke check, and the benchmark module's own tests.
verify:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -shuffle=on ./...
	$(MAKE) serve-smoke
	$(MAKE) bench-check

## bench-check runs the tests of the nested bench/ module — its goldens,
## reference oracle and smoke runs — which `./...` does not reach. A
## ranking change that breaks them fails here instead of in a benchmark run.
bench-check:
	cd bench && $(GO) test .

## serve-smoke builds the real amped-serve binary, starts it on an
## ephemeral port, probes /healthz, round-trips one /v1/evaluate and one
## small /v1/sweep against the GPT-3 preset, and exercises the SIGTERM
## drain path.
serve-smoke:
	AMPED_SERVE_SMOKE=1 $(GO) test -run TestServeSmoke -count=1 ./cmd/amped-serve/

## audit is the tier-2 correctness gate: 500 randomized scenarios through
## the four-way differential + metamorphic harness, short runs of every
## fuzzer (seed corpora always replay under plain `go test`), the
## concurrency-heavy serving/observability packages under the race
## detector (fresh, uncached — these tests carry the limiter-fairness,
## singleflight and partial-sweep regressions), and the full suite under
## the race detector.
FUZZTIME ?= 10s
audit:
	$(GO) run ./cmd/amped-audit -n 500 -seed 1 -tol 1e-9
	$(GO) test -run '^$$' -fuzz FuzzThreeWay -fuzztime $(FUZZTIME) ./internal/audit
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/config
	$(GO) test -run '^$$' -fuzz FuzzScenarioKey -fuzztime $(FUZZTIME) ./internal/model
	$(GO) test -run '^$$' -fuzz FuzzRowWalk -fuzztime $(FUZZTIME) ./internal/model
	$(GO) test -run '^$$' -fuzz FuzzParseQuantity -fuzztime $(FUZZTIME) ./internal/units
	$(GO) test -run '^$$' -fuzz FuzzSchedule -fuzztime $(FUZZTIME) ./internal/pipesim
	$(GO) test -run '^$$' -fuzz FuzzDisagg -fuzztime $(FUZZTIME) ./internal/pipesim
	$(GO) test -run '^$$' -fuzz FuzzEnumerate -fuzztime $(FUZZTIME) ./internal/parallel
	$(GO) test -race -count=1 -run Shard ./internal/serve
	$(GO) test -race -count=1 ./internal/serve ./internal/obs
	$(GO) test -race -count=1 ./internal/plan
	$(GO) test -race -count=1 -run Infer ./internal/model ./internal/audit ./internal/serve ./internal/config
	$(MAKE) chaos
	$(GO) test -race ./...

## chaos runs the seeded network-fault property suite at full strength:
## every seed is one sharded sweep job driven through per-peer chaosnet
## proxies (latency, resets, mid-stream truncation, 429/503 bursts,
## flapping and slow-loris peers) under the race detector, uncached. The
## property: every job converges byte-identical to a clean run or fails
## with a classified error — never silent corruption, never a hang. The
## plain test suite runs the same property at 12 seeds; CHAOS_SEEDS=...
## overrides.
CHAOS_SEEDS ?= 200
chaos:
	AMPED_CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test -race -count=1 -timeout 20m -run TestChaos ./internal/serve

## bench runs every benchmark once, without touching the ledger.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

## bench-sweep measures the sweep fast path and records the numbers in
## BENCH_sweep.json (the committed "baseline" section is preserved; only
## "current" is rewritten). The run is gated against the recorded current
## entry: a >10% ns/point (or ns/op) regression fails the target and leaves
## the ledger untouched. Merge mode because the ledger's current run also
## holds the bench-serve/bench-batch rows this pattern doesn't re-measure —
## a replace would drop them (and now trips the disappearance gate). Pass
## BENCHTIME=... to override the default, or GATE=... (percent) to loosen
## the gate on noisy machines.
BENCHTIME ?= 2s
GATE ?= 10
bench-sweep:
	$(GO) test -run '^$$' -bench $(SWEEP_BENCH) -benchmem -benchtime $(BENCHTIME) . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/amped-bench -out BENCH_sweep.json -merge -gate $(GATE) \
			-note "make bench-sweep (benchtime $(BENCHTIME))"

## bench-serve measures the serving hot path: one compiled single-point
## evaluation bare and with a span recorded around it (the observability
## tax — required <5%, currently ~1-2% thanks to span coalescing), the
## end-to-end multi-replica sharded sweep (a 3-peer in-process fleet behind
## one coordinator), and one in-process shard stream at 4096-cell chunks
## against a single chunk (their ns/cell ratio is the per-chunk overhead).
## The numbers merge into BENCH_sweep.json next to the sweep rows instead
## of replacing them.
bench-serve:
	$(GO) test -run '^$$' -bench $(SERVE_BENCH) -benchmem -benchtime $(BENCHTIME) . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/amped-bench -out BENCH_sweep.json -merge \
			-note "make bench-serve (benchtime $(BENCHTIME))"

## bench-batch measures the SoA batched evaluation core against the scalar
## per-point path it must stay bit-identical to, and merges the rows into
## the ledger.
bench-batch:
	$(GO) test -run '^$$' -bench $(BATCH_BENCH) -benchmem -benchtime $(BENCHTIME) . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/amped-bench -out BENCH_sweep.json -merge \
			-note "make bench-batch (benchtime $(BENCHTIME))"

clean:
	$(GO) clean ./...
