# Developer entry points. `make ci` is exactly what the GitHub Actions
# workflow runs; keep the two in sync.

GO      ?= go
FUZZTIME ?= 30s

.PHONY: all vet build test race lint lint-fixtures fuzz-smoke bench-smoke pareto-smoke serve-smoke serve-load-smoke serve-shard-smoke engine-diff perfbench-check loc ci clean

all: build

vet:
	$(GO) vet ./...

# Static-analysis gate: the domain-specific mialint suite (all seven
# analyzers — see internal/lint and the README table), go vet, and a gofmt
# cleanliness check. staticcheck joins in when it is on PATH; the container
# image does not ship it, so its absence is not a failure. bin/mialint is a
# real file target so repeated `make lint` reuses the built analyzer when
# its sources have not changed; CI caches it on the same source hash.
# MIALINT_FLAGS feeds extra flags (CI passes -gha for inline annotations).
MIALINT_SRCS := $(shell find cmd/mialint internal/lint -name '*.go' -not -path '*/testdata/*')

bin/mialint: $(MIALINT_SRCS) go.mod
	$(GO) build -o $@ ./cmd/mialint

lint: bin/mialint vet
	./bin/mialint $(MIALINT_FLAGS) ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
	  echo "gofmt -l flagged:"; echo "$$unformatted"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	  else echo "staticcheck not on PATH; skipped"; fi

# The analyzers' own golden-fixture suites: every testdata module under
# internal/lint replayed against its `// want` expectations, plus the
# call-graph and CLI tests. The fast loop while writing an analyzer.
lint-fixtures:
	$(GO) test ./internal/lint/... ./cmd/mialint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One bounded fuzzing pass per target. Short by design: this is a smoke
# check that the harnesses still run and the seed corpora still pass, not a
# bug hunt. Override with e.g. `make fuzz-smoke FUZZTIME=5m` to dig.
# -fuzzminimizetime 1x keeps one new interesting input from spending the
# budget on minimization (Go's default allows 60 s per input); a failing
# input still fails the run and is still written to testdata/fuzz.
fuzz-smoke:
	$(GO) test ./internal/model -run '^$$' -fuzz FuzzReadJSON -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/model -run '^$$' -fuzz FuzzDecodeJSON -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/stg -run '^$$' -fuzz FuzzReadSTG -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzDecodeWire -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/sched/incremental -run '^$$' -fuzz FuzzScheduleInvariants -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzBatchBody -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzJobBody -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzRescheduleBody -fuzztime $(FUZZTIME) -fuzzminimizetime 1x

# Short benchmark pass compared against the committed baseline. Warn-only by
# design: shared runners are noisy, so regressions annotate the run instead
# of failing it (the allocation-free contracts are enforced for real by the
# AllocsPerRun guard tests under `make test`). Refresh the baseline on a
# quiet machine with:
#   $(GO) test ./internal/sched/incremental ./internal/engine \
#     ./internal/explore/pareto ./internal/wire ./internal/server \
#     -run '^$$' -bench . -benchmem -benchtime 1s | $(GO) run ./cmd/benchdiff -update
bench-smoke:
	$(GO) test ./internal/sched/incremental ./internal/engine \
	  ./internal/explore/pareto ./internal/wire ./internal/server \
	  -run '^$$' -bench . -benchmem -benchtime 100ms | $(GO) run ./cmd/benchdiff $(BENCHDIFF_FLAGS)

# Determinism gate for the multi-objective search (DESIGN §3.11): the smoke
# search's Pareto front must hash to the golden fingerprint pinned in
# pareto_test.go, and the cross-jobs/repeat-run byte-identity suite must
# hold under the race detector. An intentional change to the search (new
# mutation weights, different crowding tie-break, …) re-pins the golden by
# running the test once and copying the fingerprint from the failure.
# TestCommittedFronts then reruns the two documented miaopt searches and
# requires the committed results/pareto_*.json bytes; an intentional change
# regenerates them with the commands in results/README.md.
pareto-smoke:
	$(GO) test -race ./internal/explore/pareto -run \
	  'TestSmokeGoldenFingerprint|TestByteIdenticalAcrossJobs|TestRepeatedSeededRunsIdentical' -v
	$(GO) test ./cmd/miaopt -run TestCommittedFronts -v

# The engine's safety net, runnable on its own, over the full differential
# corpus: the digest golden pins every analysis result (cold, warm, replay,
# edit and undo, both algorithms) to its recorded SHA-256; the adjacency
# oracle checks the graph's and every ingest path's CSR lists against
# lists it sorts from the edge list itself;
# warm runs and replays must be bit-identical to cold runs; and the rta
# screen must dominate the exact analysis. `make race` covers these too;
# this target is the fast loop while working on the image or a backend.
engine-diff:
	$(GO) test ./internal/engine -run \
	  'TestCorpusDigestGolden|TestAdjacencyMatchesGraph|TestEngineBitIdentical|TestEditedReschedule|TestRTABoundDominates|TestMetamorphic' -v

# End-to-end smoke check for the analysis service: builds the real miaserve
# binary, boots it on an ephemeral port, round-trips analyze → reschedule
# over HTTP, then sends SIGINT and requires a clean drain (exit 0). Behind a
# build tag so `go test ./...` stays exec-free.
serve-smoke:
	$(GO) test -tags servesmoke -run TestServeSmoke -v ./cmd/miaserve

# Load-path smoke check: builds miaserve, boots it on an ephemeral port, and
# drives a short miaload run through every mode (wire analyze, unary
# reschedule, wire batch) under the race detector, then requires a clean
# SIGINT drain. Same build tag as serve-smoke so `go test ./...` stays
# exec-free.
serve-load-smoke:
	$(GO) test -race -tags servesmoke -run TestServeLoadSmoke -v ./cmd/miaload

# Sharded-tier smoke check: builds miaserve and miarouter (both with -race),
# boots three single-worker shards with a one-slot admission queue behind a
# router, and drives miaload through three regimes: steady-state batch
# traffic (zero errors), saturation (-saturate: overload must shed with 429
# and a bounded Retry-After in [1, 30] s), and a SIGINT drain of the whole
# fleet (exit 0 everywhere). Same build tag as serve-smoke so `go test
# ./...` stays exec-free.
serve-shard-smoke:
	$(GO) test -race -tags servesmoke -run TestServeShardSmoke -v ./cmd/miaload

# The benchmark (perfbench/) is its own Go module, so `go vet ./...` and
# `go test ./...` at the root never compile it: a change to the model,
# engine, sim or wire API would break it unnoticed. Vet and test it with the
# environment perfbench/run.sh builds it in.
perfbench-check:
	cd perfbench && GOFLAGS=-buildvcs=false GOWORK=off $(GO) vet ./...
	cd perfbench && GOFLAGS=-buildvcs=false GOWORK=off $(GO) test ./...

# Size of the product code: non-test Go lines outside perfbench/ and
# testdata/ (analyzer fixtures no binary links), the measure the ROADMAP
# tracks from change to change.
loc:
	@git ls-files '*.go' | grep -v '^perfbench/' | grep -v '/testdata/' | grep -v '_test.go$$' | xargs cat | wc -l

ci: lint lint-fixtures build race engine-diff perfbench-check fuzz-smoke bench-smoke pareto-smoke serve-smoke serve-load-smoke serve-shard-smoke

clean:
	$(GO) clean ./...
	rm -f bin/mialint
