GO ?= go
BENCHFLAGS ?= -run=NONE -bench=. -benchtime=1x
BASELINE ?= BENCH_BASELINE.json

.PHONY: build test race bench bench-baseline bench-fork lint loc suite cluster serve loadtest

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	NEMESIS_SWEEP_WORKERS=8 $(GO) test -race ./...

# Run every benchmark once and compare against the committed baseline.
# Every custom metric is a simulated result and must match it exactly; the
# run fails on any difference and prints the old and new value. Host speed
# (ns/op) is not compared: hostbench/ measures it.
bench:
	$(GO) test $(BENCHFLAGS) ./... | tee bench.out
	$(GO) run ./cmd/benchcmp -baseline $(BASELINE) bench.out

# Price the checkpoint the serve warm pool relies on: the wall cost of one
# fork plus its deterministic copy accounting. The sim_fork_* metrics are
# gated by `make bench`; this is the quick local view.
bench-fork:
	$(GO) test -run=NONE -bench='BenchmarkFork$$' -benchtime=1x -benchmem .

# Re-record the baseline (run on a quiet machine; commit the result).
bench-baseline:
	$(GO) test $(BENCHFLAGS) ./... | tee bench.out
	$(GO) run ./cmd/benchcmp -baseline $(BASELINE) -update bench.out

lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Lines of non-test Go outside hostbench/: the size ROADMAP item 6 tracks.
loc:
	@find . -name '*.go' -not -path './hostbench/*' -not -name '*_test.go' | xargs cat | wc -l

# Full experiment suite through the parallel sweep runner.
suite:
	$(GO) run ./cmd/nemesis-paging -suite -measure 15s

# Cluster paging scenario at the standard 1,000-domain scale.
cluster:
	$(GO) run ./cmd/nemesis-paging -cluster

# Experiments-as-a-service daemon. Submit specs with e.g.
#   curl -s localhost:8080/run -d '{"kind":"figure","figure":8}'
serve:
	$(GO) run ./cmd/nemesis-serve -addr :8080

# The 1,000-request concurrent load test against the daemon engine,
# under the race detector.
loadtest:
	$(GO) test -race -run 'TestServeLoad' -v ./internal/serve/
