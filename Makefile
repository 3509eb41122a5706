GO ?= go
BENCHFLAGS ?= -run=NONE -bench=. -benchtime=1x
BASELINE ?= BENCH_BASELINE.json

# Recipes run the way GitHub Actions runs a `run:` step, so a failure
# anywhere in a pipe fails the target. Each recipe line is its own shell.
SHELL := bash
.SHELLFLAGS := -eo pipefail -c
# ci-cluster and ci-cluster-observability both write a.txt and b.txt, so
# targets never run side by side, even under -j.
.NOTPARALLEL:

.PHONY: build test race bench bench-baseline bench-fork lint loc suite cluster serve loadtest \
	ci ci-lint ci-test ci-bench ci-timeline ci-attribution ci-cluster ci-cluster-observability \
	ci-serve ci-suite-identity ci-hostbench ci-race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	NEMESIS_SWEEP_WORKERS=8 $(GO) test -race ./...

# Run every benchmark once and compare against the committed baseline.
# Every custom metric is a simulated result and must match it exactly; the
# run fails on any difference and prints the old and new value. Host speed
# (ns/op) is not compared: hostbench/ measures it. A failing benchmark
# fails the run as well: most benchmarks report no custom metric, so
# benchcmp alone would not notice one.
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
	out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
	  echo "gofmt needed on:" && echo "$$out" && exit 1; \
	fi

# Lines of non-test Go outside hostbench/: the size ROADMAP item 7's
# done-when measures.
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

# The CI gate. Each job of .github/workflows/ci.yml runs exactly one
# `make ci-<job>` and uploads what it wrote; `make ci` runs every job's
# target, in the workflow's order, so the gate a change passes offline is
# the gate CI runs. ci_test.go pins that correspondence.
ci: ci-lint ci-test ci-bench ci-timeline ci-attribution ci-cluster ci-cluster-observability ci-serve ci-suite-identity ci-hostbench ci-race

# Vet and gofmt, then report the non-test Go line count outside hostbench/.
# The count is informational and gates nothing; it goes to the job summary
# when GITHUB_STEP_SUMMARY names one.
ci-lint: lint
	echo "Non-test Go lines outside hostbench/: $$($(MAKE) -s loc)" | tee -a "$${GITHUB_STEP_SUMMARY:-/dev/null}"

# Tier-1, then a 15 s fuzz of each fuzz target, then every example.
ci-test: build test
# The disk block store: zero, data and partial writes, reads and forks over
# two chunks against a flat reference.
	$(GO) test -run '^$$' -fuzz '^FuzzBlockStore$$' -fuzztime 15s ./internal/disk
# Spec normalization: every body serve would decode is rejected with
# ErrInvalidSpec or normalizes, inside the service bounds, to a fixed point.
	$(GO) test -run '^$$' -fuzz '^FuzzNormalize$$' -fuzztime 15s ./internal/experiments
# Spec canonicalization: every JSON body canonicalizes to a fixed point that
# ignores whitespace and key order, and a spec keys like its normalized form.
	$(GO) test -run '^$$' -fuzz '^FuzzCanonicalJSON$$' -fuzztime 15s ./internal/serve
# The linear page table: inserts, deletes and lookups at chunk edges, below
# the first chunk and at the far end of the VA window against a map
# reference, with stable entry pointers.
	$(GO) test -run '^$$' -fuzz '^FuzzPageTable$$' -fuzztime 15s ./internal/vm
# The event queue: callbacks and processes filing events now, later and in
# the past, stops, kills, and restored and donated seqs on a fork, against a
# (time, seq) reference queue.
	$(GO) test -run '^$$' -fuzz '^FuzzEventQueue$$' -fuzztime 15s ./internal/sim
# Process handoff: random process programs with sleeps, waits, timeouts,
# kills, spawns, callbacks and a panic leave the same log of popped events,
# observed instants and dispatch counts at the handoff bound and at bound 1.
	$(GO) test -run '^$$' -fuzz '^FuzzProcHandoff$$' -fuzztime 15s ./internal/sim
# The Atropos core: the input's bytes drive admits, removals, charges,
# readiness flips, refreshes and picks on the indexed core beside the linear
# reference. Minimizing a new byte input re-runs the harness thousands of
# times, so each gets at most a second and the rest of the 15 s goes to
# fuzzing.
	$(GO) test -run '^$$' -fuzz '^FuzzCoreMatchesReference$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/atropos
# Each example must run to completion.
	for ex in examples/*/; do echo "$$ex"; $(GO) run "./$$ex"; done

# Every custom benchmark metric (any unit but ns/op, B/op and allocs/op) is
# a simulated result, a pure function of workload and seed, so each must
# equal the baseline exactly: any difference means the simulation's
# behaviour changed, not the hardware.
ci-bench: bench

# Export one Fig. 8 cell's timeline from two separate processes: the two
# files must be byte-identical, because timelines are part of the
# determinism contract. A -fig run never enters the sweep, so no worker
# count applies here; TestFig8TimelineParallelByteIdentity pins the
# timeline under an 8-way fan-out. nemesis-paging checks every trace
# against the schema (obs.ValidateTrace) before it writes the file.
ci-timeline:
	$(GO) run ./cmd/nemesis-paging -fig 8 -measure 5s -timeline fig8-timeline.json > /dev/null
	$(GO) run ./cmd/nemesis-paging -fig 8 -measure 5s -timeline fig8-timeline-par.json > /dev/null
	cmp fig8-timeline.json fig8-timeline-par.json

# The folded sim-time attribution profile is part of the determinism
# contract: the export must be byte-identical at any sweep worker count. Run
# the base+hog cells serially and under an 8-worker fan-out and diff the
# profiles byte for byte, then profile a full figure run; each serial run
# also renders its profile as a flamegraph SVG.
ci-attribution:
	$(GO) run ./cmd/nemesis-paging -attribution -fig 8 -measure 8s -workers 1 -simprofile fig8.folded -svg fig8.svg
	NEMESIS_SWEEP_WORKERS=8 $(GO) run ./cmd/nemesis-paging -attribution -fig 8 -measure 8s -simprofile fig8-par.folded
	cmp fig8.folded fig8-par.folded
	$(GO) run ./cmd/nemesis-paging -fig 8 -measure 5s -simprofile fig8-full.folded -svg fig8-full.svg > /dev/null

# Cluster smoke at the standard 1,000-domain scale (4 machines × 250
# domains). The summary is a pure function of the options and seed, so the
# serial and 8-worker runs must be byte-identical, and the run itself must
# show no guarantee violations or revocation kills in its audit counters.
ci-cluster:
	$(GO) run ./cmd/nemesis-paging -cluster -workers 1 -cluster-json cluster.json > cluster-serial.txt
	$(GO) run ./cmd/nemesis-paging -cluster -workers 8 > cluster-par.txt
	sed '/^# cluster:/d' cluster-serial.txt > a.txt
	sed '/^# cluster:/d' cluster-par.txt > b.txt
	cmp a.txt b.txt
	grep -q '"guarantee_violations": 0' cluster.json
	if grep -Eq '"guarantee_violations": [1-9]|"revocation_kills": [1-9]' cluster.json; then \
	  echo "cluster run breached its contracts" && exit 1; \
	fi

# The cross-machine observability plane: a traced cluster run merges every
# machine's timeline (client lanes plus per-swap-server lanes, linked by
# flow arrows) into one Perfetto trace. The trace is part of the determinism
# contract (byte-identical at any worker count), passes the schema check
# nemesis-paging runs on every trace it writes, and the result JSON carries
# the merged rollup.
ci-cluster-observability:
	$(GO) run ./cmd/nemesis-paging -cluster -workers 1 -cluster-trace cluster-trace.json -cluster-json cluster-obs.json > cluster-obs-serial.txt
	$(GO) run ./cmd/nemesis-paging -cluster -workers 8 -cluster-trace cluster-trace-par.json > cluster-obs-par.txt
	cmp cluster-trace.json cluster-trace-par.json
	sed '/^# cluster:/d' cluster-obs-serial.txt > a.txt
	sed '/^# cluster:/d' cluster-obs-par.txt > b.txt
	cmp a.txt b.txt
	grep -q '"ph":"s"' cluster-trace.json
	grep -q '"ph":"f"' cluster-trace.json
	grep -q '"name":"m0.swap0"' cluster-trace.json
	grep -q '"summary"' cluster-obs.json

# The daemon end to end on :8080, in one shell whose EXIT trap stops it
# however the checks end:
#  - the same Fig. 8 spec submitted twice simulates once: the first
#    response is a cache miss, the resubmission (different field order, an
#    explicit default) a hit with identical bytes;
#  - a traced figure run serves its Perfetto timeline over the API; the SSE
#    stream closes at the job's terminal event, so reading it waits for
#    completion;
#  - /metrics serves parseable Prometheus text covering the job, queue,
#    cache and warm families.
# With the daemon stopped, the served trace must be byte-identical to the
# CLI's -timeline export of the same spec, which nemesis-paging checks
# against the schema as it writes it. Then the 1,000-request load smoke
# under the race detector.
ci-serve:
	$(GO) build -o nemesis-serve ./cmd/nemesis-serve
	./nemesis-serve -addr :8080 & \
	echo $$! > serve.pid; \
	trap 'kill "$$(cat serve.pid)"; wait' EXIT; \
	for i in $$(seq 1 50); do \
	  curl -sf localhost:8080/healthz && break; \
	  sleep 0.2; \
	done; \
	curl -sf -D h1.txt -o r1.json localhost:8080/run \
	  -d '{"kind":"figure","figure":8,"measure":"5s"}'; \
	grep -qi '^x-cache: miss' h1.txt; \
	curl -sf -D h2.txt -o r2.json localhost:8080/run \
	  -d '{"measure":"5000ms","figure":8,"kind":"figure","seed":1}'; \
	grep -qi '^x-cache: hit' h2.txt; \
	cmp r1.json r2.json; \
	id=$$(curl -sf localhost:8080/jobs \
	  -d '{"kind":"figure","figure":8,"measure":"5s","trace":true}' \
	  | sed -n 's/.*"id": "\(j[0-9]*\)".*/\1/p' | head -1); \
	curl -sf "localhost:8080/jobs/$$id/events" > /dev/null; \
	curl -sf "localhost:8080/jobs/$$id/trace" -o fig8-served-trace.json; \
	curl -sf "localhost:8080/jobs/$$id/audit" > /dev/null; \
	curl -sf localhost:8080/metrics -o metrics.txt; \
	cat metrics.txt; \
	for fam in nemesis_jobs nemesis_jobs_evicted_total nemesis_queue_len nemesis_queue_capacity nemesis_workers \
	           nemesis_runs_total nemesis_rejected_total nemesis_cache_entries \
	           nemesis_cache_hits_total nemesis_cache_misses_total \
	           nemesis_warm_worlds nemesis_warm_hits_total nemesis_warm_misses_total; do \
	  grep -q "^# TYPE $$fam " metrics.txt || { echo "missing family $$fam" && exit 1; }; \
	done; \
	grep -q 'nemesis_jobs{state="done"}' metrics.txt; \
	grep -q '^nemesis_cache_hits_total 1' metrics.txt
	$(GO) run ./cmd/nemesis-paging -fig 8 -measure 5s -timeline fig8-cli-trace.json > /dev/null
	cmp fig8-served-trace.json fig8-cli-trace.json
	$(MAKE) loadtest

# The suite is a pure function of its spec: -suite-json is the canonical
# result encoding (same bytes as the serve API), so cmp pins every cell
# serially and under a forced 8-worker fan-out, and the serial body against
# the golden TestSuiteGolden pins. The warm pool's fork-then-measure parity
# is pinned by TestPagingForkEquivalence in ci-test. Then price one fork.
ci-suite-identity:
	$(GO) run ./cmd/nemesis-paging -suite -workers 1 -measure 5s -suite-json suite-serial.json > /dev/null
	NEMESIS_SWEEP_WORKERS=8 $(GO) run ./cmd/nemesis-paging -suite -measure 5s -suite-json suite-par.json > /dev/null
	cmp suite-serial.json suite-par.json
	cmp suite-serial.json internal/experiments/testdata/suite_golden.json
	$(MAKE) bench-fork | tee bench-fork.txt

# hostbench/ is a module of its own, outside the root's ./..., so no other
# target builds it. Vet and test it, then run two seconds of each workload
# at seed 7: a correctness check, never a timing gate. Each workload's ops
# must match the digests pinned in hostbench/digests.json with no failed op.
ci-hostbench:
	cd hostbench && $(GO) vet ./... && $(GO) test ./...
	for w in fig7-pagein fig8-pageout cluster-5k serve-mix; do \
	  bash hostbench/run.sh --workload "$$w" --seed 7 --seconds 2 --trace 0 | tee "hostbench-$$w.txt"; \
	  last=$$(tail -n 1 "hostbench-$$w.txt"); \
	  if ! grep -q '"correct":true' <<<"$$last" || ! grep -Eq '"failed":0[,}]' <<<"$$last"; then \
	    echo "hostbench $$w: not correct or failed ops" && exit 1; \
	  fi; \
	done

# Everything under the race detector with a forced wide fan-out, so the
# parallel sweep runner interleaves even on small runners (`race`). Then:
# the sim tests repeated, because event callbacks run on process goroutines
# when a parking process drains the queue itself; the job-log test repeated,
# because a finished job's log line must land before the job turns terminal;
# and the suite's serial/parallel identity under race.
ci-race: race
	$(GO) test -race -count=10 ./internal/sim
	$(GO) test -race -count=50 -run 'TestMetricsEndpoint$$' ./internal/serve
	$(GO) run -race ./cmd/nemesis-paging -suite -workers 8 -measure 2s > /dev/null
