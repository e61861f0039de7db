# CI and humans run the same targets. `make check` is what the workflow
# in .github/workflows/ci.yml executes.

GO ?= go

.PHONY: build test race bench bench-all bench-smoke bench-record bench-check cover examples metrics-smoke snapshot-smoke lint fmt vet check

build:
	$(GO) build ./...

# -short skips the multi-hundred-period fleet soaks for a fast local
# loop; they still run in full under `race` and `cover` below (and under
# a plain `go test ./...`), so `make check` exercises them exactly once
# per mode instead of three times.
test:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Parallel-search benchmarks: greedy, the exhaustive oracle, cluster
# placement, the fleet period loop, and placement
# local search across worker counts (results are bit-identical; only
# wall-clock changes). BenchmarkFleetScale is excluded here — it is a
# full 1000-machine sweep; run it via bench-record (or bench-smoke,
# which runs everything once).
bench:
	$(GO) test -run '^$$' -bench 'Parallel|ClusterPlace|FleetPeriod|PlacementLocalSearch' -benchtime 10x .

# Regenerate the committed fleet-scale benchmark record (the cell
# architecture's scaling evidence; see internal/experiments/scale_figs.go
# for the sweep) and validate an existing record. CI runs bench-check
# against the committed BENCH_fleet_scale.json — a missing, unparseable,
# or stale-schema record fails — and then regenerates it to prove the
# sweep still completes.
bench-record:
	$(GO) run ./cmd/benchrecord -out BENCH_fleet_scale.json

bench-check:
	$(GO) run ./cmd/benchrecord -check BENCH_fleet_scale.json

# Full paper-reproduction benchmark suite (every figure/table).
bench-all:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Benchmark smoke: every benchmark in the module runs exactly once, so a
# bench that stops compiling or starts erroring fails CI. Calibration is
# shared process-wide, so the whole sweep takes about a second. The exit
# status is checked explicitly AND the output is scanned for panics and
# failures, so a benchmark that panics (even in a goroutine the test
# binary survives long enough to report) fails CI with a non-zero exit.
bench-smoke:
	@out=$$($(GO) test -run '^$$' -bench . -benchtime 1x ./... 2>&1); status=$$?; \
	echo "$$out"; \
	if [ $$status -ne 0 ]; then echo "bench-smoke: FAILED (exit $$status)"; exit 1; fi; \
	if echo "$$out" | grep -qE 'panic:|--- FAIL'; then \
		echo "bench-smoke: benchmark panic or failure detected in output"; exit 1; fi

# Observability endpoint smoke: run a short fleet through cmd/advisor
# with -metrics-addr up, wait for the run to finish (the endpoint
# lingers so scrapers can collect the final counters), then curl
# /metrics and check the core families, /healthz, and the -trace-out
# span file are all present. Fails if the endpoint never comes up, a
# family disappears, or the exposition is empty.
metrics-smoke:
	@set -e; mkdir -p .bin; $(GO) build -o .bin/advisor ./cmd/advisor; \
	rm -f .bin/advisor.log .bin/trace.ndjson .bin/metrics.txt; \
	.bin/advisor -periods 3 -migration-cost 5 -servers 4 -cells 2 \
		-metrics-addr 127.0.0.1:0 -metrics-linger 60s -trace-out .bin/trace.ndjson \
		-tenant a:pg:tpch1 -tenant b:db2:tpcc -tenant c:pg:tpch1 -tenant d:pg:tpch1 \
		> .bin/advisor.log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	ok=0; for i in $$(seq 1 300); do \
		if grep -q 'metrics: lingering' .bin/advisor.log; then ok=1; break; fi; \
		if ! kill -0 $$pid 2>/dev/null; then break; fi; sleep 0.2; done; \
	if [ $$ok -ne 1 ]; then echo "metrics-smoke: advisor run did not reach the linger phase"; cat .bin/advisor.log; exit 1; fi; \
	addr=$$(grep -oE 'http://[0-9.:]+' .bin/advisor.log | head -1); \
	if [ -z "$$addr" ]; then echo "metrics-smoke: no endpoint address in output"; cat .bin/advisor.log; exit 1; fi; \
	curl -fsS "$$addr/metrics" > .bin/metrics.txt; \
	curl -fsS "$$addr/healthz" | grep -q ok; \
	for m in vdesign_fleet_periods_total vdesign_fleet_period_duration_seconds_bucket \
		vdesign_fleet_rejections_total vdesign_score_cache_hits_total \
		vdesign_estimate_cache_hits_total vdesign_dynmgmt_rebuilds_total \
		vdesign_placement_greedy_steps_total; do \
		grep -q "$$m" .bin/metrics.txt || { echo "metrics-smoke: metric $$m missing from /metrics"; exit 1; }; done; \
	grep -q '"name":"period"' .bin/trace.ndjson || { echo "metrics-smoke: no period spans in trace output"; exit 1; }; \
	kill $$pid 2>/dev/null || true; trap - EXIT; rm -rf .bin; echo "metrics-smoke: ok"

# Durability smoke: the resumed run must reproduce the uninterrupted
# one through the advisor binary, end to end. One fleet runs 6 periods
# straight; a second runs 3 and snapshots; a third re-creates the fleet
# from the same flags, restores, and runs the remaining 3. The resumed
# period lines (timing stripped) and the final tenant table must match
# the uninterrupted run's exactly — cache-statistics lines are excluded
# on purpose, since a restored process's caches start differently while
# its results may not.
snapshot-smoke:
	@set -e; mkdir -p .bin; $(GO) build -o .bin/advisor ./cmd/advisor; \
	flags="-migration-cost 5 -servers 4 -cells 2 \
		-tenant a:pg:tpch1 -tenant b:db2:tpcc -tenant c:pg:tpch1 -tenant d:pg:tpch1"; \
	.bin/advisor -periods 6 $$flags > .bin/full.out; \
	.bin/advisor -periods 3 $$flags -snapshot .bin/fleet.snap > .bin/first.out; \
	grep -q '^snapshot: wrote' .bin/first.out || { echo "snapshot-smoke: advisor never wrote the snapshot"; exit 1; }; \
	.bin/advisor -periods 3 $$flags -restore .bin/fleet.snap > .bin/resumed.out; \
	grep '^period' .bin/full.out | tail -3 | sed 's/ dur=[^ ]*//' > .bin/want.periods; \
	grep '^period' .bin/resumed.out | sed 's/ dur=[^ ]*//' > .bin/got.periods; \
	if ! cmp -s .bin/want.periods .bin/got.periods; then \
		echo "snapshot-smoke: resumed periods diverge from the uninterrupted run"; \
		diff .bin/want.periods .bin/got.periods || true; exit 1; fi; \
	awk '/^tenant /{f=1} /^fleet of/{f=0} f' .bin/full.out > .bin/want.table; \
	awk '/^tenant /{f=1} /^fleet of/{f=0} f' .bin/resumed.out > .bin/got.table; \
	if ! cmp -s .bin/want.table .bin/got.table; then \
		echo "snapshot-smoke: resumed tenant table diverges from the uninterrupted run"; \
		diff .bin/want.table .bin/got.table || true; exit 1; fi; \
	rm -rf .bin; echo "snapshot-smoke: ok"

# Build (compile + link) every example program; binaries land in a
# scratch dir so the repo stays clean.
examples:
	@set -e; mkdir -p .bin; for d in examples/*; do \
		echo "build $$d"; $(GO) build -o .bin/ "./$$d"; done; rm -rf .bin

# Package coverage with per-package floors on the long-lived-fleet
# subsystems (score cache, placement, orchestrator): the soak/property
# harnesses are what holds these numbers up, so a PR that guts them
# fails here. The full (non -short) suites run, soaks included. The
# placement floor was raised to 90 when the cell partitioner and
# two-level search landed — the cell edge-case tests hold it there.
cover:
	@out=$$($(GO) test -cover ./internal/score ./internal/placement ./internal/fleet ./internal/obs); status=$$?; \
	echo "$$out"; \
	if [ $$status -ne 0 ]; then echo "cover: tests failed"; exit 1; fi; \
	echo "$$out" | awk '/coverage:/ { \
		pct = ""; \
		for (i = 1; i <= NF; i++) if ($$i == "coverage:") { pct = $$(i+1); sub("%", "", pct) } \
		floor = 0; \
		if ($$2 ~ /internal\/score$$/) floor = 90; \
		if ($$2 ~ /internal\/placement$$/) floor = 90; \
		if ($$2 ~ /internal\/fleet$$/) floor = 90; \
		if ($$2 ~ /internal\/obs$$/) floor = 90; \
		if (floor > 0) floored++; \
		if (pct + 0 < floor) { printf "cover: %s at %s%% is below the %d%% floor\n", $$2, pct, floor; bad = 1 } \
	} END { \
		if (floored != 4) { printf "cover: only %d of 4 floored packages reported coverage (test suite missing?)\n", floored + 0; bad = 1 } \
		exit bad }'

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

lint: fmt vet

check: build lint test race bench-smoke cover examples metrics-smoke snapshot-smoke
