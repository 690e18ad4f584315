# Reproduction of "On High-Bandwidth Data Cache Design for Multi-Issue
# Processors" (MICRO-30, 1997). Stdlib-only Go; no network needed.

GO ?= go

.PHONY: all build vet test test-short check bench bench-smoke bench-diff tables-golden lbicd-smoke cluster-smoke advsearch-smoke tables figures ablations workloads fuzz reproduce clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# check is the CI gate: vet, the full suite under the race detector, and
# one plain pass so the fuzz corpus seeds run as regression tests. The
# benchmark under lbicbench/ is its own module, which the root ./... skips;
# its ledger links the internal packages, so it is vetted and tested too.
check:
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test ./internal/asm/ ./internal/oracle/ ./internal/tracecache/
	cd lbicbench && $(GO) vet ./... && $(GO) test ./...

test-short:
	$(GO) test -short ./...

# bench runs the full benchmark suite (table regenerations, simulator
# throughput live vs trace replay, the zero-alloc core microbenchmark, the
# lane-batched stepping microbenchmark, the coded-banks arbiter step cost,
# and the lbicd served-vs-direct latency comparison) and records the results
# as JSON. BENCH_PR10.json in the repo root is the checked-in snapshot;
# regenerate it here after performance work.
BENCH_OUT ?= BENCH_PR10.json
bench:
	$(GO) test -run '^$$' -bench . -benchmem . ./internal/cpu/ ./internal/server/ \
		| $(GO) run ./scripts/benchjson -o $(BENCH_OUT)

# bench-smoke is the CI gate: one iteration of every benchmark, parsed by
# benchjson so a broken benchmark or malformed output fails the build, plus
# one table sweep so the lane-batched sweep path is exercised end to end.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x . ./internal/cpu/ ./internal/server/ \
		| $(GO) run ./scripts/benchjson -o /dev/null
	$(GO) run ./cmd/lbictables -all -insts 5000 -jobs 4 > /dev/null

# tables-golden is the CI gate on output bytes: every table at 20k
# instructions must match the checked-in JSON the benchmark verifies
# (lbicbench/driver/testdata/paper-tables.json, read here, never written).
tables-golden:
	$(GO) run ./cmd/lbictables -all -insts 20000 -jobs 2 -json -q \
		| cmp - lbicbench/driver/testdata/paper-tables.json

# bench-diff is the perf regression gate: ns/op drift between the two most
# recent checked-in benchmark snapshots past the threshold fails unless
# BENCH_ALLOWLIST.json acknowledges it with a reason.
BENCH_OLD ?= BENCH_PR9.json
BENCH_NEW ?= BENCH_PR10.json
bench-diff:
	$(GO) run ./scripts/benchjson -diff $(BENCH_OLD) -against $(BENCH_NEW) \
		-threshold 10 -allowlist BENCH_ALLOWLIST.json

# lbicd-smoke starts a real lbicd, checks a served report is byte-identical
# to the direct in-process run, that a repeat request is a cache hit, that a
# traced sweep exports a valid span tree (written to TRACE_ARTIFACT for CI
# upload), and that /metrics is valid Prometheus exposition with nonzero
# request counters.
TRACE_ARTIFACT ?= /tmp/lbicd-job-trace.jsonl
lbicd-smoke:
	$(GO) build -o /tmp/lbicd ./cmd/lbicd
	/tmp/lbicd -addr 127.0.0.1:8329 & echo $$! > /tmp/lbicd.pid; \
	trap 'kill $$(cat /tmp/lbicd.pid) 2>/dev/null' EXIT; \
	$(GO) run ./scripts/lbicdsmoke -addr http://127.0.0.1:8329 -trace-artifact $(TRACE_ARTIFACT)

# cluster-smoke is the CI gate for the distributed plane: a coordinator plus
# three worker processes run a sweep, one worker is SIGKILLed mid-job, and
# every cell must still complete byte-identical to the single-process run.
# It then points a coordinator at dead ports and requires the same request to
# complete by graceful degradation to in-process execution.
cluster-smoke:
	$(GO) build -o /tmp/lbicd ./cmd/lbicd
	$(GO) run ./scripts/clusterchaos -smoke -lbicd /tmp/lbicd

# advsearch-smoke is the CI gate for the adversarial-workload loop: a tiny
# fixed-seed search must complete (once against plain banking, once against
# the coded organization), and replaying the checked-in regression stream
# must reproduce its stored report byte-for-byte.
advsearch-smoke:
	$(GO) run ./cmd/lbicadv -port bank-4 -insts 5000 -rounds 1 -seed 1 -q -top 3
	$(GO) run ./cmd/lbicadv -port coded-4x1 -insts 5000 -rounds 1 -seed 1 -q -top 3
	$(GO) run ./cmd/lbicsim -trace-in testdata/adversarial/conflict-storm-bank-4.lbictrace \
		-port bank-4 -json - \
		| cmp - testdata/adversarial/conflict-storm-bank-4.report.json

tables:
	$(GO) run ./cmd/lbictables -all

ablations:
	$(GO) run ./cmd/lbictables -ablations

workloads:
	$(GO) run ./cmd/lbictables -workloads

# fuzz gives each target a 30s smoke run (go's engine allows one -fuzz
# target per invocation). Corpus seeds live in each package's testdata/fuzz/.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/asm/ -fuzz FuzzAssemble -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oracle/ -fuzz FuzzArbiterGrant -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oracle/ -fuzz FuzzCombining -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oracle/ -fuzz FuzzStoreQueue -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tracecache/ -fuzz FuzzTraceStreamDecode -fuzztime $(FUZZTIME)

reproduce:
	./scripts/reproduce.sh

clean:
	$(GO) clean ./...
