# Reproduction of "On High-Bandwidth Data Cache Design for Multi-Issue
# Processors" (MICRO-30, 1997). Stdlib-only Go; no network needed.

GO ?= go

.PHONY: all build vet test test-short check bench bench-smoke bench-diff tables-golden lbicd-smoke advsearch-smoke pgo tables figures ablations workloads fuzz reproduce clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# check is the CI gate: formatting, vet, the full suite under the race
# detector, and one plain pass so the fuzz corpus seeds run as regression
# tests. The benchmark under lbicbench/ is its own module, which the root
# ./... skips; its ledger links the internal packages, so it is vetted and
# tested too.
check:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
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
# one table sweep so the lane-batched sweep path is exercised end to end. It
# also fails when a plain build of lbictables no longer picks up its
# default.pgo, so a moved or deleted profile cannot silently drop the gain.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x . ./internal/cpu/ ./internal/server/ \
		| $(GO) run ./scripts/benchjson -o /dev/null
	$(GO) run ./cmd/lbictables -all -insts 5000 -jobs 4 > /dev/null
	$(GO) build -o /tmp/lbictables-pgo-check ./cmd/lbictables
	$(GO) version -m /tmp/lbictables-pgo-check | grep -q -- '-pgo=' \
		|| { echo 'lbictables was built without a PGO profile; run make pgo'; exit 1; }

# pgo regenerates the profile-guided-optimization profile that a plain go
# build (and so lbicbench/run.sh) applies to lbictables, lbicd and lbicsim,
# each of which carries a copy as default.pgo. It is one CPU profile of the
# benchmark's own shapes, taken from builds without a profile: the full table
# sweep at 100k instructions (lane batches, every port kind) merged with the
# K=1 trace-replay runs of BenchmarkSimulatorThroughput (served cells).
# Regenerate it after changing the simulator's hot path.
PGO_DIR ?= /tmp/lbic-pgo
pgo:
	mkdir -p $(PGO_DIR)
	$(GO) build -pgo=off -o $(PGO_DIR)/lbictables ./cmd/lbictables
	$(PGO_DIR)/lbictables -all -insts 100000 -q -cpuprofile $(PGO_DIR)/tables.pprof > /dev/null
	$(GO) test -pgo=off -run '^$$' -bench 'BenchmarkSimulatorThroughput/.*/.*/replay' -benchtime 40x \
		-o $(PGO_DIR)/lbic.test -cpuprofile $(PGO_DIR)/replay.pprof . > /dev/null
	$(GO) tool pprof -proto $(PGO_DIR)/tables.pprof $(PGO_DIR)/replay.pprof > $(PGO_DIR)/merged.pgo
	for cmd in lbictables lbicd lbicsim; do cp $(PGO_DIR)/merged.pgo cmd/$$cmd/default.pgo; done

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
# request counters. It then sends lbicd SIGTERM, which must drain it to a
# clean exit: status 0 and the final msg=bye log line.
TRACE_ARTIFACT ?= /tmp/lbicd-job-trace.jsonl
lbicd-smoke:
	$(GO) build -o /tmp/lbicd ./cmd/lbicd
	/tmp/lbicd -addr 127.0.0.1:8329 2> /tmp/lbicd-smoke.log & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	$(GO) run ./scripts/lbicdsmoke -addr http://127.0.0.1:8329 -trace-artifact $(TRACE_ARTIFACT) \
		|| { cat /tmp/lbicd-smoke.log; exit 1; }; \
	kill -TERM $$pid; status=0; wait $$pid || status=$$?; \
	if [ $$status -ne 0 ] || ! grep -q 'msg=bye' /tmp/lbicd-smoke.log; then \
		cat /tmp/lbicd-smoke.log; echo "lbicd exited $$status on SIGTERM without a clean drain"; exit 1; \
	fi

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
	$(GO) test . -fuzz FuzzParsePortName -fuzztime $(FUZZTIME)
	$(GO) test . -fuzz FuzzGenParams -fuzztime $(FUZZTIME)
	$(GO) test ./internal/asm/ -fuzz FuzzAssemble -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oracle/ -fuzz FuzzArbiterGrant -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oracle/ -fuzz FuzzCombining -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oracle/ -fuzz FuzzStoreQueue -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tracecache/ -fuzz FuzzTraceStreamDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server/ -fuzz FuzzSimulateRequest -fuzztime $(FUZZTIME)

reproduce:
	./scripts/reproduce.sh

clean:
	$(GO) clean ./...
