# Reproduction of "On High-Bandwidth Data Cache Design for Multi-Issue
# Processors" (MICRO-30, 1997). Stdlib-only Go; no network needed.

GO ?= go

.PHONY: all build vet test test-short check bench-smoke bench-ab tables-golden lbicd-smoke adversarial-replay doc-commands pgo tables ablations workloads fuzz reproduce clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# check is the CI gate: formatting, vet, the full suite under the race
# detector, and the full suite again without it. The plain pass runs what
# the race detector skips: the allocation tests (TestCoreStepZeroAlloc,
# TestWarmCycleAllocatesNothing, TestWarmRunAllocBudget), since -race
# instruments allocations. The benchmark under lbicbench/ is its own
# module, which the root ./... skips; its ledger links the internal
# packages, so it is vetted and tested too.
check:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test ./...
	cd lbicbench && $(GO) vet ./... && $(GO) test ./...

test-short:
	$(GO) test -short ./...

# bench-smoke is the CI gate: one iteration of every benchmark in every
# package, so a benchmark that fails fails the build, plus one table sweep so
# the lane-batched sweep path is exercised end to end. It
# also fails when a plain build of lbictables, lbicd or lbicsim no longer
# picks up its default.pgo, or when the three profiles differ (make pgo
# writes one merged profile to all three), so a moved or deleted profile
# cannot silently drop the gain. Last, every function holding at least 0.5%
# of the profile's flat samples must still exist: a build without inlining
# keeps a symbol for every reachable function, so a name missing from it was
# renamed or deleted after the profile was taken, and the profile is stale.
PGO_MAINS = lbictables lbicd lbicsim
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x ./...
	$(GO) run ./cmd/lbictables -all -insts 5000 -jobs 4 > /dev/null
	for cmd in $(PGO_MAINS); do \
		$(GO) build -o /tmp/$$cmd-pgo-check ./cmd/$$cmd || exit 1; \
		$(GO) version -m /tmp/$$cmd-pgo-check | grep -q -- '-pgo=' \
		|| { echo "$$cmd was built without a PGO profile; run make pgo"; exit 1; }; \
		cmp cmd/lbictables/default.pgo cmd/$$cmd/default.pgo \
		|| { echo "cmd/$$cmd/default.pgo differs from cmd/lbictables/default.pgo; run make pgo"; exit 1; }; \
	done
	$(GO) build -pgo=off -gcflags=all=-l -o /tmp/lbictables-noinline ./cmd/lbictables
	$(GO) tool nm /tmp/lbictables-noinline | sed -E 's/^ *[0-9a-f]* +[A-Za-z] //; s/\.abi0$$//' \
		> /tmp/lbictables-noinline.syms
	stale=$$($(GO) tool pprof -top cmd/lbictables/default.pgo 2>/dev/null \
		| awk '$$2 ~ /%$$/ && $$2 + 0 >= 0.5' | sed -E 's/^ *([^ ]+ +){5}//; s/ \(inline\)$$//' \
		| grep -vxFf /tmp/lbictables-noinline.syms); \
	[ -z "$$stale" ] || { echo "cmd/lbictables/default.pgo is stale; run make pgo. Hot functions it names that no longer exist:"; \
		echo "$$stale"; exit 1; }

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
	for cmd in $(PGO_MAINS); do cp $(PGO_DIR)/merged.pgo cmd/$$cmd/default.pgo; done

# tables-golden is the CI gate on output bytes: every table at 20k
# instructions must match the checked-in JSON the benchmark verifies
# (lbicbench/driver/testdata/paper-tables.json, read here, never written),
# on one, two and four workers, so no table byte depends on scheduling.
tables-golden:
	$(GO) build -o /tmp/lbictables-golden ./cmd/lbictables
	for j in 1 2 4; do \
		/tmp/lbictables-golden -all -insts 20000 -jobs $$j -json -q \
			| cmp - lbicbench/driver/testdata/paper-tables.json || exit 1; \
	done

# bench-ab is the performance gate, run by CI against the base commit: a
# paired A/B of the micro-benchmarks (BenchmarkCoreStep, BenchmarkLaneStep
# k1 and k4, every BenchmarkGrant leg, BenchmarkRunFixed k1 and k8, and the
# replay legs of BenchmarkSimulatorThroughput) between BASE (default: the
# merge-base with main) and the working tree. Each of ROUNDS rounds runs
# every leg once on each side for 20 ms, alternating which side goes first.
# A leg fails when the 95% bootstrap interval of its median per-round ratio
# lies wholly above 1.05, unless its head median is under 10 ns/op
# (scripts/benchab).
BASE ?=
ROUNDS ?= 100
bench-ab:
	$(GO) run ./scripts/benchab -base "$(BASE)" -rounds $(ROUNDS)

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

# adversarial-replay is the CI gate on the adversarial artifacts through
# the command line: lbicsim replaying each checked-in stream on its port
# must reproduce the stored report byte for byte.
# TestAdversarialReplayByteIdentical checks the same, and that each stream
# re-derives from its meta record's parameters.
adversarial-replay:
	$(GO) build -o /tmp/lbicsim-replay ./cmd/lbicsim
	for a in bank-4 lbic-4x2; do \
		/tmp/lbicsim-replay -trace-in testdata/adversarial/conflict-storm-$$a.lbictrace -port $$a -json - \
			| cmp - testdata/adversarial/conflict-storm-$$a.report.json || exit 1; \
	done

# doc-commands is the CI gate on the documentation: every command line in
# README.md, EXPERIMENTS.md, ISA.md and the verify skill must run, at a small
# -insts budget, in a scratch directory (see scripts/doccommands).
doc-commands:
	$(GO) run ./scripts/doccommands

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

# reproduce rebuilds, vets and tests everything, then regenerates every
# table, figure and ablation of EXPERIMENTS.md at the default budget and runs
# each root-package benchmark once.
reproduce: build vet test tables ablations
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x .

clean:
	$(GO) clean ./...
