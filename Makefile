GO ?= go
# FUZZTIME is each fuzz target's budget in make fuzz (CI passes 30s).
FUZZTIME ?= 5s

.PHONY: build vet fmt test benchmod race trace chaos memo concurrent crash fuzz cover examples ci bench flowbench scale provenance conformance conformance-update

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails when any Go file is not gofmt-clean (gofmt -l lists them).
fmt:
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# trace runs the golden-trace, trace/history, chaos-trace, commit-
# failure, one-emitter, RunFinished-summary and critical-path suites
# ten times under the race detector — the same step as the CI trace
# job.
trace:
	$(GO) test -race -count=10 -run 'GoldenTrace|TraceHistory|TraceChaos|TraceCommitFailure|TraceOneEmitter|RunFinished|CriticalPath' ./internal/exec/...

# chaos runs only the fault-injection suite (seeded, deterministic) and
# the result-cache suite beside it, the abandonment test ten times (an
# abandoned worker's place in the pool is taken by the goroutine that
# reports its unit, a race-prone hand-over), plus the flowbench smoke
# subset — the same gate as the CI chaos job.
chaos:
	$(GO) test -race -v -run 'Chaos|Fault|Backoff|Retry|Timeout|Hang|Transient|Permanent|Latency|Cancel|Memo|UnitKey|Cache' ./internal/exec/... ./internal/faults/... ./internal/memo/...
	$(GO) test -race -count=10 -run 'TestAbandonmentKeepsPoolWhole|TestToolRunsOnPoolWorker' ./internal/exec/
	$(GO) run ./cmd/flowbench -quick

# memo runs only the result-cache suite (equivalence, property, chaos
# interaction) under the race detector, plus the flowbench memo section.
memo:
	$(GO) test -race -run 'Memo|UnitKey|Cache' ./internal/exec/... ./internal/memo/...
	$(GO) run ./cmd/flowbench memo

# concurrent runs the multi-run engine suite (admission control, shared
# pool, per-run attribution, 32-flow determinism) twice, the history
# DB's lock-free point reads beside a committing writer ten times, and
# the whole flow service suite, all under the race detector, then the
# flowd end-to-end smoke round trip and the scenario corpus over live
# HTTP — the same gate as the CI concurrent job.
concurrent:
	$(GO) test -race -count=2 -run 'Concurrent|Admission|SharedMemo|RunOptions|Close|Retrace|Setters' ./internal/exec/...
	$(GO) test -race -count=10 -run 'TestDBConcurrentReadsDuringCommit' ./internal/history/
	$(GO) test -race ./internal/service/...
	$(GO) run ./cmd/flowd -smoke
	$(GO) run ./cmd/flowbench corpus

# crash runs the durability gate: the WAL/recovery suites under -race
# (storage framing, executor kill-and-resume and finished-log replay
# with their chain digests, service boot recovery), then the
# whole-process round trip — build flowd, kill -9 it mid-run, restart
# over the same data dir and require the resumed masked trace to be
# byte-identical to an uninterrupted golden, then flowd
# -verify-provenance over that dir and over a tampered copy. Same gate
# as the CI crash job.
crash:
	$(GO) test -race ./internal/storage/...
	$(GO) test -race -run 'KillAndResume|Resume|Replay|Durable|Recover|VerifyRunLog' ./internal/exec/... ./internal/service/...
	CRASH_E2E=1 $(GO) test -run TestCrashRecoveryE2E -v -count=1 ./cmd/flowd

# conformance runs the scenario corpus (testdata/scenarios/) through
# the harness under the race detector: every scenario under the worker
# sweep ({1, 2, 8} by default), masked traces byte-identical to the
# checked-in goldens, then the quickstart scenario through flowd's
# -scenario mode. A golden mismatch fails with a unified diff. The CI
# conformance job runs this target.
conformance:
	$(GO) test -race -run 'TestConformance|TestCorpusShape' -v ./internal/harness/
	$(GO) run ./cmd/flowd -scenario testdata/scenarios/quickstart.json

# conformance-update re-blesses the golden traces after an intended
# trace change (review the diff before committing).
conformance-update:
	$(GO) test -run 'TestConformance' ./internal/harness/ -update

# fuzz smoke-runs each native fuzz target briefly (seed corpora live in
# testdata/fuzz/, for scenarios and the submit body testdata/scenarios/,
# for the WAL reader a real run log in internal/storage/testdata/, for
# the boot reader of a log's ends both committed quickstart logs, and
# for the WAL replay verifier real run logs in internal/service/testdata/
# and internal/storage/testdata/, for the history restore the Fig. 1
# fixture's dump); go test accepts one -fuzz pattern per invocation.
# -fuzzminimizetime bounds the minimizing of each new input: at its
# 60 s default the first input with new coverage used up the whole
# budget of the file-backed targets.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRoundTrip$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/flow/
	$(GO) test -run '^$$' -fuzz '^FuzzRefOfStoreRoundTrip$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/datastore/
	$(GO) test -run '^$$' -fuzz '^FuzzDiffApply$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/datastore/
	$(GO) test -run '^$$' -fuzz '^FuzzArchiveDeltaReconstruction$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/datastore/
	$(GO) test -run '^$$' -fuzz '^FuzzScenarioDecode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/scenario/
	$(GO) test -run '^$$' -fuzz '^FuzzAppendJSON$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzRecoverRun$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/storage/
	$(GO) test -run '^$$' -fuzz '^FuzzReadEnds$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/storage/
	$(GO) test -run '^$$' -fuzz '^FuzzVerifyRunLog$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/service/
	$(GO) test -run '^$$' -fuzz '^FuzzProvenanceQuery$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/service/
	$(GO) test -run '^$$' -fuzz '^FuzzSubmit$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/service/
	$(GO) test -run '^$$' -fuzz '^FuzzResponseJSON$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/service/
	$(GO) test -run '^$$' -fuzz '^FuzzRestore$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/history/

# cover enforces the same ratchet as the CI trace job: the traced
# execution paths (internal/exec + internal/trace), the result cache
# (internal/memo), the conformance layer (internal/scenario +
# internal/harness), the hash chain (internal/provenance) and the
# history database with its derivation graph (internal/history) stay
# above 90%.
cover:
	$(GO) test -coverprofile=cover.out ./internal/exec/ ./internal/trace/ ./internal/memo/ ./internal/scenario/ ./internal/harness/ ./internal/provenance/ ./internal/history/
	$(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print "combined coverage: " $$3 "%"; exit ($$3 >= 90.0) ? 0 : 1}'

# benchmod vets and tests the nested benchmark module (bench/), which
# ./... skips but which compiles against the service API.
benchmod:
	$(GO) -C bench vet ./... && $(GO) -C bench test ./...

# examples runs every program under examples/ from the repository root
# and fails on the first that does not exit 0; examples/history is the
# end-to-end retrace demo. Their output is discarded, their errors are
# not. Part of make ci and the CI test job.
examples:
	for d in examples/*/; do echo "go run ./$$d"; $(GO) run ./$$d > /dev/null || exit 1; done

# ci is the CI test job plus the coverage ratchet: compile, vet,
# gofmt, full suite under the race detector (the scheduler is
# concurrent; -race is not optional), the benchmark module, the example
# programs and each root benchmark once.
ci: build vet fmt race cover benchmod examples bench

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

flowbench:
	$(GO) run ./cmd/flowbench

# scale runs the raw-speed gate: the go-bench smoke subset over the
# generated 10k-cell graphs (plan, dispatch under a background and a
# cancellable context, warm memo, chaining). It
# fails on a run that never finishes or crashes at 10k cells; the
# measured throughput lives in the benchmark module (bench/).
scale:
	$(GO) test -run xxx -bench 'Scale|Chaining10k' -benchtime 1x ./internal/flowgen/ ./internal/history/

# provenance runs the provenance gate: the hash-chain suite and the
# history database's derivation-graph tests under the race detector
# (differential against the reference walkers over 20+ seeds and a
# deep chain, tamper detection naming the first bad record), the
# service's provenance endpoint and WAL-replay tests (a rewritten
# artifact named by its unit, every golden scenario replayed after a
# restart, the previous build's data dir), flowd -verify-provenance,
# then the flowbench provenance section — graph chaining over a
# 1.2M-instance history — writing its report next to the committed
# record (BENCH_provenance.json). The graph's ≥10x over the reference
# walker is the BenchmarkBackchainGraph/Oracle pair in internal/history.
provenance:
	$(GO) test -race ./internal/provenance/
	$(GO) test -race -run 'TestGraph' ./internal/history/
	$(GO) test -race -run 'Provenance|Scenario|DurableChain|DurableResume|DurableTampered|DurableReplay|DurableParent|VerifyRunLog' ./internal/service/
	$(GO) test -race -run 'VerifyProvenance' ./cmd/flowd/
	$(GO) run ./cmd/flowbench -out BENCH_provenance_report.json provenance
