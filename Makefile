GO ?= go

.PHONY: build vet test benchmod race chaos memo concurrent crash fuzz cover ci bench flowbench scale provenance conformance conformance-update

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# chaos runs only the fault-injection suite (seeded, deterministic)
# plus the flowbench smoke subset — the same gate as the CI chaos job.
chaos:
	$(GO) test -race -run 'Chaos|Fault|Backoff|Retry|Timeout|Hang|Transient|Permanent|Latency|Cancel' ./internal/exec/... ./internal/faults/...
	$(GO) run ./cmd/flowbench -quick

# memo runs only the result-cache suite (equivalence, property, chaos
# interaction) under the race detector, plus the flowbench memo section.
memo:
	$(GO) test -race -run 'Memo|UnitKey|Cache' ./internal/exec/... ./internal/memo/...
	$(GO) run ./cmd/flowbench memo

# concurrent runs the multi-run engine suite (admission control, shared
# pool, per-run attribution, 32-flow determinism) and the flow service
# under the race detector, then the flowd end-to-end smoke round trip
# and the scenario corpus over live HTTP — the same gate as the CI
# concurrent job.
concurrent:
	$(GO) test -race -run 'Concurrent|Admission|SharedMemo|RunOptions|Close|Retrace|Setters|Service|EventLog' ./internal/exec/... ./internal/service/...
	$(GO) run ./cmd/flowd -smoke
	$(GO) run ./cmd/flowbench corpus

# crash runs the durability gate: the WAL/recovery suites under -race
# (storage framing, executor kill-and-resume, service boot recovery),
# then the whole-process round trip — build flowd, kill -9 it mid-run,
# restart over the same data dir and require the resumed masked trace
# to be byte-identical to an uninterrupted golden. Same gate as the CI
# crash job.
crash:
	$(GO) test -race ./internal/storage/...
	$(GO) test -race -run 'KillAndResume|Resume|Durable|Recover' ./internal/exec/... ./internal/service/...
	CRASH_E2E=1 $(GO) test -run TestCrashRecoveryE2E -v -count=1 ./cmd/flowd

# conformance runs the scenario corpus (testdata/scenarios/) through
# the harness under the race detector: every scenario under both
# schedulers × the worker sweep, masked traces byte-identical to the
# checked-in goldens. A golden mismatch fails with a unified diff.
# Same gate as the CI conformance job.
conformance:
	$(GO) test -race -run 'TestConformance|TestCorpusShape' -v ./internal/harness/

# conformance-update re-blesses the golden traces after an intended
# trace change (review the diff before committing).
conformance-update:
	$(GO) test -run 'TestConformance' ./internal/harness/ -update

# fuzz smoke-runs each native fuzz target briefly (seed corpora live in
# testdata/fuzz/ and, for scenarios, testdata/scenarios/); go test
# accepts one -fuzz pattern per invocation.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRoundTrip$$' -fuzztime 5s ./internal/flow/
	$(GO) test -run '^$$' -fuzz '^FuzzRefOfStoreRoundTrip$$' -fuzztime 5s ./internal/datastore/
	$(GO) test -run '^$$' -fuzz '^FuzzDiffApply$$' -fuzztime 5s ./internal/datastore/
	$(GO) test -run '^$$' -fuzz '^FuzzArchiveDeltaReconstruction$$' -fuzztime 5s ./internal/datastore/
	$(GO) test -run '^$$' -fuzz '^FuzzScenarioDecode$$' -fuzztime 5s ./internal/scenario/

# cover enforces the same ratchet as the CI trace job: the traced
# execution paths (internal/exec + internal/trace), the result cache
# (internal/memo), the conformance layer (internal/scenario +
# internal/harness) and the provenance layer (internal/provenance)
# stay above 90%.
cover:
	$(GO) test -coverprofile=cover.out ./internal/exec/ ./internal/trace/ ./internal/memo/ ./internal/scenario/ ./internal/harness/ ./internal/provenance/
	$(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print "combined coverage: " $$3 "%"; exit ($$3 >= 90.0) ? 0 : 1}'

# benchmod vets and tests the nested benchmark module (bench/), which
# ./... skips but which compiles against the service API.
benchmod:
	$(GO) -C bench vet ./... && $(GO) -C bench test ./...

# ci is the gate CI runs: compile, vet, full suite under the race
# detector (the scheduler is concurrent; -race is not optional), and
# the benchmark module.
ci: build vet race cover benchmod

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

flowbench:
	$(GO) run ./cmd/flowbench

# scale runs the raw-speed gate: the go-bench smoke subset over the
# generated 10k-cell graphs (plan, dispatch, warm memo, chaining), then
# the flowbench scale section, writing its report next to the committed
# before/after record (BENCH_scale.json). Profile with
#   go run ./cmd/flowbench -cpuprofile cpu.prof scale
scale:
	$(GO) test -run xxx -bench 'Scale|Chaining10k' -benchtime 1x ./internal/flowgen/ ./internal/history/
	$(GO) run ./cmd/flowbench -out BENCH_scale_report.json scale

# provenance runs the provenance gate: the indexed-chaining and hash-
# chain suites under the race detector (differential against the naive
# walkers over 20+ seeds, tamper detection naming the first bad
# record), the service's provenance endpoint tests, then the flowbench
# provenance section — indexed chaining over a 1.2M-instance history —
# writing its report next to the committed record
# (BENCH_provenance.json, acceptance floor: 10x on the deep backchain).
provenance:
	$(GO) test -race ./internal/provenance/
	$(GO) test -race -run 'Provenance|Scenario|DurableChain|DurableResume' ./internal/service/
	$(GO) run ./cmd/flowbench -out BENCH_provenance_report.json provenance
