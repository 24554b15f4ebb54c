# Developer and CI entry points. `make ci` is what .github/workflows/ci.yml
# runs: build, vet, the full test suite, the benchmark module's vet and
# self-tests, the race-detector suite, the contention lane, a parallel
# lbreport smoke run, the mutation-detection tests, and the coverage gate.
# `make fuzz-short` and the explore smoke run as separate CI jobs.

GO ?= go
FUZZTIME ?= 10s
# Coverage floor for `make cover` (percent of internal/... statements).
# Baseline at the time the gate was added: 90.8%.
COVER_MIN ?= 88

# Commit identifier stamped into benchmark artifacts (BENCH_<sha>.json).
# CI passes GITHUB_SHA; local runs fall back to git, then to "local".
BENCH_SHA ?= $(shell git rev-parse --short=12 HEAD 2>/dev/null || echo local)

# Benchmarks the bench-compare gate runs: the register-file and
# exploration hot paths this codebase optimizes for, kept quick enough
# for CI. Timing diffs only gate when baseline and current ran on the
# same CPU model; allocation and paper-level metrics always gate.
HOTPATH_BENCH ?= E1WakeupForcedSteps|E2RandomizedWakeup|E4UPTracking|E5Indistinguishability|E7GroupUpdate|E8Herlihy|ShmemLLSC|PsetChurn|ValuesEqual|MaxSteps|LLSCFingerprint|ExhaustiveExplore|ExploreFuzz|MachineStep|VMStep|CampaignExec|TASStep|BWLLSC|SeededStream
# Committed baseline artifact to diff against (first BENCH_*.json here).
BENCH_BASELINE ?= $(firstword $(wildcard BENCH_*.json))

.PHONY: build vet test race stress check perfbench-check smoke serve-smoke dist-smoke campaign-smoke restart-smoke bench bench-json bench-compare profile report mutation cover fuzz-short vm-equivalence tas-equivalence explore-smoke ci

build:
	$(GO) build ./...

# The mutation-tagged files (the seeded broken construction and TAS
# variant) build only under -tags mutation, so vet that build too.
vet:
	$(GO) vet ./...
	$(GO) vet -tags mutation ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Contention lane for the service packages, whose tests race workers,
# timers and cancellation: three runs at GOMAXPROCS 1 and 2 with a second
# copy of the same run beside them, then one run under the race detector.
# A failure is never retried.
STRESS_PKGS = ./internal/jobs/ ./internal/dist/ ./internal/campaign/ ./cmd/lbserver/

stress:
	$(GO) test -count=3 -cpu 1,2 $(STRESS_PKGS) & a=$$!; \
	$(GO) test -count=3 -cpu 1,2 $(STRESS_PKGS) & b=$$!; \
	wait $$a; sa=$$?; wait $$b; sb=$$?; test $$sa -eq 0 && test $$sb -eq 0
	$(GO) test -race -count=1 $(STRESS_PKGS)

# The short pre-commit loop: compile, vet, full test suite, and the
# benchmark module.
check: build vet test perfbench-check

# perfbench/ is its own Go module, so the root build and test never compile
# it: vet it and run its self-tests, so a change to the packages it calls
# cannot break `bash perfbench/run.sh` unnoticed.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Smoke: the full report pipeline at quick sizes with a 4-worker sweep.
smoke:
	$(GO) run ./cmd/lbreport -quick -parallel 4 > /dev/null

# Smoke the job service end to end: build lbserver, submit a quick job
# twice, and assert the resubmission is a cache hit with the same job ID.
serve-smoke:
	./scripts/serve_smoke.sh

# Smoke the distributed subsystem: 1 coordinator + 2 workers, one worker
# SIGKILLed mid-sweep, then an explore fuzz job; each merged result must
# be byte-identical to a local no-worker run.
dist-smoke:
	./scripts/dist_smoke.sh

# Smoke the campaign subsystem end to end (-tags mutation): 1 server + 2
# workers hunt the seeded group-update bug, one worker is SIGKILLed
# mid-campaign, the shrunk finding must replay bit-for-bit, and the
# campaign must survive a server restart with its corpus intact.
campaign-smoke:
	./scripts/campaign_smoke.sh

# Smoke restart durability: SIGKILL lbserver mid-run and assert the job
# journal re-enqueues pending work, keeps DELETE tombstones, and serves
# finished results byte-identically after the restart.
restart-smoke:
	./scripts/restart_smoke.sh

bench:
	$(GO) test -run=^$$ -bench=. -benchmem .

# Benchmark baseline artifact: three samples per benchmark, converted to
# BENCH_<sha>.json (scripts/bench_json.go) so CI can archive one
# machine-readable baseline per commit and two commits can be diffed.
bench-json:
	$(GO) test -run=^$$ -bench=. -benchmem -count=3 . | $(GO) run ./scripts -o BENCH_$(BENCH_SHA).json
	@echo "wrote BENCH_$(BENCH_SHA).json"

# Hot-path regression gate: rerun the hot-path benchmarks and diff them
# against the committed baseline with per-metric-class tolerances
# (scripts/bench_compare.go). Fails on regressions past tolerance.
bench-compare:
	@test -n "$(BENCH_BASELINE)" || { echo "bench-compare: no committed BENCH_*.json baseline found"; exit 1; }
	@echo "comparing against $(BENCH_BASELINE)"
	$(GO) test -run=^$$ -bench='$(HOTPATH_BENCH)' -benchmem -count=3 . | $(GO) run ./scripts -compare $(BENCH_BASELINE)

# Quick CPU-hotspot report: profile a quick lbreport run and print the
# top-10 flat consumers. The profile stays in /tmp for deeper digging
# (`go tool pprof /tmp/lbreport.cpu.pprof`); the live server exposes the
# same data on /debug/pprof/.
profile:
	$(GO) run ./cmd/lbreport -quick -parallel 4 -cpuprofile /tmp/lbreport.cpu.pprof > /dev/null
	$(GO) tool pprof -top -nodecount=10 /tmp/lbreport.cpu.pprof

# Regenerate the captured experiment report (full sizes, all CPUs).
report:
	$(GO) run ./cmd/lbreport -o EXPERIMENTS.report.md

# Prove the schedule explorer detects real bugs: the deliberately broken
# construction behind the mutation tag must be caught, shrunk, and replayed,
# and its compiled twin must match its Go body step for step (lockstep).
mutation:
	$(GO) test -tags mutation ./internal/explore/ ./internal/universal/ ./internal/campaign/ ./internal/algos/tas/ ./internal/lockstep/

# Coverage gate: fail if internal/... statement coverage drops below
# COVER_MIN percent.
cover:
	$(GO) test -coverprofile=coverage.out ./internal/...
	@$(GO) tool cover -func=coverage.out | tail -1
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	ok=$$(awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN {print (t >= m) ? 1 : 0}'); \
	if [ "$$ok" != 1 ]; then \
		echo "coverage $$total% is below the $(COVER_MIN)% floor"; exit 1; \
	fi

# Native fuzzing, ~FUZZTIME per target (plain `go test` already runs the
# committed corpus under testdata/fuzz as unit tests). Go's fuzzer spends
# up to 60 s minimizing each new interesting input by default and runs no
# new inputs meanwhile, which would eat a target's whole budget; FUZZ caps
# minimization at 2 s.
FUZZ = -fuzztime $(FUZZTIME) -fuzzminimizetime 2s

fuzz-short:
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzLemma51AndDeterminism$$' $(FUZZ)
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzIndistinguishability$$' $(FUZZ)
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzUPMonotone$$' $(FUZZ)
	$(GO) test ./internal/shmem/ -run '^$$' -fuzz '^FuzzRegStateEqual$$' $(FUZZ)
	$(GO) test ./internal/lockstep/ -run '^$$' -fuzz '^FuzzVMEquivalence$$' $(FUZZ)
	$(GO) test ./internal/algos/tas/ -run '^$$' -fuzz '^FuzzTAS$$' $(FUZZ)
	$(GO) test ./internal/wakeup/ -run '^$$' -fuzz '^FuzzPidCodec$$' $(FUZZ)
	$(GO) test ./internal/wakeup/ -run '^$$' -fuzz '^FuzzPidMemo$$' $(FUZZ)
	$(GO) test ./internal/linz/ -run '^$$' -fuzz '^FuzzOnlineMemo$$' $(FUZZ)
	$(GO) test ./internal/jobs/ -run '^$$' -fuzz '^FuzzJournalRecord$$' $(FUZZ)
	$(GO) test ./internal/jobs/ -run '^$$' -fuzz '^FuzzSpec$$' $(FUZZ)
	$(GO) test ./internal/jobs/ -run '^$$' -fuzz '^FuzzMergeParts$$' $(FUZZ)
	$(GO) test ./internal/campaign/ -run '^$$' -fuzz '^FuzzCheckpoint$$' $(FUZZ)
	$(GO) test ./internal/explore/ -run '^$$' -fuzz '^FuzzReplay$$' $(FUZZ)

# Differential proof that the bytecode VM and the goroutine interpreter are
# observably identical: exhaustive lockstep exploration at n ∈ {2,3} for
# every compiled construction, the committed fuzz corpus, the compiler
# edge-case suite, the both-engine golden adversary traces, and the -race
# chunk-sharing stress tests.
vm-equivalence:
	$(GO) test ./internal/vmachine/ ./internal/machine/ ./internal/lockstep/ ./internal/trace/
	$(GO) test -race ./internal/lockstep/

# Differential proof that the zoo's TAS protocols and the Blelloch–Wei
# LL/SC backend are equivalent to their references: both-engine lockstep
# goldens for the TAS algorithms, the randomized-vs-native backend
# differential, and the exhaustive backend-equality harness
# (TestExhaustiveBackendsEqual — byte-identical exploration reports).
tas-equivalence:
	$(GO) test ./internal/algos/... -run 'TestLockstep|TestSemantics|TestDifferentialAgainstNative|TestFingerprintAllocationParity'
	$(GO) test ./internal/explore/ -run 'TestExhaustiveBackendsEqual|TestTAS'

# Exhaustive schedule exploration of every construction at small n.
explore-smoke:
	$(GO) run ./cmd/explore -alg group-update -n 2
	$(GO) run ./cmd/explore -alg herlihy -n 2
	$(GO) run ./cmd/explore -alg central -n 2
	$(GO) run ./cmd/explore -alg central -n 3
	$(GO) run ./cmd/explore -alg tas-tv -object tas -n 2
	$(GO) run ./cmd/explore -alg tas-tournament -object tas -n 2 -llsc bw

ci: build vet test perfbench-check race stress smoke mutation cover
