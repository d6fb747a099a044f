GO ?= go

.PHONY: all build test race vet fmt staticcheck shuffle cover ci bench bench-smoke bench-planner bench-sched bench-sched-scale bench-ckpt bench-drf bench-fed bench-e2e

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# staticcheck runs honnef.co/go/tools if the binary is on PATH (CI installs
# the pinned version; offline dev boxes without it skip with a notice).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs honnef.co/go/tools/cmd/staticcheck@2025.1.1)"; fi

# shuffle re-runs the suite twice in randomized order to flush out
# inter-test ordering dependencies and leaked global state.
shuffle:
	$(GO) test -shuffle=on -count=2 ./...

# cover enforces the statement-coverage floor on the scheduling core: the
# scheduler, cluster, agent and federation packages must stay at or above
# 85%.
cover:
	@for pkg in ./internal/scheduler/ ./internal/cluster/ ./internal/agent/ ./internal/federation/; do \
		pct=$$($(GO) test -cover $$pkg | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "$$pkg: no coverage reported"; exit 1; fi; \
		ok=$$(awk -v p="$$pct" 'BEGIN{print (p >= 85) ? 1 : 0}'); \
		if [ "$$ok" != 1 ]; then echo "$$pkg: coverage $$pct% below the 85% floor"; exit 1; \
		else echo "$$pkg: coverage $$pct% (floor 85%)"; fi; \
	done

# ci is the gate a PR must pass: formatting, static analysis, the full test
# suite under the race detector plus a shuffled double pass, and the
# coverage floor on the scheduling core.
ci: fmt vet staticcheck race shuffle cover

bench:
	$(GO) run ./cmd/ires-bench

# bench-smoke runs a few small experiments end-to-end (planning, execution,
# fault recovery, scheduler contention) as a fast sanity pass for the stack,
# then the tracked planner benchmarks with their acceptance gate.
# BENCH_SCHED.json, BENCH_CKPT.json, BENCH_DRF.json and BENCH_FED.json hold
# only virtual-time facts and trace byte counts, so a rerun rewrites them
# byte-identically on any machine; CI follows bench-smoke with
# `git diff --exit-code` on those four, so a change that shifts a trace byte
# fails instead of silently rewriting the baseline. (The planner and
# sched-scale baselines hold wall-clock figures and are not diffed.)
bench-smoke: bench-planner bench-sched bench-sched-scale bench-ckpt bench-drf bench-fed
	$(GO) run ./cmd/ires-bench -quick -only FIG11,FIG20-22,SCHED

# bench-sched runs the tracked scheduling benchmark and gate: the Deadline
# (EDF) policy must meet a deadline FIFO misses on the contention workload by
# preempting and resuming the long run, with fixed-seed byte-identical
# per-run traces under both policies. Writes BENCH_SCHED.json.
bench-sched:
	$(GO) run ./cmd/bench-sched -out BENCH_SCHED.json

# bench-sched-scale runs the tracked fleet-scale scheduler benchmark and
# gate: on a fully reserved cluster with 1k-100k queued runs, a decision
# round against the indexed scheduler state must cost O(1) in queue depth
# under every policy — decisions/s at 100k queued runs at least half those
# at 1k, and flat allocations per decision. Writes BENCH_SCHED_SCALE.json.
bench-sched-scale:
	$(GO) run ./cmd/bench-sched-scale -out BENCH_SCHED_SCALE.json

# bench-ckpt runs the tracked sub-operator checkpointing benchmark and gate:
# Deadline-policy preemption latency must be bounded by one checkpoint
# interval (unbounded without checkpoints), and checkpointed mid-operator
# crash recovery must re-execute strictly fewer virtual-seconds than
# operator-granular recovery, with fixed-seed byte-identical traces in every
# scenario. Writes BENCH_CKPT.json.
bench-ckpt:
	$(GO) run ./cmd/bench-ckpt -out BENCH_CKPT.json

# bench-drf runs the tracked Dominant-Resource-Fairness benchmark and gate:
# DRF must equalize a cores-heavy and a memory-heavy tenant's dominant
# shares within 10% over the early window where FIFO starves one of them,
# and the 1.5x memory-overcommit scenario must complete through the
# OOM-kill -> retry/checkpoint-restore loop with zero re-executed operators
# and fixed-seed byte-identical traces. Writes BENCH_DRF.json.
bench-drf:
	$(GO) run ./cmd/bench-drf -out BENCH_DRF.json

# bench-planner runs the tracked planner benchmark suite (cold plan, warm
# replan, warm Pareto, plus the 10k-operator giant-DAG flap-replan cell)
# and rewrites the BENCH_PLANNER.json baseline; it fails if a warm replan
# evaluates a node or falls below the 1.5x-speedup / 50%-fewer-allocs floor,
# if the giant-DAG flap replans evict more than 2 entries per partial
# invalidation or cost more than 1.5x a warm replan, or if warm plans
# diverge from cold ones.
bench-planner:
	$(GO) run ./cmd/bench-planner -out BENCH_PLANNER.json

# bench-fed runs the tracked multi-cluster federation benchmark and gate:
# two regions of 64 node agents run a checkpointing workload placed by data
# locality; a full region outage mid-flight must be recovered by
# cross-cluster replans that restore the mirrored durable checkpoints with
# zero re-executed work units, and two fixed-seed executions must produce
# byte-identical merged traces. Writes BENCH_FED.json.
bench-fed:
	$(GO) run ./cmd/bench-fed -out BENCH_FED.json

# bench-e2e runs the end-to-end benchmark of the composed platform that
# BENCHMARK.json declares (four workloads, ~2 min); see bench/README.md.
bench-e2e:
	bash bench/run.sh
