GO ?= go

.PHONY: all build test race vet fmt staticcheck shuffle cover reach ci bench bench-smoke bench-planner bench-sched bench-sched-scale bench-ckpt bench-drf bench-preq bench-e2e

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

# cover enforces the statement-coverage floor on the scheduling core, the
# executor, the model fit and the trace path: the scheduler, cluster,
# executor, model, profiler and trace packages must stay at or above 85%.
cover:
	@for pkg in ./internal/scheduler/ ./internal/cluster/ ./internal/executor/ ./internal/model/ ./internal/profiler/ ./internal/trace/; do \
		pct=$$($(GO) test -cover $$pkg | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "$$pkg: no coverage reported"; exit 1; fi; \
		ok=$$(awk -v p="$$pct" 'BEGIN{print (p >= 85) ? 1 : 0}'); \
		if [ "$$ok" != 1 ]; then echo "$$pkg: coverage $$pct% below the 85% floor"; exit 1; \
		else echo "$$pkg: coverage $$pct% (floor 85%)"; fi; \
	done

# reach fails naming every internal package that nothing shipped imports: a
# layer only its own tests or a bench cell (internal/experiments) can reach
# does not ship. It then runs the same rule one level down: every exported
# identifier under internal/ needs a non-test caller or a reason in the
# reachLedger of reach_test.go.
reach:
	@deps=$$($(GO) list -deps . ./cmd/ires ./cmd/ires-server ./cmd/musqle ./bench/e2e ./examples/...) || exit 1; \
	for pkg in $$($(GO) list ./internal/... | grep -v '/internal/experiments$$'); do \
		echo "$$deps" | grep -qx "$$pkg" || { echo "$$pkg: reachable from no main, example or bench/e2e"; bad=1; }; \
	done; [ -z "$$bad" ]
	$(GO) test -count=1 -run '^TestEveryInternalExportHasACaller$$' .

# ci is the gate a PR must pass: formatting, static analysis, the full test
# suite under the race detector plus a shuffled double pass, the coverage
# floor on the scheduling core, the executor, the model fit and the trace path, and no unreachable internal
# package.
ci: fmt vet staticcheck race shuffle cover reach

# Every bench target is one ires-bench invocation over cells of
# internal/experiments.Cells; what a cell's gate holds is documented on its
# Gate method and in the "Cells" table of EXPERIMENTS.md.

bench:
	$(GO) run ./cmd/ires-bench

# bench-smoke: every tracked cell with its gate, plus three quick figures.
# BENCH_SCHED.json, BENCH_CKPT.json, BENCH_DRF.json and BENCH_PREQ.json hold
# only virtual-time facts, trace byte counts and seeded estimation errors, so a
# rerun rewrites them byte-identically on any machine; CI follows bench-smoke
# with `git diff --exit-code` on those four, so a change that shifts a trace
# byte or a prediction fails instead of silently rewriting the baseline. (The
# planner and sched-scale baselines hold wall-clock figures and are not
# diffed.)
bench-smoke:
	$(GO) run ./cmd/ires-bench -quick -only PLANNER,SCHEDDL,SCHEDSCALE,CKPT,DRF,PREQ,FIG11,FIG20-22,SCHED -out .

# bench-sched: cell SCHEDDL, rewrites BENCH_SCHED.json.
bench-sched:
	$(GO) run ./cmd/ires-bench -only SCHEDDL -out .

# bench-sched-scale: cell SCHEDSCALE, rewrites BENCH_SCHED_SCALE.json.
bench-sched-scale:
	$(GO) run ./cmd/ires-bench -only SCHEDSCALE -out .

# bench-ckpt: cell CKPT, rewrites BENCH_CKPT.json.
bench-ckpt:
	$(GO) run ./cmd/ires-bench -only CKPT -out .

# bench-drf: cell DRF, rewrites BENCH_DRF.json.
bench-drf:
	$(GO) run ./cmd/ires-bench -only DRF -out .

# bench-preq: cell PREQ, rewrites BENCH_PREQ.json (prequential estimation
# error over four seeded observation streams, ~10 s).
bench-preq:
	$(GO) run ./cmd/ires-bench -only PREQ -out .

# bench-planner: cell PLANNER, rewrites BENCH_PLANNER.json.
bench-planner:
	$(GO) run ./cmd/ires-bench -only PLANNER -out .

# bench-e2e runs the end-to-end benchmark of the composed platform that
# BENCHMARK.json declares (four workloads, ~2 min); see bench/README.md.
bench-e2e:
	bash bench/run.sh
