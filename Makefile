PYTHON ?= python
export PYTHONPATH := src

.PHONY: test smoke bench-smoke perfbench-smoke stats-smoke serve-smoke watch-smoke lint lint-smoke bench baseline ci

# tier-1: the full unit/property suite
test:
	$(PYTHON) -m pytest -x -q

# <30s guard: engine timings vs the checked-in BENCH_matching.json;
# fails on a >2x regression at the smoke sizes
smoke:
	$(PYTHON) benchmarks/bench_matching_engine.py --smoke

# benchmark smoke gates: the matching-engine regression check, the
# solve_many correctness gate (parallel verdicts == serial; no timing
# assertions, so it is safe on loaded single-core runners), the
# observability gate (idle-instrumentation overhead within tolerance,
# plus the BENCH_trace_smoke.jsonl trace artifact CI uploads), the
# linter latency gate (aggregate lint >= 2x below the bitset-accelerated
# cold solve), the
# kernel-equivalence gate (membership verdicts and match relations
# identical under both pattern engines, production trigger-set tables
# identical to the plain-automata reference's, F1.1 witnesses certified),
# the incremental gate (single-std-edit deltas >= 10x faster than a
# cold solve, with incremental == cold equivalence with each pattern engine
# pinned in turn; engine selection itself depends on input size alone),
# and the university membership gate (ladder verdicts equal the known
# answers, the per-obligation reference agrees at <= 12 professors, and
# the median growth from 24 to 48 professors is at most 3x).
# Every gate runs even when an earlier one fails, so one noisy gate cannot
# hide the others' verdicts; the target lists the failed gates and fails
# at the end.
BENCH_GATES := \
	benchmarks/bench_matching_engine.py \
	benchmarks/bench_fig1_parallel.py \
	benchmarks/bench_obs.py \
	benchmarks/bench_lint.py \
	benchmarks/bench_scale.py \
	benchmarks/bench_incremental.py \
	benchmarks/bench_fig2_membership.py

bench-smoke:
	@failed=""; \
	for gate in $(BENCH_GATES); do \
		echo "== $$gate --smoke"; \
		$(PYTHON) $$gate --smoke || failed="$$failed $$gate"; \
	done; \
	if [ -n "$$failed" ]; then \
		echo "bench-smoke: FAILED gates:$$failed"; \
		exit 1; \
	fi; \
	echo "bench-smoke: every gate passed"

# the benchmark's self-test (~25s): every perfbench workload at tiny scale,
# untraced and traced, plus the check that the traced mode wraps every
# binding of each probed function — so a change that breaks a probed name
# fails here, not first in the benchmark pipeline
perfbench-smoke:
	$(PYTHON) -m pytest -q perfbench/test_perfbench.py

# self-checking metrics-exporter gate: solves a built-in batch over two
# workers and fails on any Prometheus/JSON exporter or trace-merge regression
stats-smoke:
	$(PYTHON) -m repro stats --jobs 2

# service-daemon gate: boots `repro serve` on an ephemeral port, round-trips
# check/lint/metrics over HTTP (asserting OpenMetrics exemplars parse), walks
# the flight recorder (/debug/requests trace-ID round-trip, /debug/slow and
# the BENCH_slowlog_smoke.jsonl sink CI uploads), renders `repro top` and
# `repro stats --url` against the live daemon, and probes admission control
# (a saturated 1-slot daemon must answer 429 and bump repro_rejected_total)
serve-smoke:
	$(PYTHON) benchmarks/serve_smoke.py

# watch-mode gate: boots `repro lint --watch` on a temp mapping, edits a
# std on disk, and asserts an incremental re-lint within the latency bound
watch-smoke:
	$(PYTHON) examples/watch_smoke.py

# full before/after series (slow; prints the speedup table)
bench:
	$(PYTHON) benchmarks/bench_matching_engine.py

# refresh the baseline after an intentional performance change
baseline:
	$(PYTHON) benchmarks/bench_matching_engine.py --update-baseline

# style + type gates.  Each tool skips with a notice when absent locally
# (the dev container ships neither); CI installs both, and a tool that IS
# present and reports findings fails the build — never a silent skip.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		echo "ruff check"; \
		ruff check src tests benchmarks examples || exit 1; \
	else \
		echo "ruff not installed; skipping style lint"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		echo "mypy (config in pyproject.toml)"; \
		mypy || exit 1; \
	else \
		echo "mypy not installed; skipping type check"; \
	fi

# mapping-linter gate: repro lint over every example mapping, diagnostic
# codes compared against the committed examples/expected_lint.json
lint-smoke:
	$(PYTHON) examples/lint_gate.py

ci: lint test bench-smoke perfbench-smoke lint-smoke stats-smoke serve-smoke watch-smoke
