"""Tests for the observability subsystem (spans, metrics, CLI surfaces)."""

import json
import pickle
import threading

import pytest

from repro.cli import main
from repro.engine import certify, solve, solve_many
from repro.engine.problems import ConsistencyProblem, SatisfiabilityProblem
from repro.mappings.io import parse_mapping
from repro.obs import (
    REGISTRY,
    MetricError,
    MetricsRegistry,
    collecting,
    diff_snapshots,
    jsonl,
    parse_prometheus,
    span_breakdown,
    trace,
    tracing_active,
    walk,
)
from repro.patterns.parser import parse_pattern
from repro.xmlmodel.dtd import parse_dtd
from tests._engine_helpers import CrashProblem, EasyProblem

MAPPING_TEXT = """
source:
    f -> item*
    item(sku)
target:
    w -> product*
    product(sku)
std: f[item(s)] -> w[product(s)]
"""


def sat_problem():
    # a constant keeps it on the automata route, which compiles
    return SatisfiabilityProblem(parse_dtd("r -> a*\na(x)"), parse_pattern("r/a(1)"))


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class TestSpans:
    def test_noop_without_collector(self):
        assert not tracing_active()
        with trace("orphan") as span:
            assert span.is_noop
        verdict = solve(sat_problem())
        assert verdict.report.trace is None

    def test_nesting_and_timing_invariants(self):
        with collecting("root") as tree:
            with trace("outer"):
                with trace("inner-a"):
                    pass
                with trace("inner-b"):
                    pass
        root = tree.to_dict()
        assert root["name"] == "root"
        (outer,) = root["children"]
        assert [c["name"] for c in outer["children"]] == ["inner-a", "inner-b"]
        # children are fully contained: their durations sum to <= the parent's
        child_sum = sum(c["duration"] for c in outer["children"])
        assert 0.0 <= child_sum <= outer["duration"] <= root["duration"]

    def test_solve_records_span_with_budget_and_cache(self):
        from repro.engine import CompilationCache, ExecutionContext

        context = ExecutionContext(cache=CompilationCache())
        with collecting("session") as tree:
            verdict = solve(sat_problem(), context)
        span = verdict.report.trace
        assert span["name"] == "solve"
        assert span["attrs"]["problem"] == "SatisfiabilityProblem"
        assert span["attrs"]["algorithm"] == "pattern-sat"
        assert span["attrs"]["outcome"] == "proved"
        assert span["expansions"] == verdict.report.expansions
        assert span["cache"].get("misses", 0) >= 1
        # compile spans nest under the solve
        names = [s["name"] for s in walk(tree.to_dict())]
        assert names[0] == "session"
        assert "compile" in names

    def test_certify_records_span(self):
        verdict = solve(sat_problem())
        with collecting("session") as tree:
            certify(verdict)
        names = [s["name"] for s in walk(tree.to_dict())]
        assert "certify" in names

    def test_trace_dict_pickles_and_flattens(self):
        with collecting("session") as tree:
            with trace("child", tag="x"):
                pass
        data = pickle.loads(pickle.dumps(tree.to_dict()))
        lines = jsonl(data).strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["parent"] == -1
        assert records[1]["parent"] == records[0]["id"]
        assert all("children" not in record for record in records)
        breakdown = span_breakdown(data)
        assert set(breakdown) == {"session", "child"}

    def test_collector_is_thread_local(self):
        seen = {}

        def other_thread():
            seen["active"] = tracing_active()

        with collecting("main-thread"):
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        assert seen["active"] is False


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_total", "help", ("kind",))
        counter.labels(kind="a").inc()
        counter.labels(kind="a").inc(2)
        gauge = registry.gauge("t_gauge")
        gauge.set(7)
        hist = registry.histogram("t_seconds", buckets=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(1.5)
        hist.observe(99.0)
        snap = registry.snapshot()
        assert snap["t_total"]["series"][("a",)] == 3
        assert snap["t_gauge"]["series"][()] == 7
        assert snap["t_seconds"]["series"][()]["count"] == 3
        assert snap["t_seconds"]["series"][()]["buckets"] == [1, 1, 1]

    def test_label_mismatch_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_total", "", ("kind",))
        with pytest.raises(MetricError):
            counter.labels(other="x")
        with pytest.raises(MetricError):
            counter.inc()  # labeled family cannot be used label-free
        with pytest.raises(MetricError):
            registry.gauge("t_total")  # kind mismatch on re-registration

    def test_thread_safety_exact_counts(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_total")
        child = counter.labels()

        def hammer():
            for _ in range(10_000):
                child.inc()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.snapshot()["t_total"]["series"][()] == 40_000

    def test_snapshot_diff_merge_roundtrip(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_total", "", ("kind",))
        hist = registry.histogram("t_seconds")
        counter.labels(kind="a").inc(5)
        hist.observe(0.2)
        before = registry.snapshot()
        counter.labels(kind="a").inc(3)
        counter.labels(kind="b").inc()
        hist.observe(0.4)
        delta = diff_snapshots(before, registry.snapshot())
        # the delta pickles (workers ship it back with their results)
        delta = pickle.loads(pickle.dumps(delta))
        other = MetricsRegistry()
        other.merge(delta)
        snap = other.snapshot()
        assert snap["t_total"]["series"][("a",)] == 3
        assert snap["t_total"]["series"][("b",)] == 1
        assert snap["t_seconds"]["series"][()]["count"] == 1

    def test_disabled_registry_is_inert(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("t_total")
        counter.inc()
        assert registry.snapshot()["t_total"]["series"] in ({}, {(): 0.0})

    def test_reset_keeps_prebound_children(self):
        registry = MetricsRegistry()
        child = registry.counter("t_total", "", ("kind",)).labels(kind="a")
        child.inc()
        registry.reset()
        child.inc()
        assert registry.snapshot()["t_total"]["series"][("a",)] == 1


class TestPrometheusExport:
    def test_render_parses_and_is_wellformed(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "a counter", ("kind",)).labels(
            kind='we"ird\nkind'
        ).inc()
        registry.histogram("t_seconds", "a histogram").observe(0.1)
        text = registry.render_prometheus()
        assert "# TYPE t_total counter" in text
        assert "# TYPE t_seconds histogram" in text
        series = parse_prometheus(text)
        assert any(key.startswith("t_total{") for key in series)
        assert 't_seconds_bucket{le="+Inf"}' in series
        assert series["t_seconds_count"] == 1

    def test_parser_rejects_regressions(self):
        with pytest.raises(ValueError):
            parse_prometheus("t_total not-a-number\n")
        with pytest.raises(ValueError):
            parse_prometheus("t_total 1\nt_total 2\n")  # duplicate series
        with pytest.raises(ValueError):
            parse_prometheus(  # bucket counts must be cumulative
                't_b_bucket{le="1"} 5\nt_b_bucket{le="+Inf"} 3\n'
            )

    def test_json_export_matches(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "", ("kind",)).labels(kind="a").inc(2)
        data = json.loads(registry.render_json())
        assert data["t_total"]["series"] == [
            {"labels": {"kind": "a"}, "value": 2.0}
        ]


# ---------------------------------------------------------------------------
# engine integration: global registry series and cross-process merging
# ---------------------------------------------------------------------------


class TestEngineIntegration:
    def test_solve_populates_registry(self):
        before = REGISTRY.snapshot()
        solve(sat_problem())
        delta = diff_snapshots(before, REGISTRY.snapshot())
        key = ("SatisfiabilityProblem", "pattern-sat", "proved")
        assert delta["repro_solves_total"]["series"][key] == 1
        assert delta["repro_solve_latency_seconds"]["series"][
            ("pattern-sat",)
        ]["count"] == 1
        assert any(
            name.startswith("repro_cache_") for name in delta
        ), f"no cache series moved: {sorted(delta)}"

    def test_parallel_batch_merges_worker_metrics_and_traces(self):
        problems = [EasyProblem(i) for i in range(6)]
        before = REGISTRY.snapshot()
        with collecting("session"):
            batch = solve_many(problems, jobs=2, chunk_size=1)
        delta = diff_snapshots(before, REGISTRY.snapshot())
        solves = sum(delta["repro_solves_total"]["series"].values())
        assert solves == len(problems)
        assert sum(delta["repro_worker_chunks_total"]["series"].values()) >= 1
        assert delta["repro_batch_problems_total"]["series"][()] == 6
        assert "repro_queue_wait_seconds" in delta
        # the merged trace holds one solve span per problem, under chunks
        tree = batch.report.trace
        assert tree["name"] == "solve_many"
        chunk_names = {child["name"] for child in tree["children"]}
        assert chunk_names == {"chunk"}
        solve_spans = [s for s in walk(tree) if s["name"] == "solve"]
        assert len(solve_spans) == len(problems)
        assert batch.report.queue_wait_seconds >= 0.0

    def test_worker_crash_truncated_trace_and_failure_metric(self):
        problems = [EasyProblem(0), CrashProblem(), EasyProblem(1)]
        before = REGISTRY.snapshot()
        with collecting("session"):
            batch = solve_many(problems, jobs=2, chunk_size=1)
        assert batch[1].is_unknown
        delta = diff_snapshots(before, REGISTRY.snapshot())
        failures = delta["repro_worker_failures_total"]["series"]
        assert sum(failures.values()) >= 1
        # the crashed solve still shows up in the merged trace, truncated
        truncated = [
            span for span in walk(batch.report.trace) if span.get("truncated")
        ]
        assert truncated, "crashed worker left no truncated span"
        assert batch[1].report.trace.get("truncated") is True


# ---------------------------------------------------------------------------
# CLI round-trips
# ---------------------------------------------------------------------------


@pytest.fixture
def mapping_file(tmp_path):
    path = tmp_path / "mapping.xsm"
    path.write_text(MAPPING_TEXT)
    return str(path)


class TestCli:
    def test_check_trace_roundtrip(self, tmp_path, mapping_file):
        out = tmp_path / "trace.jsonl"
        assert main(["check", mapping_file, "--trace", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records[0]["name"] == "repro"
        assert records[0]["parent"] == -1
        ids = {record["id"] for record in records}
        assert all(
            record["parent"] in ids for record in records if record["parent"] != -1
        )
        assert any(record["name"] == "solve" for record in records)

    def test_check_trace_parallel_merges_workers(self, tmp_path, mapping_file):
        out = tmp_path / "trace.jsonl"
        code = main(
            ["check", mapping_file, "--jobs", "2", "--trace", str(out)]
        )
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        names = [record["name"] for record in records]
        assert "solve_many" in names and "chunk" in names
        solves = [r for r in records if r["name"] == "solve"]
        assert len(solves) == 2  # consistency + absolute consistency
        # span durations cover >= 90% of the command's wall clock
        root = records[0]
        covered = sum(
            r["duration"] for r in records if r["parent"] == root["id"]
        )
        assert covered >= 0.9 * root["duration"] or root["duration"] < 0.01

    def test_check_metrics_prometheus_roundtrip(self, tmp_path, mapping_file):
        out = tmp_path / "metrics.prom"
        assert main(["check", mapping_file, "--metrics", str(out)]) == 0
        series = parse_prometheus(out.read_text())
        names = {key.split("{", 1)[0] for key in series}
        assert "repro_solves_total" in names
        assert "repro_solve_latency_seconds_bucket" in names

    def test_check_metrics_json(self, tmp_path, mapping_file):
        out = tmp_path / "metrics.json"
        assert main(["check", mapping_file, "--metrics", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["repro_solves_total"]["kind"] == "counter"

    def test_stats_prints_registry_section(self, mapping_file, capsys):
        assert main(["check", mapping_file, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "registry:" in out
        assert "repro_solves_total" in out

    def test_stats_subcommand_selfchecks(self, capsys):
        assert main(["stats", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "stats: OK" in out


# ---------------------------------------------------------------------------
# idle overhead: generous in-suite bound (the tight gate is bench_obs.py)
# ---------------------------------------------------------------------------


def test_trace_disabled_overhead_micro():
    import time

    problem = sat_problem()
    solve(problem)  # warm caches and lazy imports

    def best(repeats=5):
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            for _ in range(20):
                solve(problem)
            times.append(time.perf_counter() - started)
        return min(times)

    REGISTRY.enabled = False
    try:
        baseline = best()
    finally:
        REGISTRY.enabled = True
    observed = best()
    # generous 50% in-suite bound: catches O(problem-size) blowups, not
    # scheduler noise; bench_obs.py enforces the real 5% budget
    assert observed <= baseline * 1.5 + 0.01


# ---------------------------------------------------------------------------
# exemplars, quantile estimation, bucket configuration
# ---------------------------------------------------------------------------


class TestExemplars:
    def test_observe_keeps_worst_exemplar_per_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05, exemplar="fast-1")
        hist.observe(0.09, exemplar="fast-2")
        hist.observe(0.02, exemplar="fast-3")  # smaller: must not replace
        hist.observe(0.5, exemplar="mid")
        snapshot = registry.snapshot()["h_seconds"]["series"][()]
        exemplars = snapshot["exemplars"]
        assert exemplars[0][0] == pytest.approx(0.09)
        assert exemplars[0][1] == "fast-2"
        assert exemplars[1][1] == "mid"
        assert exemplars[2] is None  # +Inf bucket: nothing landed there

    def test_observe_without_exemplar_leaves_slot(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", buckets=(1.0,))
        hist.observe(0.5, exemplar="keep")
        hist.observe(0.9)  # worse value but no exemplar attached
        snapshot = registry.snapshot()["h_seconds"]["series"][()]
        assert snapshot["exemplars"][0][1] == "keep"

    def test_render_prometheus_exemplar_syntax_parses(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05, exemplar="abc123")
        text = registry.render_prometheus()
        assert ' # {trace_id="abc123"} 0.05' in text
        parse_prometheus(text)  # the strict parser must accept it

    def test_parser_rejects_exemplar_on_gauge(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1)
        text = registry.render_prometheus().rstrip("\n")
        text = text.replace("g 1", 'g 1 # {trace_id="x"} 1') + "\n"
        with pytest.raises(ValueError):
            parse_prometheus(text)

    def test_merge_max_merges_exemplars(self):
        first = MetricsRegistry()
        first.histogram("h_seconds", buckets=(1.0,)).observe(0.3, exemplar="low")
        second = MetricsRegistry()
        second.histogram("h_seconds", buckets=(1.0,)).observe(0.7, exemplar="high")
        first.merge(second.snapshot())
        merged = first.snapshot()["h_seconds"]["series"][()]
        assert merged["exemplars"][0][1] == "high"
        assert merged["count"] == 2
        # idempotent direction: merging the worse exemplar back keeps it
        first.merge(second.snapshot())
        assert first.snapshot()["h_seconds"]["series"][()]["exemplars"][0][1] == "high"

    def test_merge_rejects_mismatched_buckets(self):
        driver = MetricsRegistry()
        driver.histogram("h_seconds", buckets=(0.1, 1.0)).observe(0.05)
        worker = MetricsRegistry()
        worker.histogram("h_seconds", buckets=(0.5, 2.0)).observe(0.05)
        before = driver.snapshot()
        with pytest.raises(ValueError, match="bucket"):
            driver.merge(worker.snapshot())
        # the failed merge must not have corrupted the driver's counts
        assert driver.snapshot() == before

    def test_merge_rejects_excess_bucket_counts(self):
        registry = MetricsRegistry()
        registry.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        delta = registry.snapshot()
        series = delta["h_seconds"]["series"][()]
        series["buckets"] = series["buckets"] + [7]
        with pytest.raises(ValueError):
            MetricsRegistry().merge(delta)


class TestBucketConfiguration:
    def test_env_overrides_default_buckets(self, monkeypatch):
        from repro.obs import BUCKETS_ENV, default_buckets

        monkeypatch.setenv(BUCKETS_ENV, "0.5, 0.1, 2")
        assert default_buckets() == (0.1, 0.5, 2.0)
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds")
        assert hist.buckets == (0.1, 0.5, 2.0, float("inf"))

    def test_env_malformed_raises(self, monkeypatch):
        from repro.obs import BUCKETS_ENV, default_buckets

        monkeypatch.setenv(BUCKETS_ENV, "fast,slow")
        with pytest.raises(MetricError):
            default_buckets()

    def test_env_unset_gives_defaults(self, monkeypatch):
        from repro.obs import BUCKETS_ENV, default_buckets
        from repro.obs.metrics import DEFAULT_BUCKETS

        monkeypatch.delenv(BUCKETS_ENV, raising=False)
        assert default_buckets() == DEFAULT_BUCKETS


class TestQuantileEstimation:
    def test_empty_histogram_is_none(self):
        from repro.obs import estimate_quantile

        assert estimate_quantile((1.0, float("inf")), (0, 0), 0.5) is None

    def test_linear_interpolation_within_bucket(self):
        from repro.obs import estimate_quantile

        # 10 observations uniformly in (0, 1]: the median interpolates
        # to the middle of the bucket
        bounds = (1.0, float("inf"))
        assert estimate_quantile(bounds, (10, 0), 0.5) == pytest.approx(0.5)
        assert estimate_quantile(bounds, (10, 0), 0.9) == pytest.approx(0.9)

    def test_quantile_across_buckets(self):
        from repro.obs import estimate_quantile

        bounds = (0.1, 1.0, float("inf"))
        counts = (5, 5, 0)
        assert estimate_quantile(bounds, counts, 0.25) == pytest.approx(0.05)
        assert estimate_quantile(bounds, counts, 0.75) == pytest.approx(0.55)

    def test_inf_bucket_clamps_to_last_finite_bound(self):
        from repro.obs import estimate_quantile

        bounds = (0.1, 1.0, float("inf"))
        assert estimate_quantile(bounds, (0, 0, 4), 0.99) == pytest.approx(1.0)
