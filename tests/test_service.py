"""Service layer: EngineSession handlers, the HTTP daemon, admission
control, request-ID propagation and cache thread-safety under load."""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine import Budget, CompilationCache, DiskCacheTier, solve_many
from repro.obs import REGISTRY, bind_tags, walk
from repro.service import (
    EngineSession,
    RequestError,
    ServiceServer,
    ServiceUnavailable,
    call_service,
    fetch_json,
    fetch_text,
)
from tests._engine_helpers import CrashProblem, EasyProblem, HangProblem

MAPPING_TEXT = """\
source:
    f -> item*
    item(sku)
target:
    w -> product*
    product(sku)
std: f[item(s)] -> w[product(s)]
"""

BROKEN_MAPPING_TEXT = """\
source:
    f -> a
    a(x)
target:
    w -> EMPTY
std: f[a(x)] -> w[b(x)]
"""


# ---------------------------------------------------------------------------
# EngineSession: the shared request/response code path
# ---------------------------------------------------------------------------


class TestEngineSession:
    def test_check_round_trip(self):
        session = EngineSession()
        response = session.check({"mappings": [{"name": "m", "text": MAPPING_TEXT}]})
        assert response["ok"] is True
        assert response["command"] == "check"
        assert response["exit_code"] == 0
        (entry,) = response["results"]
        assert entry["name"] == "m"
        assert entry["consistent"]["verdict"] == "proved"
        assert entry["absolutely_consistent"]["verdict"] == "proved"
        # the response is a JSON document, not a pile of live objects
        json.dumps(response)

    def test_request_id_honoured_and_generated(self):
        session = EngineSession()
        explicit = session.stats({"request_id": "req-7"})
        assert explicit["request_id"] == "req-7"
        first = session.stats({})
        second = session.stats({})
        assert first["request_id"] != second["request_id"]

    def test_mapping_error_is_an_envelope_not_an_exception(self):
        session = EngineSession()
        response = session.check({"mappings": ["this is not a mapping"]})
        assert response["ok"] is False
        assert response["exit_code"] == 3
        assert response["error"]["type"] == "ParseError"

    def test_deeply_nested_mapping_is_a_parse_error(self):
        deep = MAPPING_TEXT.replace("item*", "(" * 3000 + "item" + ")" * 3000 + "*")
        response = EngineSession().handle("check", {"mappings": [deep]})
        assert response["ok"] is False
        assert response["exit_code"] == 3
        assert response["error"]["type"] == "ParseError"
        assert "nesting" in response["error"]["message"]

    def test_deeply_nested_member_source_is_a_parse_error(self):
        response = EngineSession().member({
            "mapping": MAPPING_TEXT,
            "source": "<f>" * 3000 + "</f>" * 3000,
            "targets": [{"name": "t", "text": "<w/>"}],
        })
        assert response["ok"] is False
        assert response["exit_code"] == 3
        assert response["error"]["type"] == "ParseError"
        assert "nesting" in response["error"]["message"]

    def test_bad_request_shapes_are_rejected(self):
        session = EngineSession()
        assert session.check({})["error"]["type"] == "RequestError"
        assert session.check({"mappings": []})["error"]["type"] == "RequestError"
        bad_budget = session.check(
            {"mappings": [MAPPING_TEXT], "budget": {"no_such_knob": 1}}
        )
        assert bad_budget["error"]["type"] == "RequestError"
        assert "no_such_knob" in bad_budget["error"]["message"]

    def test_timeout_tightens_the_budget_deadline(self):
        session = EngineSession(budget=Budget.default().with_(deadline_seconds=60.0))
        tightened = session._request_budget({"timeout": 1.5})
        assert tightened.deadline_seconds == 1.5
        # a looser client timeout must not widen an already-tight budget
        session2 = EngineSession(budget=Budget.default().with_(deadline_seconds=0.5))
        kept = session2._request_budget({"timeout": 30.0})
        assert kept.deadline_seconds == 0.5
        with pytest.raises(RequestError):
            session._request_budget({"timeout": -1})

    def test_member_and_violations(self):
        session = EngineSession()
        source = '<f><item sku="s1"/></f>'
        good = '<w><product sku="s1"/></w>'
        bad = "<w/>"
        response = session.member({
            "mapping": MAPPING_TEXT,
            "source": source,
            "targets": [{"name": "good", "text": good},
                        {"name": "bad", "text": bad}],
            "explain": True,
        })
        answers = {e["name"]: e["answer"] for e in response["results"]}
        assert answers == {"good": "YES", "bad": "NO"}
        assert response["exit_code"] == 1
        bad_entry = response["results"][1]
        assert bad_entry["violations"]
        assert bad_entry["violations"][0]["values"] == {"s": "s1"}

    def test_compose_and_lint(self):
        session = EngineSession()
        composed = session.compose({
            "first": MAPPING_TEXT,
            "second": "source:\n    w -> product*\n    product(sku)\n"
                      "target:\n    v -> entry*\n    entry(sku)\n"
                      "std: w[product(s)] -> v[entry(s)]\n",
        })
        assert composed["ok"], composed.get("error")
        assert "std:" in composed["mapping"]
        lint = session.lint({"mappings": [{"name": "m.xsm", "text": MAPPING_TEXT}]})
        assert lint["exit_code"] == 0
        assert lint["report"]["reports"][0]["name"] == "m.xsm"
        assert lint["rendered"][0]["text"].startswith("fragment:")

    def test_stats_and_request_accounting(self):
        session = EngineSession()
        session.check({"mappings": [MAPPING_TEXT]})
        response = session.stats({})
        assert response["session"]["requests"]["check"] == 1
        assert "hits" in response["cache"]
        # the request counters reach the shared registry
        text = REGISTRY.render_prometheus()
        assert 'repro_requests_total{command="check",outcome="ok"}' in text

    def test_selftest_passes_serially_and_parallel(self):
        session = EngineSession()
        assert session.selftest({"jobs": 1})["exit_code"] == 0
        assert session.selftest({"jobs": 2})["exit_code"] == 0

    def test_unknown_command_raises(self):
        with pytest.raises(RequestError):
            EngineSession().handle("shutdown", {})

    def test_warm_cache_is_reused_across_requests(self):
        def reused_verdicts() -> float:
            series = REGISTRY.snapshot()["repro_incremental_reused_total"]
            return series["series"].get(("verdict",), 0)

        session = EngineSession()
        session.check({"mappings": [MAPPING_TEXT]})
        before, misses = reused_verdicts(), session.cache.stats()["misses"]
        session.check({"mappings": [MAPPING_TEXT]})
        # both verdicts come out of the session's memo: nothing re-solved
        assert reused_verdicts() == before + 2
        assert session.cache.stats()["misses"] == misses


# ---------------------------------------------------------------------------
# request-ID propagation: every span of a request carries its ID
# ---------------------------------------------------------------------------


class TestRequestIdPropagation:
    def test_parallel_check_tags_every_worker_span(self):
        session = EngineSession(jobs=2)
        response = session.check({
            "mappings": [MAPPING_TEXT],
            "jobs": 2,
            "trace": True,
            "request_id": "req-trace-1",
        })
        assert response["ok"], response.get("error")
        spans = list(walk(response["trace"]))
        chunks = [s for s in spans if s["name"] == "chunk"]
        solves = [s for s in spans if s["name"] == "solve"]
        assert chunks and solves
        for span in chunks + solves:
            assert span["attrs"]["request"] == "req-trace-1"
        for entry in response["results"]:
            for key in ("consistent", "absolutely_consistent"):
                assert entry[key]["report"]["request_id"] == "req-trace-1"

    def test_session_request_id_reaches_crash_synthetics(self):
        session = EngineSession(jobs=2)
        response = session._run(
            "stress", {},
            lambda request: {
                "request_ids": [
                    verdict.report.request_id
                    for verdict in solve_many(
                        [EasyProblem(1), CrashProblem(), EasyProblem(2)],
                        jobs=2, task_timeout=30.0,
                    )
                ],
                "exit_code": 0,
            },
        )
        assert response["ok"]
        rid = response["request_id"]
        assert response["request_ids"] == [rid, rid, rid]

    def test_crash_and_timeout_truncated_spans_keep_the_tag(self):
        with bind_tags(request="req-dead"):
            batch = solve_many(
                [EasyProblem(1), CrashProblem(), HangProblem(seconds=30.0)],
                jobs=2, task_timeout=1.0,
            )
        easy, crashed, hung = batch.verdicts
        assert easy.is_proved
        assert crashed.is_unknown and hung.is_unknown
        for verdict in (easy, crashed, hung):
            assert verdict.report.request_id == "req-dead"
        for verdict in (crashed, hung):
            span = verdict.report.trace
            assert span["attrs"]["request"] == "req-dead"
            assert span["attrs"]["outcome"] in ("worker-crash", "worker-timeout")


# ---------------------------------------------------------------------------
# the HTTP daemon: routing, admission control, saturation
# ---------------------------------------------------------------------------


@pytest.fixture
def server():
    with ServiceServer(EngineSession(), port=0) as srv:
        yield srv


def _get_status(url: str, path: str) -> tuple[int, dict]:
    """GET *path*, returning the HTTP status with the JSON body."""
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(f"{url}/{path}", timeout=30.0) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestServiceServer:
    def test_check_over_http(self, server):
        response = call_service(server.url, "check",
                                {"mappings": [MAPPING_TEXT]})
        assert response["ok"] is True
        assert response["exit_code"] == 0

    def test_inconsistent_mapping_over_http(self, server):
        response = call_service(server.url, "check",
                                {"mappings": [BROKEN_MAPPING_TEXT]})
        # 200 with the verdict in the body: serving worked, the mapping is bad
        assert response["exit_code"] in (1, 3)

    def test_request_error_maps_to_400(self, server):
        response = call_service(server.url, "check", {})
        assert response["error"]["type"] == "RequestError"

    def test_unknown_route_is_404(self, server):
        response = call_service(server.url, "no-such-command", {})
        assert response["error"]["type"] == "NotFound"

    def test_health_metrics_and_stats(self, server):
        assert fetch_text(server.url, "healthz").strip() == "ok"
        call_service(server.url, "check", {"mappings": [MAPPING_TEXT]})
        metrics = fetch_text(server.url, "metrics")
        assert "repro_requests_total" in metrics
        stats = json.loads(fetch_text(server.url, "stats"))
        assert stats["session"]["requests"]["check"] >= 1
        payload = json.loads(fetch_text(server.url, "metrics.json"))
        assert payload["repro_requests_total"]["kind"] == "counter"

    @pytest.mark.parametrize("route", ["debug/requests", "debug/slow"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_limit_is_a_typed_400(self, server, route, value):
        status, body = _get_status(server.url, f"{route}?limit={value}")
        assert status == 400
        assert body["error"]["type"] == "BadRequest"
        assert "limit" in body["error"]["message"]
        # the daemon keeps serving, and finite limits still work
        assert fetch_json(server.url, f"{route}?limit=2")

    def test_non_finite_min_ms_is_a_typed_400(self, server):
        status, body = _get_status(server.url, "debug/requests?min_ms=nan")
        assert status == 400
        assert body["error"]["type"] == "BadRequest"

    def test_unreachable_daemon_raises_service_unavailable(self):
        with pytest.raises(ServiceUnavailable):
            call_service("http://127.0.0.1:1", "check",
                         {"mappings": [MAPPING_TEXT]}, timeout=2.0)

    def test_saturation_returns_429(self):
        release = threading.Event()
        entered = threading.Event()

        class SlowSession(EngineSession):
            def check(self, request=None):
                entered.set()
                release.wait(timeout=30.0)
                return super().check(request)

        rejected_before = _rejected_total()
        with ServiceServer(
            SlowSession(), port=0, max_inflight=1, queue_depth=0,
            request_timeout=None,
        ) as srv:
            with ThreadPoolExecutor(max_workers=2) as pool:
                blocker = pool.submit(
                    call_service, srv.url, "check", {"mappings": [MAPPING_TEXT]}
                )
                assert entered.wait(timeout=10.0)
                overflow = call_service(
                    srv.url, "check", {"mappings": [MAPPING_TEXT]}
                )
                assert overflow["error"]["type"] == "Saturated"
                release.set()
                assert blocker.result(timeout=30.0)["ok"] is True
        assert _rejected_total() > rejected_before

    def test_server_timeout_caps_client_timeout(self):
        seen: list[object] = []

        class RecordingSession(EngineSession):
            def check(self, request=None):
                seen.append((request or {}).get("timeout"))
                return super().check(request)

        with ServiceServer(RecordingSession(), port=0, request_timeout=5.0) as srv:
            call_service(srv.url, "check",
                         {"mappings": [MAPPING_TEXT], "timeout": 60.0})
            call_service(srv.url, "check",
                         {"mappings": [MAPPING_TEXT], "timeout": 2.0})
        assert seen == [5.0, 2.0]

    def test_keep_alive_requests_do_not_stall(self, server):
        # ten POSTs over one HTTP/1.1 connection: headers and body are two
        # writes, and with Nagle's algorithm on each reply waited ~40 ms
        # for the client's delayed ACK
        import http.client
        from urllib.parse import urlsplit

        address = urlsplit(server.url)
        body = json.dumps({"mappings": [MAPPING_TEXT]}).encode()
        headers = {"Content-Type": "application/json"}
        connection = http.client.HTTPConnection(
            address.hostname, address.port, timeout=30.0
        )

        def post() -> dict:
            connection.request("POST", "/check", body, headers)
            return json.loads(connection.getresponse().read())

        try:
            assert post()["ok"] is True  # warms the session's memo
            started = time.perf_counter()
            for __ in range(10):
                assert post()["ok"] is True
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        assert elapsed < 0.2, elapsed


def _rejected_total() -> float:
    from repro.obs import parse_prometheus

    series = parse_prometheus(REGISTRY.render_prometheus())
    return series.get('repro_rejected_total{reason="saturated"}', 0.0)


# ---------------------------------------------------------------------------
# cache thread-safety: concurrent hits, misses and evictions
# ---------------------------------------------------------------------------


class TestCacheConcurrency:
    THREADS = 8
    ROUNDS = 300

    def test_memory_cache_stress(self):
        cache = CompilationCache(max_entries=8)
        errors: list[BaseException] = []
        built = [0] * 32

        def builder(index):
            def build():
                built[index] += 1
                time.sleep(0.0001)
                return ("artifact", index)
            return build

        def worker(seed: int) -> None:
            try:
                for round_number in range(self.ROUNDS):
                    index = (seed * 7 + round_number) % 32
                    value = cache.lookup(("dtd", index), builder(index))
                    assert value == ("artifact", index)
            except BaseException as error:  # surfaced below
                errors.append(error)

        with ThreadPoolExecutor(max_workers=self.THREADS) as pool:
            for future in [pool.submit(worker, seed)
                           for seed in range(self.THREADS)]:
                future.result()
        assert not errors
        stats = cache.stats()
        # every lookup is accounted exactly once
        assert stats["hits"] + stats["misses"] == self.THREADS * self.ROUNDS
        # the LRU bound holds after arbitrary interleavings
        assert len(cache) <= 8
        assert stats["evictions"] > 0

    def test_disk_tier_stress(self, tmp_path):
        cache = CompilationCache(
            max_entries=4, disk=DiskCacheTier(tmp_path / "artifacts")
        )
        errors: list[BaseException] = []

        def worker(seed: int) -> None:
            try:
                for round_number in range(100):
                    index = (seed + round_number) % 12
                    value = cache.lookup(
                        ("regex", index), lambda index=index: ("dfa", index)
                    )
                    assert value == ("dfa", index)
            except BaseException as error:
                errors.append(error)

        with ThreadPoolExecutor(max_workers=self.THREADS) as pool:
            for future in [pool.submit(worker, seed)
                           for seed in range(self.THREADS)]:
                future.result()
        assert not errors
        stats = cache.stats()
        # every lookup lands in exactly one bucket: memory hit, disk hit,
        # or a build (counted as a miss)
        assert (stats["hits"] + stats["misses"] + stats["disk_hits"]
                == self.THREADS * 100)
        # every build was preceded by exactly one disk miss
        assert stats["disk_misses"] == stats["misses"]
        # evicted-then-relooked keys come back from disk, not a rebuild
        assert stats["disk_hits"] > 0

    def test_concurrent_sessions_share_one_cache(self):
        session = EngineSession()
        errors: list[BaseException] = []

        def worker() -> None:
            try:
                response = session.check({"mappings": [MAPPING_TEXT]})
                assert response["exit_code"] == 0
            except BaseException as error:
                errors.append(error)

        with ThreadPoolExecutor(max_workers=6) as pool:
            for future in [pool.submit(worker) for __ in range(12)]:
                future.result()
        assert not errors
        stats = session.cache.stats()
        assert stats["hits"] > 0  # later requests rode the warm cache
