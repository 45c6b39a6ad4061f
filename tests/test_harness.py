"""The benchmark sweep helper: averaging must not mix cold and warm runs."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import harness
from harness import emit_json, growth_ratios, series_payload, sweep, time_once


class FakeClock:
    """A perf_counter that advances only when an action charges it."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(harness.time, "perf_counter", fake.perf_counter)
    return fake


def make_action(clock, costs, steady):
    """An action whose i-th call costs ``costs[i]``, then ``steady``."""
    calls = {"n": 0}

    def action():
        cost = costs[calls["n"]] if calls["n"] < len(costs) else steady
        calls["n"] += 1
        clock.now += cost
        return calls["n"]

    action.calls = calls
    return action


def test_time_once(clock):
    elapsed, result = time_once(make_action(clock, [0.25], 0.25))
    assert elapsed == pytest.approx(0.25)
    assert result == 1


def test_sweep_discards_cold_first_sample(clock):
    # the first call pays a one-time 9ms setup, warm calls take 1ms; the
    # reported mean must be the warm cost, not a cold/warm mixture
    action = make_action(clock, [0.009], 0.001)
    ((n, mean, result, samples),) = sweep(
        [7], lambda n: action, min_repeat_seconds=0.01
    )
    assert n == 7
    assert mean == pytest.approx(0.001)
    assert result == action.calls["n"]
    assert samples > 1  # repeat-averaged, and the count is recorded


def test_sweep_takes_min_of_k_for_slow_points(clock):
    # a point over the repeat threshold is sampled min_samples times and
    # the minimum is reported — interference only ever adds time
    action = make_action(clock, [0.03, 0.02], 0.025)
    ((_, best, __, samples),) = sweep([3], lambda n: action, min_repeat_seconds=0.01)
    assert best == pytest.approx(0.02)
    assert action.calls["n"] == 3
    assert samples == 3


def test_sweep_min_samples_is_tunable(clock):
    action = make_action(clock, [0.05, 0.04, 0.03, 0.02], 0.06)
    ((_, best, __, samples),) = sweep(
        [3], lambda n: action, min_repeat_seconds=0.01, min_samples=5
    )
    assert best == pytest.approx(0.02)
    assert samples == 5


def test_sweep_accumulates_warm_batches(clock):
    # steady 0.4ms per call: several warm batches are needed to cross the
    # 10ms floor, and every one of them enters the average
    action = make_action(clock, [0.002], 0.0004)
    ((_, mean, __, ___),) = sweep([1], lambda n: action, min_repeat_seconds=0.01)
    assert mean == pytest.approx(0.0004)
    assert action.calls["n"] > 20


def test_growth_ratios():
    rows = [(1, 1.0, None), (2, 2.0, None), (4, 8.0, None)]
    assert growth_ratios(rows) == [2.0, 4.0]


def test_series_payload_records_samples():
    rows = [harness.SweepPoint(2, 0.5, True, 7), (4, 1.0, False)]
    payload = series_payload(rows, claim="EXPTIME", note="demo", extra_key=1)
    assert payload["claim"] == "EXPTIME"
    assert payload["extra_key"] == 1
    assert payload["points"][0] == {
        "n": 2, "seconds": 0.5, "samples": 7, "result": "True",
    }
    assert payload["points"][1]["samples"] == 1  # bare triple: single sample


def test_emit_json_merges_experiments(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "REPO_ROOT", tmp_path)
    emit_json("fig1", "F1.1", {"claim": "a"})
    path = emit_json("fig1", "F1.2", {"claim": "b"})
    assert path == tmp_path / "BENCH_fig1.json"
    import json

    data = json.loads(path.read_text())
    assert set(data) == {"F1.1", "F1.2", "_meta"}
    # corrupt trajectory files are rebuilt, not fatal
    path.write_text("{broken")
    emit_json("fig1", "F1.3", {"claim": "c"})
    assert set(json.loads(path.read_text())) == {"F1.3", "_meta"}


def test_emit_json_stamps_schema_and_environment(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "REPO_ROOT", tmp_path)
    path = emit_json("fig2", "F2.1", {"claim": "a", "jobs": 4})
    import json

    meta = json.loads(path.read_text())["_meta"]
    assert meta["schema_version"] == harness.SCHEMA_VERSION
    environment = meta["environment"]
    assert environment["python"].count(".") == 2
    assert environment["cpu_count"] >= 1
    assert environment["jobs"] == 4  # taken from the record when present
    assert "platform" in environment
    # notes journaled under _meta survive a later write of another series
    emit_json("fig2", "F2.2", {"claim": "b"}, meta={"F2.2": "warm cache"})
    path = emit_json("fig2", "F2.3", {"claim": "c"})
    meta = json.loads(path.read_text())["_meta"]
    assert meta["F2.2"] == "warm cache"
    assert meta["environment"] == harness.run_environment()  # restamped


def test_series_payload_journals_span_breakdown():
    class FakeReport:
        trace = {
            "name": "solve_many", "duration": 1.0,
            "children": [{"name": "solve", "duration": 0.25, "children": []}],
        }

    class FakeBatch:
        report = FakeReport()

    payload = series_payload([harness.SweepPoint(2, 0.5, FakeBatch(), 1)])
    breakdown = payload["points"][0]["span_breakdown"]
    assert breakdown == {"solve": 0.25, "solve_many": 1.0}
