"""Incremental re-solving: fingerprints, deltas, bounded memos.

The load-bearing property is at the bottom: under random single-std
edits, the incremental engine's verdicts must be *identical* to a cold
solve of the same revision — under both automata kernels, and also
after the memos have evicted entries.  Everything above it pins the
machinery that makes the property cheap: edit diffing, the LRU bound on
the result memo, undo reuse and the file watcher.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import lint_mapping
from repro.engine import CompilationCache, ExecutionContext, solve_many
from repro.engine.cache import dtd_classification
from repro.engine.problems import ConsistencyProblem
from repro.incremental import (
    FileWatcher,
    IncrementalEngine,
    diff_fingerprints,
    fingerprint_mapping,
    verdict_key,
)
from repro.kernel import BITSET, PURE, force_kernel
from repro.mappings.io import parse_mapping
from repro.mappings.mapping import SchemaMapping
from repro.mappings.std import STD
from repro.obs import REGISTRY
from repro.service.session import EngineSession
from repro.workloads.random_instances import (
    abstract_pattern_from_tree,
    random_tree_from_dtd,
)
from tests.test_kernels import random_structural_mapping

SIMPLE = """\
source:
    r -> item*
    item(sku)
target:
    w -> product*
    product(sku)
std: r[item(s)] -> w[product(s)]
"""


# ---------------------------------------------------------------------------
# fingerprints and deltas
# ---------------------------------------------------------------------------


def test_fingerprint_diff_localizes_a_single_std_edit():
    base = parse_mapping(SIMPLE)
    edited = parse_mapping(SIMPLE.replace("w[product(s)]", "w[product(t)]"))
    old, new = fingerprint_mapping(base), fingerprint_mapping(edited)
    delta = diff_fingerprints(old, new)
    assert not delta.cold
    assert delta.changed_stds == (0,)
    assert not delta.source_dtd_changed and not delta.target_dtd_changed
    # one changed std replaced one removed std; the DTDs are clean
    assert delta.removed_stds == 1 and delta.dirty == 2


def test_fingerprint_diff_sees_dtd_edits():
    base = parse_mapping(SIMPLE)
    edited = parse_mapping(SIMPLE.replace("item(sku)", "item(sku, color)"))
    delta = diff_fingerprints(
        fingerprint_mapping(base), fingerprint_mapping(edited)
    )
    assert delta.source_dtd_changed and not delta.target_dtd_changed
    assert delta.changed_stds == () and delta.dirty == 1


def test_cold_start_marks_everything_dirty():
    new = fingerprint_mapping(parse_mapping(SIMPLE))
    delta = diff_fingerprints(None, new)
    # every std plus both DTDs
    assert delta.cold and delta.dirty == len(new.std_digests) + 2


# ---------------------------------------------------------------------------
# the engine: reuse, invalidation and the memos
# ---------------------------------------------------------------------------


def test_noop_delta_reuses_every_decided_verdict():
    engine = IncrementalEngine(cache=CompilationCache())
    cold = engine.update("m", SIMPLE)
    assert cold.cold and cold.recompiled > 0
    warm = engine.update("m", SIMPLE)
    assert warm.delta.unchanged
    undecided = sum(1 for v in cold.verdicts.values() if v.is_unknown)
    assert warm.reused >= len(cold.verdicts) - undecided
    assert warm.elapsed < cold.elapsed


def test_single_std_edit_keeps_every_artifact_warm():
    engine = IncrementalEngine(cache=CompilationCache())
    engine.update("m", SIMPLE)
    entries_before = len(engine.cache)
    delta = engine.update("m", SIMPLE.replace("w[product(s)]", "w[product(t)]"))
    assert not delta.cold and delta.delta.changed_stds == (0,)
    # an edit evicts nothing: a cache below its bound only grows
    assert delta.invalidated == {"artifacts": 0, "results": 0}
    assert len(engine.cache) >= entries_before
    assert delta.reused > 0 and delta.recompiled > 0


def _renamed(index: int) -> str:
    """SIMPLE with its std's variable renamed: a distinct revision."""
    return SIMPLE.replace("item(s)] -> w[product(s)", f"item(v{index})] -> w[product(v{index})")


def test_memos_hold_at_most_max_entries():
    engine = IncrementalEngine(cache=CompilationCache(max_entries=4))
    evicted = 0
    for index in range(8):
        result = engine.update("m", _renamed(index))
        evicted += result.invalidated["results"]
        assert len(engine.memo) <= 4
        assert len(engine.cache) <= 4
    assert evicted == engine.memo.evictions > 0


def test_cache_pickles_with_its_entries():
    import pickle

    cache = CompilationCache(max_entries=4)
    mapping = parse_mapping(SIMPLE)
    dtd_classification(mapping.source_dtd, ExecutionContext(cache=cache))
    clone = pickle.loads(pickle.dumps(cache))
    assert len(clone) == len(cache) == 1 and clone.max_entries == 4
    dtd_classification(mapping.source_dtd, ExecutionContext(cache=clone))
    assert clone.stats()["hits"] == 1  # served from the unpickled entry


def test_undo_edit_is_served_from_the_memos():
    engine = IncrementalEngine(cache=CompilationCache())
    first = engine.update("m", SIMPLE)
    assert not any(v.is_unknown for v in first.verdicts.values())
    engine.update("m", _renamed(1))
    undo = engine.update("m", SIMPLE)
    assert undo.revision == first.revision
    assert undo.recompiled == 0  # every verdict and the lint report reused
    assert undo.reused == len(first.verdicts) + 1
    assert _decisions(undo) == _decisions(first)


def test_lint_memo_round_trip():
    engine = IncrementalEngine(cache=CompilationCache())
    mapping = parse_mapping(SIMPLE)
    context = ExecutionContext(cache=engine.cache, memo=engine.memo)
    first = lint_mapping(mapping, context, name="m")
    second = lint_mapping(mapping, context, name="m")
    assert second is first  # served from the memo, not re-run
    assert engine.memo.entries_by_kind() == {"lint": 1}


def test_verdict_memo_never_stores_unknowns():
    from repro.engine.budget import Budget
    from repro.engine.verdicts import Unknown

    engine = IncrementalEngine(cache=CompilationCache())
    key = verdict_key(ConsistencyProblem(parse_mapping(SIMPLE)), Budget.default())
    engine.memo.store(key, Unknown("budget out"))
    assert engine.memo.lookup(key) is None


def test_session_delta_handler_and_stats():
    session = EngineSession()
    cold = session.delta({"name": "m", "mapping": SIMPLE})
    assert cold["ok"] and cold["cold"]
    warm = session.delta({"name": "m", "mapping": SIMPLE})
    assert warm["ok"] and not warm["cold"]
    assert warm["incremental"]["reused"] > 0
    assert warm["incremental"]["elapsed"] < cold["incremental"]["elapsed"]
    stats = session.stats()
    assert stats["incremental"]["revisions"] == 1
    assert stats["incremental"]["deltas"] == 2
    assert stats["incremental"]["memoized_verdicts"] > 0
    assert stats["incremental"]["memoized_lints"] == 1
    assert stats["cache_entries_by_kind"]  # per-kind live entry counts
    assert "delta" in EngineSession.HANDLERS


def test_lint_memo_hit_carries_the_callers_name():
    engine = IncrementalEngine(cache=CompilationCache())
    first = engine.update("a.xsm", SIMPLE)
    second = engine.update("b.xsm", SIMPLE)
    assert second.reused > 0  # the same content: served from the memo
    assert (first.lint.name, second.lint.name) == ("a.xsm", "b.xsm")
    # a /lint of the same text in the session names its own input
    session = EngineSession()
    session.delta({"name": "a.xsm", "mapping": SIMPLE})
    response = session.lint({"mappings": [{"name": "b.xsm", "text": SIMPLE}]})
    assert [row["name"] for row in response["report"]["reports"]] == ["b.xsm"]


def test_memo_served_verdict_names_the_request_that_served_it():
    session = EngineSession()
    session.delta({"name": "a", "mapping": SIMPLE, "request_id": "req-a"})
    second = session.delta({"name": "b", "mapping": SIMPLE, "request_id": "req-b"})
    assert second["incremental"]["recompiled"] == 0
    for payload in second["verdicts"].values():
        assert payload["report"]["request_id"] == "req-b"
    # the stored verdict is not mutated by serving it
    problem = ConsistencyProblem(parse_mapping(SIMPLE))
    stored = session.incremental.memo.get(verdict_key(problem, session.budget))
    assert stored.report.request_id == "req-a"


def test_served_verdict_is_never_mutated():
    import copy

    session = EngineSession()
    table = session.incremental.parses
    session.check({"mappings": [SIMPLE], "request_id": "req-1"})
    key = verdict_key(
        ConsistencyProblem(parse_mapping(SIMPLE, table=table)), session.budget
    )
    stored = session.incremental.memo.get(key)
    report = copy.deepcopy(stored.report)
    attributes = dict(vars(stored))
    check = session.check({"mappings": [SIMPLE], "request_id": "req-2"})
    delta = session.delta({"name": "m", "mapping": SIMPLE, "request_id": "req-3"})
    assert check["results"][0]["consistent"]["report"]["request_id"] == "req-2"
    assert delta["verdicts"]["consistency"]["report"]["request_id"] == "req-3"
    assert session.incremental.memo.get(key) is stored
    assert stored.report == report and stored.report.request_id == "req-1"
    assert vars(stored) == attributes


# ---------------------------------------------------------------------------
# the parse table
# ---------------------------------------------------------------------------


def test_parse_table_hit_returns_the_identical_mapping():
    engine = IncrementalEngine(cache=CompilationCache())
    first = parse_mapping(SIMPLE, table=engine.parses)
    assert parse_mapping(SIMPLE, table=engine.parses) is first
    # an edited revision takes over every part whose text is unchanged
    edited = parse_mapping(
        SIMPLE.replace("w[product(s)]", "w[product(t)]"), table=engine.parses
    )
    assert edited.source_dtd is first.source_dtd
    assert edited.target_dtd is first.target_dtd
    assert edited.stds[0] is not first.stds[0]
    # without a table every call parses afresh
    fresh = parse_mapping(SIMPLE)
    assert fresh is not first and fresh.source_dtd is not first.source_dtd
    assert fresh.stds == first.stds


def test_parse_table_never_stores_a_parse_error():
    from repro.errors import ParseError

    engine = IncrementalEngine(cache=CompilationCache())
    broken = SIMPLE + "std: r[item(s) -> w[product(s)]\n"
    for __ in range(2):
        with pytest.raises(ParseError):
            parse_mapping(broken, table=engine.parses)
    assert engine.parses.get(("mapping", broken), None) is None
    session = EngineSession()
    for __ in range(2):
        response = session.check({"mappings": [broken]})
        assert not response["ok"] and response["error"]["type"] == "ParseError"


def test_parse_table_evictions_stay_within_max_entries():
    session = EngineSession(cache_size=4)
    for index in range(8):
        assert session.check({"mappings": [_renamed(index)]})["ok"]
        assert len(session.incremental.parses) <= 4
    stats = session.stats()["incremental"]
    assert stats["parse_entries"] == len(session.incremental.parses) <= 4
    assert stats["parse_evictions"] == session.incremental.parses.evictions > 0


def test_warm_requests_after_a_delta_parse_nothing(monkeypatch):
    import repro.mappings.io as mapping_io

    session = EngineSession()
    session.delta({"name": "m", "mapping": BASE})
    calls = {"parse_dtd": 0, "parse_std": 0}

    def counted(name):
        parse = getattr(mapping_io, name)

        def wrapper(text):
            calls[name] += 1
            return parse(text)

        return wrapper

    for name in calls:
        monkeypatch.setattr(mapping_io, name, counted(name))
    assert session.check({"mappings": [BASE]})["ok"]
    assert session.lint({"mappings": [BASE]})["ok"]
    assert calls == {"parse_dtd": 0, "parse_std": 0}
    # an edited std line is the one part a new revision parses
    session.delta({"name": "m", "mapping": REVISIONS[0][1]})
    assert calls == {"parse_dtd": 0, "parse_std": 1}


def test_concurrent_checks_get_identical_results():
    import threading

    texts = [_renamed(index) for index in range(3)] + [BASE]
    session = EngineSession()
    results: list[list] = []
    errors: list[str] = []

    def summary(response: dict) -> list:
        return [
            (row["name"], row["class"], row["exit_code"],
             row["consistent"]["verdict"], row["consistent"]["report"]["algorithm"],
             row["absolutely_consistent"]["verdict"],
             row["absolutely_consistent"]["report"]["algorithm"])
            for row in response["results"]
        ]

    def worker() -> None:
        try:
            rows = []
            for __ in range(5):
                for text in texts:
                    response = session.check({"mappings": [text]})
                    assert response["ok"], response.get("error")
                    rows.append(summary(response))
            results.append(rows)
        except BaseException as error:  # surfaced below
            errors.append(repr(error))

    threads = [threading.Thread(target=worker) for __ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[:3]
    cold = [summary(EngineSession().check({"mappings": [text]})) for text in texts]
    assert results == [cold * 5] * 4


def test_serial_solve_many_serves_repeats_from_the_callers_memo():
    engine = IncrementalEngine(cache=CompilationCache())
    context = ExecutionContext(cache=engine.cache, memo=engine.memo)
    problem = ConsistencyProblem(parse_mapping(SIMPLE))

    def reused_verdicts() -> float:
        series = REGISTRY.snapshot()["repro_incremental_reused_total"]
        return series["series"].get(("verdict",), 0)

    before = reused_verdicts()
    batch = solve_many([problem, problem], jobs=1, context=context)
    assert batch.decisions()[0] == batch.decisions()[1]
    assert reused_verdicts() == before + 1
    assert engine.memo.entries_by_kind() == {"verdict": 1}


def test_shared_memo_under_concurrent_requests():
    import sys
    import threading

    texts = [_renamed(index) for index in range(6)]
    expected = {}
    for text in texts:
        cold = EngineSession().check({"mappings": [text]})["results"][0]
        expected[text] = (cold["consistent"]["verdict"],
                          cold["absolutely_consistent"]["verdict"])
    session = EngineSession(cache_size=4)
    errors: list[str] = []

    def worker(seed: int) -> None:
        try:
            for step in range(12):
                text = texts[(seed + step) % len(texts)]
                name = f"w{seed}-{step}"
                delta = session.delta({"name": name, "mapping": text})
                check = session.check({"mappings": [text]})["results"][0]
                lint = session.lint({"mappings": [{"name": name, "text": text}]})
                got = {
                    (delta["verdicts"]["consistency"]["verdict"],
                     delta["verdicts"]["absolutely_consistent"]["verdict"]),
                    (check["consistent"]["verdict"],
                     check["absolutely_consistent"]["verdict"]),
                }
                if got != {expected[text]}:
                    errors.append(f"{name}: {got} != {expected[text]}")
                if [row["name"] for row in lint["report"]["reports"]] != [name]:
                    errors.append(f"{name}: lint report misnamed")
        except BaseException as error:  # surfaced below
            errors.append(repr(error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[:3]
    assert len(session.incremental.memo) <= 4 and session.incremental.memo.evictions > 0


# ---------------------------------------------------------------------------
# deadline-bounded requests and the per-std hygiene memo
# ---------------------------------------------------------------------------


def _ladder(n: int, edited: int | None = None) -> str:
    """An ``n``-std mapping, one label pair per std, plus a dead std
    (SM204) last; *edited* makes std ``edited`` drop its source value."""
    source = ["source:", "    r -> " + ", ".join(f"a{i}*" for i in range(n))
              + ", (p | q)", "    p", "    q"]
    target = ["target:", "    w -> " + ", ".join(f"b{i}*" for i in range(n))]
    stds = []
    for i in range(n):
        source.append(f"    a{i}(x)")
        target.append(f"    b{i}(x)")
        value = "u" if i == edited else "v"
        stds.append(f"std: r[a{i}(v)] -> w[b{i}({value})]")
    stds.append("std: r[p, q] -> w[b0(z)]")
    return "\n".join(source + target + stds) + "\n"


def test_deadline_bounded_delta_rechecks_only_the_edited_std(monkeypatch):
    import repro.analysis.passes as passes
    from repro.analysis import Severity
    from repro.obs import walk

    session = EngineSession()
    # the daemon's per-request deadline (ServiceServer.request_timeout)
    stream = {"name": "m", "timeout": 30}
    assert session.handle("delta", {**stream, "mapping": _ladder(6)})["ok"]
    checked = []
    std_hygiene = passes._std_hygiene

    def spy(std_index, *args):
        checked.append(std_index)
        return std_hygiene(std_index, *args)

    monkeypatch.setattr(passes, "_std_hygiene", spy)
    edited = _ladder(6, edited=2)
    response = session.handle(
        "delta", {**stream, "mapping": edited, "trace": True}
    )
    assert response["ok"] and response["incremental"]["changed_stds"] == [2]
    assert checked == [2]
    (span,) = (s for s in walk(response["trace"]) if s["name"] == "lint-hygiene")
    assert (span["attrs"]["reused"], span["attrs"]["checked"]) == (6, 1)
    # the reused diagnostics are those of a cold lint of the revision
    cold = lint_mapping(parse_mapping(edited), name="m")
    assert {"SM204", "SM206", "SM209"} <= {d.code for d in cold.diagnostics}
    assert response["lint"]["text"] == cold.render_text(min_severity=Severity.INFO)


def test_a_lint_cut_short_by_its_deadline_is_never_memoized():
    from repro.engine.budget import Budget
    from repro.incremental import ResultMemo

    mapping = parse_mapping(_ladder(1))
    memo = ResultMemo(16)
    context = ExecutionContext(
        Budget.default().with_(deadline_seconds=0.0),
        cache=CompilationCache(), memo=memo,
    )
    report = lint_mapping(mapping, context)
    # the dead std's satisfiability search ran out of time: SM204 stays
    # silent, and neither its hygiene nor the report is stored; the live
    # std, certified by a small witness before any charge, is stored
    live, dead = mapping.stds
    assert context.limits_fired > 0
    assert "SM204" not in {d.code for d in report.diagnostics}
    assert "hygiene" in live._memos and "hygiene" not in dead._memos
    assert memo.entries_by_kind() == {}
    # an unbounded run then finds the dead std, and memoizes both
    unbounded = ExecutionContext(cache=CompilationCache(), memo=memo)
    assert "SM204" in {d.code for d in lint_mapping(mapping, unbounded).diagnostics}
    assert unbounded.limits_fired == 0 and "hygiene" in dead._memos
    assert memo.entries_by_kind() == {"lint": 1}


def test_an_expansion_cap_keeps_hygiene_unmemoized():
    from repro.engine.budget import Budget

    mapping = parse_mapping(_ladder(1))
    capped = ExecutionContext(Budget.default().with_(max_expansions=10**6))
    report = lint_mapping(mapping, capped)
    assert capped.limits_fired == 0 and "SM204" in {
        d.code for d in report.diagnostics
    }
    # a cap is spent by the work before a check: even a completed check
    # under one is not stored
    assert all("hygiene" not in std._memos for std in mapping.stds)


def test_session_delta_rejects_bad_request():
    session = EngineSession()
    response = session.delta({"name": "m"})
    assert not response["ok"] and response["exit_code"] == 3


# ---------------------------------------------------------------------------
# the watcher
# ---------------------------------------------------------------------------


def test_filewatcher_detects_content_changes_only(tmp_path):
    path = tmp_path / "m.xsm"
    path.write_text(SIMPLE)
    watcher = FileWatcher([path])
    assert watcher.poll() == []
    # touch without content change: stamps move, digest does not
    import os

    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns + 10_000_000, stat.st_mtime_ns + 10_000_000))
    assert watcher.poll() == []
    path.write_text(SIMPLE + "\n# edited\n")
    assert watcher.poll() == [path]
    assert watcher.poll() == []  # drained


def test_filewatcher_tolerates_missing_files(tmp_path):
    path = tmp_path / "gone.xsm"
    watcher = FileWatcher([path])
    assert watcher.poll() == []
    path.write_text(SIMPLE)
    assert watcher.poll() == [path]


# ---------------------------------------------------------------------------
# the property: incremental == cold, both kernels
# ---------------------------------------------------------------------------


def _decisions(result) -> dict[str, object]:
    return {label: v.decision() for label, v in result.verdicts.items()}


def _mutate_one_std(rng: random.Random, mapping: SchemaMapping) -> SchemaMapping:
    """A revision of *mapping* with one std's target pattern regenerated."""
    stds = list(mapping.stds)
    index = rng.randrange(len(stds))
    new_target = abstract_pattern_from_tree(
        rng, random_tree_from_dtd(mapping.target_dtd, rng, max_nodes=5)
    )
    stds[index] = STD(stds[index].source, new_target)
    return SchemaMapping(mapping.source_dtd, mapping.target_dtd, stds)


@pytest.mark.parametrize("kernel", [PURE, BITSET])
@pytest.mark.parametrize("seed", range(4))
def test_incremental_verdicts_equal_cold_solve(kernel, seed):
    rng = random.Random(5000 + seed)
    mapping = random_structural_mapping(rng)
    engine = IncrementalEngine(cache=CompilationCache())
    with force_kernel(kernel):
        for __ in range(3):
            incremental = engine.update("m", mapping)
            cold = IncrementalEngine(cache=CompilationCache()).update("m", mapping)
            assert _decisions(incremental) == _decisions(cold), (
                f"incremental and cold verdicts diverged under {kernel}"
            )
            mapping = _mutate_one_std(rng, mapping)


@pytest.mark.parametrize("kernel", [PURE, BITSET])
def test_incremental_equals_cold_after_memo_eviction(kernel):
    rng = random.Random(5100)
    mapping = random_structural_mapping(rng)
    engine = IncrementalEngine(cache=CompilationCache(max_entries=3))
    history = [mapping]
    with force_kernel(kernel):
        for step in range(6):
            # every third step undoes to an older revision
            revision = history[-3] if step % 3 == 2 else mapping
            incremental = engine.update("m", revision)
            cold = IncrementalEngine(cache=CompilationCache()).update("m", revision)
            assert _decisions(incremental) == _decisions(cold), (
                f"incremental and cold verdicts diverged under {kernel}"
            )
            mapping = _mutate_one_std(rng, mapping)
            history.append(mapping)
    assert engine.memo.evictions > 0 and engine.cache.evictions > 0


# ---------------------------------------------------------------------------
# the property beyond std edits: DTD, arity, root and std-list edits
# ---------------------------------------------------------------------------

BASE = """\
source:
    r -> item*, note?
    item(sku, qty) -> part*
    part(pid)
    note(text)
target:
    w -> product*
    product(sku) -> piece*
    piece(pid)
std: r[item(s, q)] -> w[product(s)]
std: r[item(s, q)[part(p)]] -> w[product(s)[piece(p)]]
"""

#: (what the edit changes, revision text), applied in order
REVISIONS = [
    ("std", BASE.replace("w[product(s)[piece(p)]]", "w[product(s)]")),
    ("source production", BASE.replace("r -> item*, note?", "r -> item+, note")),
    ("target production", BASE.replace("w -> product*", "w -> product")),
    ("arity", BASE.replace("product(sku) -> piece*", "product(sku, qty) -> piece*")),
    ("root", BASE.replace("    w -> product*", "    v -> product*")),
    ("added std", BASE + "std: r[note(t)] -> w[product(t)]\n"),
    ("removed std", BASE.replace("std: r[item(s, q)] -> w[product(s)]\n", "")),
    ("base", BASE),
]


def _observed(result) -> tuple[dict, str]:
    return _decisions(result), result.lint.render_text()


@pytest.mark.parametrize("kernel", [PURE, BITSET])
def test_incremental_equals_cold_across_dtd_and_std_list_edits(kernel):
    engine = IncrementalEngine(cache=CompilationCache())
    with force_kernel(kernel):
        engine.update("m", BASE)
        for edit, text in REVISIONS:
            incremental = engine.update("m", text)
            cold = IncrementalEngine(cache=CompilationCache()).update("m", text)
            assert not incremental.cold and cold.cold
            assert _observed(incremental) == _observed(cold), (
                f"incremental and cold results diverged after a {edit} edit "
                f"under {kernel}"
            )


def test_unchanged_parts_are_reused_and_edited_parts_are_fresh():
    engine = IncrementalEngine(cache=CompilationCache())
    base = engine.update("m", BASE).mapping
    # std-only edit: both DTDs and the untouched std carry over
    edited = engine.update("m", REVISIONS[0][1]).mapping
    assert edited.source_dtd is base.source_dtd
    assert edited.target_dtd is base.target_dtd
    assert edited.stds[0] is base.stds[0]
    assert edited.stds[1] is not base.stds[1]
    # target DTD edit: a fresh target DTD, the rest carries over
    retargeted = engine.update(
        "m", edited_text := REVISIONS[0][1].replace(
            "product(sku) -> piece*", "product(sku) -> piece"
        )
    ).mapping
    assert retargeted.target_dtd is not edited.target_dtd
    assert retargeted.source_dtd is base.source_dtd
    assert retargeted.stds == edited.stds
    assert all(new is old for new, old in zip(retargeted.stds, edited.stds))
    # parsed parts are shared across streams: another stream's revision
    # takes them over from the table
    other = engine.update("other", edited_text).mapping
    assert other.source_dtd is retargeted.source_dtd
    # and across revisions until the table evicts them: reverting takes
    # the old section back instead of parsing it again
    reverted = engine.update("m", REVISIONS[0][1]).mapping
    assert reverted.target_dtd is edited.target_dtd
    assert reverted.source_dtd is base.source_dtd
