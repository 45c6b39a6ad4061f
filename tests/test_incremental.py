"""Incremental re-solving: dependency graph, delta invalidation, memos.

The load-bearing property is at the bottom: under random single-std
edits, the incremental engine's verdicts must be *identical* to a cold
solve of the same revision — under both automata kernels.  Everything
above it pins the machinery that makes the property cheap: cone
computation, two-tier eviction, memo registration and the file watcher.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import lint_mapping
from repro.engine import CompilationCache, DiskCacheTier, ExecutionContext
from repro.engine.cache import dtd_classification
from repro.engine.depgraph import (
    DependencyGraph,
    alphabet_digest,
    dtd_digests,
    production_digest,
)
from repro.incremental import (
    FileWatcher,
    IncrementalEngine,
    diff_fingerprints,
    fingerprint_mapping,
)
from repro.kernel import BITSET, PURE, force_kernel
from repro.mappings.io import parse_mapping
from repro.mappings.mapping import SchemaMapping
from repro.mappings.std import STD
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
# the graph
# ---------------------------------------------------------------------------


def test_depgraph_record_cone_discard():
    graph = DependencyGraph()
    graph.record(("a",), {"prod:1", "alpha:1"})
    graph.record(("b",), {"prod:2", "alpha:1"})
    assert graph.cone({"prod:1"}) == {("a",)}
    assert graph.cone({"alpha:1"}) == {("a",), ("b",)}
    assert graph.cone({"prod:zzz"}) == set()
    assert graph.dependencies(("a",)) == {"prod:1", "alpha:1"}
    graph.discard(("a",))
    assert graph.cone({"prod:1"}) == set()
    assert len(graph) == 1
    stats = graph.stats()
    assert stats == {"inputs": 2, "artifacts": 1, "edges": 2}


def test_depgraph_rerecord_updates_edges():
    graph = DependencyGraph()
    graph.record(("k",), {"prod:1"})
    graph.record(("k",), {"prod:2"})
    assert graph.cone({"prod:1"}) == set()
    assert graph.cone({"prod:2"}) == {("k",)}


def test_depgraph_pickles_inside_cache():
    import pickle

    cache = CompilationCache()
    mapping = parse_mapping(SIMPLE)
    dtd_classification(mapping.source_dtd, ExecutionContext(cache=cache))
    assert len(cache.depgraph) > 0
    clone = pickle.loads(pickle.dumps(cache))
    assert len(clone.depgraph) == len(cache.depgraph)


# ---------------------------------------------------------------------------
# two-tier eviction
# ---------------------------------------------------------------------------


def test_invalidate_evicts_memory_and_disk(tmp_path):
    cache = CompilationCache(disk=DiskCacheTier(tmp_path))
    mapping = parse_mapping(SIMPLE)
    dtd = mapping.source_dtd
    dtd_classification(dtd, ExecutionContext(cache=cache))
    assert len(cache) == 1
    on_disk = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert on_disk, "classification artifact must reach the disk tier"
    counts = cache.invalidate({production_digest(dtd, "item")})
    assert counts["artifacts"] == 1
    assert counts["memory"] == 1
    assert counts["disk"] == 1
    assert len(cache) == 0
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]
    # the graph forgot the key too: a second invalidation is a no-op
    assert cache.invalidate({production_digest(dtd, "item")})["artifacts"] == 0


def test_invalidation_leaves_siblings_warm():
    cache = CompilationCache()
    mapping = parse_mapping(SIMPLE)
    context = ExecutionContext(cache=cache)
    dtd_classification(mapping.source_dtd, context)
    dtd_classification(mapping.target_dtd, context)
    assert len(cache) == 2
    cache.invalidate({production_digest(mapping.source_dtd, "item")})
    assert len(cache) == 1  # the target-side classification survives


def test_disk_evict_is_corruption_safe(tmp_path):
    disk = DiskCacheTier(tmp_path)
    assert disk.evict(("never", "stored")) is False
    assert disk.put(("k",), {"v": 1})
    assert disk.evict(("k",)) is True
    assert disk.get(("k",)) is not {"v": 1}  # gone: sentinel comes back
    assert disk.stats()["disk_evictions"] == 1


def test_cache_evict_reports_tiers(tmp_path):
    cache = CompilationCache(disk=DiskCacheTier(tmp_path))
    value = cache.lookup(("kind", "x"), lambda: 41, deps={"prod:x"})
    assert value == 41
    dropped = cache.evict(("kind", "x"))
    assert dropped == {"memory": True, "disk": True}
    assert cache.evict(("kind", "x")) == {"memory": False, "disk": False}


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
    # dirty digests are std/pattern-level only; DTD inputs stay clean
    assert all(not d.startswith(("prod:", "alpha:")) for d in delta.dirty)


def test_fingerprint_diff_sees_dtd_edits():
    base = parse_mapping(SIMPLE)
    edited = parse_mapping(SIMPLE.replace("item(sku)", "item(sku, color)"))
    delta = diff_fingerprints(
        fingerprint_mapping(base), fingerprint_mapping(edited)
    )
    assert delta.source_dtd_changed and not delta.target_dtd_changed
    dirty_families = {d.split(":", 1)[0] for d in delta.dirty}
    assert "prod" in dirty_families


def test_cold_start_marks_everything_dirty():
    new = fingerprint_mapping(parse_mapping(SIMPLE))
    delta = diff_fingerprints(None, new)
    assert delta.cold and delta.dirty == new.inputs


def test_alphabet_digest_survives_regex_edit():
    base = parse_mapping(SIMPLE).source_dtd
    edited = parse_mapping(SIMPLE.replace("r -> item*", "r -> item+")).source_dtd
    assert alphabet_digest(base) == alphabet_digest(edited)
    assert dtd_digests(base) != dtd_digests(edited)


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


def test_single_std_edit_invalidates_only_its_cone():
    texts = {
        0: SIMPLE,
        1: SIMPLE.replace("w[product(s)]", "w[product(t)]"),
    }
    engine = IncrementalEngine(cache=CompilationCache())
    engine.update("m", texts[0])
    entries_before = len(engine.cache)
    delta = engine.update("m", texts[1])
    assert not delta.cold
    assert delta.delta.changed_stds == (0,)
    # DTD-derived artifacts survive: at most pattern-cone entries dropped
    assert len(engine.cache) >= entries_before - delta.invalidated["artifacts"]
    assert delta.invalidated["results"] > 0  # stale verdicts/lint dropped


def test_lint_memo_round_trip():
    engine = IncrementalEngine(cache=CompilationCache())
    mapping = parse_mapping(SIMPLE)
    context = ExecutionContext(cache=engine.cache)
    first = lint_mapping(mapping, context, name="m", memo=engine.lints)
    second = lint_mapping(mapping, context, name="m", memo=engine.lints)
    assert second is first  # served from the memo, not re-run
    assert len(engine.lints) == 1


def test_verdict_memo_never_stores_unknowns():
    from repro.engine.budget import Budget
    from repro.engine.problems import ConsistencyProblem
    from repro.engine.verdicts import Unknown

    engine = IncrementalEngine(cache=CompilationCache())
    problem = ConsistencyProblem(parse_mapping(SIMPLE))
    budget = Budget.default()
    engine.verdicts.store(problem, budget, Unknown("budget out"))
    assert engine.verdicts.lookup(problem, budget) is None


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
    assert stats["incremental"]["depgraph_artifacts"] > 0
    assert stats["cache_entries_by_kind"]  # per-kind live entry counts
    assert "delta" in EngineSession.HANDLERS


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
    # reuse is scoped to the stream: another stream parses afresh
    other = engine.update("other", edited_text).mapping
    assert other.source_dtd is not retargeted.source_dtd
    # and to the last revision: reverting parses the old section again
    reverted = engine.update("m", REVISIONS[0][1]).mapping
    assert reverted.target_dtd is not edited.target_dtd
    assert reverted.source_dtd is base.source_dtd
