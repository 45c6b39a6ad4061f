"""``solve_many`` and the persistent compilation cache.

Covers the batch front door's contract: parallel verdicts identical to
serial across the Figure 1 routing matrix, worker crashes and hangs
contained as ``Unknown`` verdicts, every problem type picklable, and the
disk tier surviving corruption by rebuilding.
"""

import pickle

import pytest

from repro.engine import (
    CACHE_FORMAT_VERSION,
    AbsoluteConsistencyProblem,
    CompilationCache,
    CompositionConsistencyProblem,
    CompositionMembershipProblem,
    ConsistencyProblem,
    DiskCacheTier,
    ExecutionContext,
    MembershipProblem,
    Problem,
    SatisfiabilityProblem,
    SeparationProblem,
    WORKER_CRASH,
    WORKER_TIMEOUT,
    solve,
    solve_many,
)
from repro.engine.cache import CACHE_DIR_ENV, CACHE_SIZE_ENV, cache_from_env
from repro.engine.diskcache import MISS, key_digest
from repro.mappings.mapping import SchemaMapping
from repro.patterns.parser import parse_pattern
from repro.workloads.families import (
    cons_arbitrary_family,
    cons_nested_family,
    cons_next_sibling_family,
)
from repro.xmlmodel.dtd import parse_dtd
from repro.xmlmodel.parser import parse_tree

from tests._engine_helpers import CrashProblem, EasyProblem, HangProblem


def mk(source, target, stds):
    return SchemaMapping.parse(source, target, stds)


def routing_matrix() -> list:
    """One problem per routing cell of Figures 1–2, smallest instances."""
    copy = mk("r -> a*\na(x)", "t -> b*\nb(u)", ["r[a(x)] -> t[b(x)]"])
    chain = [
        mk("r -> a*\na(x)", "m -> b*\nb(u)", ["r[a(x)] -> m[b(x)]"]),
        mk("m -> b*\nb(u)", "t -> c*\nc(v)", ["m[b(u)] -> t[c(u)]"]),
    ]
    return [
        ConsistencyProblem(cons_arbitrary_family(2)),            # EXPTIME cell
        ConsistencyProblem(cons_arbitrary_family(2, consistent=False)),
        ConsistencyProblem(cons_nested_family(3)),               # PTIME cell
        ConsistencyProblem(cons_next_sibling_family(2)),         # horizontal
        ConsistencyProblem(
            cons_next_sibling_family(2, consistent=False)
        ),
        AbsoluteConsistencyProblem(copy),
        AbsoluteConsistencyProblem(
            mk("r -> a*\na(x)", "t -> b\nb(u)", ["r[a(x)] -> t[b(x)]"])
        ),                                                        # rigidity FAIL
        MembershipProblem(copy, parse_tree("r[a(1)]"), parse_tree("t[b(1)]")),
        MembershipProblem(copy, parse_tree("r[a(1)]"), parse_tree("t")),
        CompositionConsistencyProblem(chain),
        CompositionMembershipProblem(
            chain[0], chain[1], parse_tree("r[a(1)]"), parse_tree("t[c(1)]")
        ),
        SatisfiabilityProblem(parse_dtd("r -> a*"), parse_pattern("r/a")),
        SatisfiabilityProblem(parse_dtd("r -> a*"), parse_pattern("r/z")),
        SeparationProblem(
            parse_dtd("r -> a*"),
            (parse_pattern("r/a"),),
            (parse_pattern("r/a(1)"),),
        ),
    ]


# ---------------------------------------------------------------------------
# parallel == serial
# ---------------------------------------------------------------------------


class TestParallelEquivalence:
    def test_matches_serial_across_routing_matrix(self):
        problems = routing_matrix()
        serial = solve_many(problems, jobs=1, context=ExecutionContext())
        parallel = solve_many(
            problems, jobs=2, chunk_size=1, context=ExecutionContext()
        )
        assert serial.decisions() == parallel.decisions()
        assert None not in serial.decisions()  # the matrix is decidable

    def test_result_order_is_problem_order(self):
        problems = [EasyProblem(i) for i in range(9)]
        batch = solve_many(problems, jobs=2, chunk_size=2)
        # the certificate records each EasyProblem's value, so order shows
        assert [v.certificate.detail for v in batch] == [str(i) for i in range(9)]

    def test_batch_result_is_a_sequence(self):
        batch = solve_many([EasyProblem(1), EasyProblem(2)], jobs=1)
        assert len(batch) == 2
        assert list(batch) == batch.verdicts
        assert batch[-1] is batch.verdicts[-1]
        assert batch.report.outcomes["proved"] == 2
        assert "2 proved" in repr(batch)

    def test_report_aggregates_cache_stats(self):
        problems = [ConsistencyProblem(cons_nested_family(3))] * 4
        batch = solve_many(
            problems, jobs=1, context=ExecutionContext(cache=CompilationCache())
        )
        assert batch.report.cache["misses"] > 0
        assert batch.report.cache["hits"] > 0
        assert any("cache" in line for line in batch.report.lines())


# ---------------------------------------------------------------------------
# failure containment
# ---------------------------------------------------------------------------


class TestFailureContainment:
    def test_worker_crash_yields_unknown_not_exception(self):
        problems = [EasyProblem(1), CrashProblem(), EasyProblem(2)]
        batch = solve_many(problems, jobs=2, chunk_size=1)
        assert batch[0].is_proved
        assert batch[2].is_proved
        assert batch[1].is_unknown
        assert batch[1].reason.startswith(WORKER_CRASH)
        assert batch.report.crashes == 1

    def test_hung_worker_yields_unknown_not_exception(self):
        problems = [EasyProblem(1), HangProblem(seconds=60.0), EasyProblem(2)]
        batch = solve_many(problems, jobs=2, chunk_size=1, task_timeout=0.2)
        assert batch[0].is_proved
        assert batch[2].is_proved
        assert batch[1].is_unknown
        assert batch[1].reason.startswith(WORKER_TIMEOUT)
        assert batch.report.timeouts == 1
        # the synthesized verdict still names its problem
        assert isinstance(batch[1].problem, HangProblem)


# ---------------------------------------------------------------------------
# pickling: problems must survive the trip to a worker
# ---------------------------------------------------------------------------


class TestPickleRoundTrip:
    def test_matrix_covers_every_problem_type(self):
        assert {type(p) for p in routing_matrix()} == set(Problem)

    @pytest.mark.parametrize(
        "problem", routing_matrix(), ids=lambda p: type(p).__name__
    )
    def test_round_trip_preserves_the_verdict(self, problem):
        clone = pickle.loads(pickle.dumps(problem))
        assert type(clone) is type(problem)
        context = ExecutionContext()
        assert solve(clone, context).decision() == solve(problem, context).decision()

    def test_tree_sheds_memoized_engine_state(self):
        tree = parse_tree("r[a(1), a(2)]")
        hash(tree)  # warm the memoized hash
        tree._engine = lambda: None  # unpicklable on purpose
        clone = pickle.loads(pickle.dumps(tree))
        assert clone == tree
        assert clone._engine is None
        assert hash(clone) == hash(tree)

    def test_dtd_sheds_compiled_nfas(self):
        dtd = parse_dtd("r -> a*\na(x)")
        dtd.check_conformance(parse_tree("r[a(1)]"))  # warm the NFA memo
        assert dtd._nfas
        clone = pickle.loads(pickle.dumps(dtd))
        assert clone._nfas == {}
        clone.check_conformance(parse_tree("r[a(1)]"))  # and they rebuild

    def test_dtd_sheds_class_facts_and_embedder(self):
        from repro.consistency.cons_nested import embedder_for
        from repro.engine.cache import dtd_digest
        from repro.xmlmodel.dtd import DTD

        dtd = parse_dtd("r -> a*, b?\na(x) -> c\nb(y)\nc(z)")
        facts = (
            dtd.is_recursive(),
            dtd.is_nested_relational(),
            dtd.is_strictly_nested_relational(),
            dtd.nested_relational_children("r"),
            dtd.multiplicities(),
            dtd.minimal_tree(),
            dtd_digest(dtd),
        )
        embedder = embedder_for(dtd)
        assert embedder.embeddable(parse_pattern("r[a(x)[c(z)]]"), "r")
        assert embedder_for(dtd) is embedder  # one embedder per instance
        assert set(DTD._MEMOS) <= set(vars(dtd))
        clone = pickle.loads(pickle.dumps(dtd))
        assert not set(DTD._MEMOS) & set(vars(clone))
        assert (
            clone.is_recursive(),
            clone.is_nested_relational(),
            clone.is_strictly_nested_relational(),
            clone.nested_relational_children("r"),
            clone.multiplicities(),
            clone.minimal_tree(),
            dtd_digest(clone),
        ) == facts
        assert embedder_for(clone) is not embedder
        assert embedder_for(clone).embeddable(parse_pattern("r[b(y)]"), "r")

    def test_mapping_and_std_shed_their_memos(self):
        from repro.analysis import lint_mapping
        from repro.engine.cache import mapping_digest, std_digests

        mapping = SchemaMapping.parse(
            "r -> a*\na(x)", "t -> b*\nb(x)", ["r[a(x)] -> t[b(x)]"]
        )
        digest, digests = mapping_digest(mapping), std_digests(mapping)
        report = lint_mapping(mapping)
        (std,) = mapping.stds
        assert std._memos and any(k.startswith("_") for k in vars(mapping))
        clone = pickle.loads(pickle.dumps(mapping))
        assert not any(name.startswith("_") for name in vars(clone))
        assert clone.stds[0]._memos == {}
        assert clone.stds == mapping.stds
        assert (mapping_digest(clone), std_digests(clone)) == (digest, digests)
        assert lint_mapping(clone).diagnostics == report.diagnostics


# ---------------------------------------------------------------------------
# the disk tier
# ---------------------------------------------------------------------------


class TestDiskCache:
    def test_round_trip_and_counters(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        key = ("classification", "some-dtd-repr")
        assert tier.get(key) is MISS
        tier.put(key, {"answer": 42})
        assert tier.get(key) == {"answer": 42}
        stats = tier.stats()
        assert stats["disk_hits"] == 1
        assert stats["disk_misses"] == 1
        assert stats["disk_stores"] == 1

    def test_corrupt_entry_is_a_silent_miss(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        key = ("bitset-closure", "dtd", "label")
        tier.put(key, [1, 2, 3])
        path = tier.path_for(key)
        assert path.name == f"{key_digest(key, CACHE_FORMAT_VERSION)}.pkl"
        path.write_bytes(b"\x80garbage that is not a pickle")
        assert tier.get(key) is MISS
        assert tier.stats()["disk_corrupt"] == 1
        assert not path.exists()  # evicted, so the rebuild can replace it
        tier.put(key, [1, 2, 3])
        assert tier.get(key) == [1, 2, 3]

    def test_truncated_entry_is_a_silent_miss(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        tier.put("k", "value")
        path = next(p for p in tmp_path.iterdir())
        path.write_bytes(path.read_bytes()[:3])
        assert tier.get("k") is MISS
        assert tier.stats()["disk_corrupt"] == 1

    def test_version_skew_is_a_miss(self, tmp_path):
        DiskCacheTier(tmp_path, version=1).put("k", "old")
        assert DiskCacheTier(tmp_path, version=2).get("k") is MISS

    def test_compilation_cache_reads_through_to_disk(self, tmp_path):
        problems = [ConsistencyProblem(cons_arbitrary_family(2))]
        cold = solve_many(
            problems, jobs=1, context=ExecutionContext(), cache_dir=tmp_path
        )
        warm = solve_many(
            problems, jobs=1, context=ExecutionContext(), cache_dir=tmp_path
        )
        assert cold.decisions() == warm.decisions()
        assert cold.report.cache["misses"] > 0
        assert warm.report.cache["misses"] == 0  # every artifact from disk
        assert warm.report.cache["disk_hits"] > 0

    def test_corrupting_the_whole_directory_only_costs_time(self, tmp_path):
        problems = [ConsistencyProblem(cons_nested_family(2))]
        solve_many(problems, jobs=1, context=ExecutionContext(), cache_dir=tmp_path)
        for path in tmp_path.iterdir():
            path.write_bytes(b"not a pickle")
        again = solve_many(
            problems, jobs=1, context=ExecutionContext(), cache_dir=tmp_path
        )
        assert again.decisions() == [True]
        assert again.report.cache["disk_corrupt"] > 0
        assert again.report.cache["misses"] > 0  # rebuilt from scratch


# ---------------------------------------------------------------------------
# environment configuration
# ---------------------------------------------------------------------------


class TestEnvironmentConfiguration:
    def test_cache_size_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(CACHE_SIZE_ENV, "7")
        assert CompilationCache().max_entries == 7

    @pytest.mark.parametrize("raw", ["banana", "0", "-3"])
    def test_malformed_cache_size_falls_back(self, monkeypatch, raw):
        monkeypatch.setenv(CACHE_SIZE_ENV, raw)
        assert CompilationCache().max_entries == 256

    def test_cache_dir_env_attaches_a_disk_tier(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        cache = cache_from_env()
        assert cache.disk is not None
        assert "disk_hits" in cache.stats()
        monkeypatch.delenv(CACHE_DIR_ENV)
        assert cache_from_env().disk is None

    def test_explicit_size_beats_env(self, monkeypatch):
        monkeypatch.setenv(CACHE_SIZE_ENV, "7")
        assert CompilationCache(max_entries=3).max_entries == 3


# ---------------------------------------------------------------------------
# CLI batch flags
# ---------------------------------------------------------------------------


GOOD_MAPPING = """
source:
    f -> item*
    item(sku)
target:
    w -> product*
    product(sku)
std: f[item(s)] -> w[product(s)]
"""

BROKEN_MAPPING = """
source:
    f -> item+
    item(sku)
target:
    w -> deep
    deep -> product*
    product(sku)
std: f[item(s)] -> w[product(s)]
"""


class TestCliBatch:
    def test_multi_file_check_aggregates_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        good = tmp_path / "good.xsm"
        good.write_text(GOOD_MAPPING)
        broken = tmp_path / "broken.xsm"
        broken.write_text(BROKEN_MAPPING)
        code = main([
            "check", str(good), str(broken),
            "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
        ])
        out = capsys.readouterr().out
        assert code == 1  # max over {0 good, 1 broken}
        assert f"== {good}" in out
        assert f"== {broken}" in out
        assert (tmp_path / "cache").is_dir()

    def test_single_file_check_output_is_unchanged(self, tmp_path, capsys):
        from repro.cli import main

        good = tmp_path / "good.xsm"
        good.write_text(GOOD_MAPPING)
        assert main(["check", str(good)]) == 0
        out = capsys.readouterr().out
        assert "==" not in out  # no batch headers in single-file mode
        assert "consistent: True" in out

    def test_cache_size_flag_reaches_the_cache(self, tmp_path):
        from repro.cli import _batch_context, build_parser

        good = tmp_path / "good.xsm"
        good.write_text(GOOD_MAPPING)
        args = build_parser().parse_args(
            ["check", str(good), "--cache-size", "11"]
        )
        assert _batch_context(args).cache.max_entries == 11
