"""Product emptiness as the Figure 1 cells run it.

* a conforming search runs over the DTD's own labels: patterns naming
  undeclared labels get the trigger sets of the reference search over
  every pattern label, and one mapping check compiles one DTD automaton
  per DTD;
* ``ProductAutomaton`` pairs exactly two automata;
* witnesses are built from back-pointers when read, iteratively, so a
  3000-deep witness builds without a ``RecursionError``;
* a pattern's hash is computed once, never pickled, and leaves its
  ``repr`` and every content digest unchanged.
"""

from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.automata.bitset import (
    BitsetClosureAutomaton,
    BitsetDTDAutomaton,
    decorate,
)
from repro.automata.duta import ProductAutomaton, reachable_states
from repro.engine import (
    AbsoluteConsistencyProblem,
    Budget,
    CompilationCache,
    ConsistencyProblem,
    ExecutionContext,
    certify,
    solve,
)
from repro.engine.cache import achievable_sets, pattern_digest
from repro.engine.diskcache import key_digest
from repro.mappings.io import parse_mapping, render_mapping
from repro.obs import collecting
from repro.patterns.ast import Descendant, Pattern, Sequence
from repro.patterns.matching import matches_at_root
from repro.patterns.parser import parse_pattern
from repro.patterns.satisfiability import structural_witness
from repro.verification.automata import run
from repro.verification.reachability import achievable_sets_reference
from repro.workloads import families
from repro.workloads.random_instances import (
    abstract_pattern_from_tree,
    random_arbitrary_dtd,
    random_tree_from_dtd,
)
from repro.xmlmodel.dtd import DTD

SRC = str(Path(repro.__file__).resolve().parents[1])


def _chain_dtd(n: int) -> DTD:
    productions = {f"l{i}": f"l{i + 1}" for i in range(n - 1)}
    productions[f"l{n - 1}"] = "eps"
    return DTD("l0", productions)


def _pattern_labels(patterns) -> frozenset[str]:
    return frozenset(label for p in patterns for label in p.labels_used())


# ---------------------------------------------------------------------------
# the DTD's own alphabet
# ---------------------------------------------------------------------------


def _with_undeclared(rng: random.Random, pattern: Pattern, index: int) -> Pattern:
    """*pattern* with an undeclared ``z{index}(w)`` child or descendant
    grafted at the root (edit-session's unsatisfiable target shape)."""
    grafted = parse_pattern(f"z{index}(w)")
    item = Descendant(grafted) if rng.random() < 0.5 else Sequence((grafted,))
    return Pattern(pattern.label, pattern.vars, pattern.items + (item,))


def _random_side(rng: random.Random, prefix: str):
    dtd = random_arbitrary_dtd(
        rng, n_labels=rng.randint(3, 5), max_arity=1, root="r", label_prefix=prefix
    )
    patterns = []
    for index in range(rng.randint(1, 3)):
        pattern = abstract_pattern_from_tree(
            rng, random_tree_from_dtd(dtd, rng, max_nodes=5)
        )
        if rng.random() < 0.5:
            pattern = _with_undeclared(rng, pattern, index)
        patterns.append(pattern)
    return dtd, patterns


@pytest.mark.parametrize("seed", range(12))
def test_tables_equal_reference_over_every_pattern_label(seed):
    """Undeclared pattern labels change no trigger set: production (over
    the DTD's labels) equals the reference searched over every pattern
    label, and the reference without them."""
    rng = random.Random(2400 + seed)
    for prefix in ("s", "t"):
        dtd, patterns = _random_side(rng, prefix)
        for with_arity in (True, False):
            if not with_arity:
                patterns = [pattern.strip_values() for pattern in patterns]
            context = ExecutionContext(cache=CompilationCache())
            production = achievable_sets(dtd, patterns, context=context)
            reference = achievable_sets_reference(
                dtd, patterns, _pattern_labels(patterns), with_arity
            )
            assert production.keys() == reference.keys(), (seed, patterns)
            assert production.keys() == achievable_sets_reference(
                dtd, patterns, frozenset(), with_arity
            ).keys()
            for triggered, witness in production.items():
                tree = decorate(dtd, witness)
                assert dtd.conforms(tree)
                matched = {
                    index for index, pattern in enumerate(patterns)
                    if matches_at_root(pattern, tree)
                }
                assert matched == triggered


def test_one_dtd_automaton_per_dtd_per_check():
    """CONS, ABSCONS and certify() of one mapping on one cache compile the
    source and the target DTD automaton once each, pattern-sat included."""
    mapping = families.cons_arbitrary_family(4, consistent=False)
    context = ExecutionContext(Budget.default(), cache=CompilationCache())
    verdicts = [
        solve(ConsistencyProblem(mapping), context),
        solve(AbsoluteConsistencyProblem(mapping), context),
    ]
    with context.activate():
        for verdict in verdicts:
            if not verdict.is_unknown:
                certify(verdict)
    by_kind = context.cache.stats_by_kind()
    assert by_kind["bitset-dtd-automaton"]["misses"] == 2


def test_one_trigger_set_table_per_dtd_per_check(monkeypatch):
    """CONS (Theorem 5.2), ABSCONS° (Proposition 6.1) and certify() of a
    value-free mapping on one cache read one achievable table per DTD,
    built by one conforming-product pass each."""
    import repro.engine.cache as cache_module

    passes = []
    reachable = cache_module.reachable_states

    def counted(product, conformance=None, **kwargs):
        passes.append(conformance.dtd)
        return reachable(product, conformance=conformance, **kwargs)

    monkeypatch.setattr(cache_module, "reachable_states", counted)
    mapping = families.cons_arbitrary_family(3, consistent=False)
    context = ExecutionContext(Budget.default(), cache=CompilationCache())
    verdicts = [
        solve(ConsistencyProblem(mapping), context),
        solve(AbsoluteConsistencyProblem(mapping), context),
    ]
    assert [verdict.report.algorithm for verdict in verdicts] == [
        "cons-automata", "abscons-sm0",
    ]
    with context.activate():
        for verdict in verdicts:
            certify(verdict)
    assert context.cache.stats_by_kind()["achievable"]["misses"] == 2
    assert sorted(map(id, passes)) == sorted(
        map(id, (mapping.source_dtd, mapping.target_dtd))
    )


def test_undeclared_target_label_is_unsatisfiable():
    """edit-session's broken variant: a target pattern naming a label the
    target DTD lacks has no conforming witness."""
    text = "\n".join([
        "source:", "    r -> a*", "    a(x)",
        "target:", "    r -> b*", "    b(x)",
        "std: r[a(v)] -> r[b(v), z0(w)]", "",
    ])
    mapping = parse_mapping(text)
    context = ExecutionContext(cache=CompilationCache())
    target = mapping.stds[0].target
    assert structural_witness(mapping.target_dtd, target, context) is None
    table = achievable_sets(mapping.target_dtd, [target], context=context)
    assert set(table) == {frozenset()}
    assert not solve(AbsoluteConsistencyProblem(mapping), context).is_proved


# ---------------------------------------------------------------------------
# pair products and witnesses built on demand
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("arity", [0, 1, 3])
def test_product_has_two_components(arity):
    dtd = DTD("r", {"r": "eps"})
    with pytest.raises(ValueError):
        ProductAutomaton([BitsetDTDAutomaton(dtd) for __ in range(arity)])


def test_chain_witness_height_without_recursion():
    n = 3000
    dtd = _chain_dtd(n)
    pattern = parse_pattern(f"l0[//l{n - 1}]")
    context = ExecutionContext(cache=CompilationCache())
    table = achievable_sets(dtd, [pattern], context=context)
    assert set(table) == {frozenset({0})}
    assert table[frozenset({0})].height == n
    witness = structural_witness(dtd, pattern, context)
    assert witness is not None and witness.height == n
    assert dtd.conforms(witness)


def _conforming_search(dtd: DTD):
    """The conforming search of *dtd* paired with a closure automaton of
    no patterns (one state, accepts every tree): its product and result."""
    conformance = BitsetDTDAutomaton(dtd)
    automaton = ProductAutomaton(
        [conformance, BitsetClosureAutomaton([], dtd.labels)]
    )
    return automaton, reachable_states(automaton, conformance=conformance)


def test_witnesses_are_built_only_when_read():
    dtd = DTD("r", {"r": "a*, b?", "a": "c?", "b": "eps", "c": "eps"})
    automaton, realized = _conforming_search(dtd)
    assert realized._built == {}
    accepted = [state for state in realized if automaton.is_accepting(state)]
    witness = realized[accepted[0]]
    assert run(automaton, witness) == accepted[0]
    # the subtrees of that one witness were built, nothing else
    assert len(realized._built) < len(realized)
    assert realized[accepted[0]] is witness
    for state, tree in realized.items():
        assert run(automaton, tree) == state


def test_search_annotates_span_with_state_counts():
    dtd = DTD("r", {"r": "a*, b?", "a": "c?", "b": "eps", "c": "eps"})
    with collecting("probe") as trace_tree:
        __, realized = _conforming_search(dtd)
    attrs = trace_tree.to_dict()["attrs"]
    assert attrs["realized"] == len(realized)
    assert attrs["horizontal"] == sum(
        len(label_paths) for label_paths in realized._paths.values()
    )
    assert attrs["horizontal"] >= len(dtd.labels)


# ---------------------------------------------------------------------------
# hashing patterns once
# ---------------------------------------------------------------------------

PATTERN_TEXT = "r[a(x) -> b(y, x), //c[_(z)]]"


def test_hash_cache_leaves_repr_and_digests_unchanged():
    pattern = parse_pattern(PATTERN_TEXT)
    hash(pattern)  # fills the kept hash
    assert repr(pattern) == (
        "Pattern(label='r', vars=None, items=(Sequence(elements=("
        "Pattern(label='a', vars=(Var(name='x'),), items=()), "
        "Pattern(label='b', vars=(Var(name='y'), Var(name='x')), items=())), "
        "connectors=('next',)), Descendant(pattern=Pattern(label='c', "
        "vars=None, items=(Sequence(elements=(Pattern(label='_', "
        "vars=(Var(name='z'),), items=()),), connectors=()),)))))"
    )
    assert pattern_digest(pattern) == "pat:dc373c15ab245592"
    key = ("bitset-closure", "DTD<r -> a*>", (pattern,), True)
    assert key_digest(key, 3) == (
        "9f57f47029c4de68860b1159dd3adde303a348a6689eb10ffd03916fb44c5ace"
    )
    assert key_digest(key, 4) == (
        "63dbc22ff667b7eb55dc942e90024fceda1119c608a2b47606cc9bde90646bf5"
    )
    fresh = parse_pattern(PATTERN_TEXT)
    assert fresh == pattern and hash(fresh) == hash(pattern)
    assert repr(fresh) == repr(pattern)


def test_pickle_drops_the_kept_hash():
    pattern = parse_pattern(PATTERN_TEXT)
    hash(pattern)
    loaded = pickle.loads(pickle.dumps(pattern))
    assert loaded == pattern
    assert loaded._hash is None
    assert hash(loaded) == hash(pattern)


_WRITER = textwrap.dedent("""
    import pickle, sys
    from repro.engine import CompilationCache, DiskCacheTier, ExecutionContext
    from repro.engine.cache import achievable_sets, closure_automaton
    from repro.mappings.io import parse_mapping, render_mapping
    mapping = parse_mapping(open(sys.argv[1]).read())
    patterns = [std.source for std in mapping.stds]
    context = ExecutionContext(
        cache=CompilationCache(disk=DiskCacheTier(sys.argv[2]))
    )
    closure = closure_automaton(patterns, mapping.source_dtd, context=context)
    achievable_sets(mapping.source_dtd, patterns, context=context)
    with open(sys.argv[3], "wb") as handle:
        pickle.dump(closure, handle)
""")

_READER = textwrap.dedent("""
    import pickle, sys
    from repro.engine import CompilationCache, DiskCacheTier, ExecutionContext
    from repro.verification.automata import run
    from repro.engine.cache import achievable_sets, closure_automaton
    from repro.mappings.io import parse_mapping, render_mapping
    from repro.workloads.random_instances import random_tree_from_dtd
    import random
    mapping = parse_mapping(open(sys.argv[1]).read())
    dtd = mapping.source_dtd
    patterns = [std.source for std in mapping.stds]
    with open(sys.argv[3], "rb") as handle:
        loaded = pickle.load(handle)
    fresh = closure_automaton(
        patterns, dtd, context=ExecutionContext(cache=CompilationCache())
    )
    rng = random.Random(7)
    checked = 0
    for __ in range(40):
        tree = random_tree_from_dtd(dtd, rng, max_nodes=8)
        old, new = run(loaded, tree), run(fresh, tree)
        for pattern in patterns:
            assert loaded.satisfies(old, pattern) == fresh.satisfies(new, pattern)
            checked += loaded.satisfies(old, pattern)
    disk = CompilationCache(disk=DiskCacheTier(sys.argv[2]))
    stored = achievable_sets(dtd, patterns, context=ExecutionContext(cache=disk))
    rebuilt = achievable_sets(
        dtd, patterns, context=ExecutionContext(cache=CompilationCache())
    )
    assert disk.stats()["disk_hits"] >= 1 and disk.stats()["misses"] == 0
    assert stored.keys() == rebuilt.keys()
    print("ok", checked)
""")


def test_pickled_artifacts_agree_across_hash_seeds(tmp_path):
    """An automaton pickled under one hash seed answers for freshly parsed
    patterns under another, and a disk-tier table loads intact."""
    mapping = families.cons_arbitrary_family(3, consistent=True)
    mapping_file = tmp_path / "m.xsm"
    mapping_file.write_text(render_mapping(mapping))
    args = [str(mapping_file), str(tmp_path / "cache"), str(tmp_path / "closure.pkl")]
    for seed, script in (("1", _WRITER), ("2", _READER)):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed)
        env.pop("REPRO_CACHE_DIR", None)
        result = subprocess.run(
            [sys.executable, "-c", script, *args],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
    checked = int(result.stdout.split()[1])
    assert checked > 0  # some tree satisfied some pattern
