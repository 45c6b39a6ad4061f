"""Differential tests: the fast kernels against their references.

The pure-Python paths are the semantic reference (DESIGN.md §7).  The
pattern engine is selected by document size alone, so the engine tests
pin each side with ``force_kernel``; the automata have one production
encoding (bitset), held to the plain automata it re-encodes:

* ``engine.solve`` verdicts over every example mapping and the workload
  families must be *identical* under ``force_kernel("pure")`` and
  ``force_kernel("bitset")``, and every decided verdict must certify;
* consistency verdicts over random structural mappings must agree, and
  both witnesses must certify;
* satisfiability decisions and structural witnesses must agree;
* the production trigger-set tables must have exactly the trigger sets
  of ``achievable_sets_reference`` over the plain automata, on the
  Figure 1 families and random structural mappings;
* the object engine, the compact (array-backed) engine and the naive
  oracle matcher must produce the same relations on random documents
  on both sides of the pattern-engine cutover;
* the worklist ``reachable_states`` must realize the same states as the
  round-based ``reachable_states_naive`` it replaced, and its label
  index (``conformance=``) must realize exactly what plain conformance
  pruning does, on random DTD x closure products in both encodings.
"""

import json
import random
from pathlib import Path

import pytest

from repro.consistency import is_consistent_automata
from repro.engine import Budget, CompilationCache, ExecutionContext, certify, solve
from repro.engine.problems import (
    AbsoluteConsistencyProblem,
    CompositionMembershipProblem,
    ConsistencyProblem,
    MembershipProblem,
)
from repro.errors import SignatureError
from repro.kernel import AUTO_THRESHOLDS, BITSET, PURE, force_kernel, select_kernel
from repro.mappings.io import parse_mapping
from repro.mappings.mapping import SchemaMapping
from repro.mappings.membership import is_solution
from repro.mappings.std import STD
from repro.patterns.compact import CompactPatternEngine
from repro.patterns.matching import PatternEngine, engine_for
from repro.patterns.parser import parse_pattern
from repro.patterns.satisfiability import is_satisfiable, structural_witness
from repro.verification.oracle import NaiveMatcher
from repro.workloads import families
from repro.workloads.random_instances import (
    abstract_pattern_from_tree,
    random_arbitrary_dtd,
    random_production,
    random_tree_from_dtd,
)
from repro.xmlmodel.dtd import DTD
from repro.xmlmodel.tree import TreeNode

REPO_ROOT = Path(__file__).resolve().parent.parent


#: The Figure 1 families, each with the problem it poses and its sizes.
F1_CELLS = [
    (ConsistencyProblem, families.cons_arbitrary_family, (1, 2, 3)),
    (ConsistencyProblem, families.cons_nested_family, (1, 3, 6)),
    (ConsistencyProblem, families.cons_next_sibling_family, (2, 3)),
    (ConsistencyProblem, families.distinct_values_family, (2, 3)),
    (ConsistencyProblem, families.equality_case_split_family, (1, 2)),
    (AbsoluteConsistencyProblem, families.abscons_sm0_family, (1, 3)),
    (AbsoluteConsistencyProblem, families.abscons_ptime_family, (1, 3)),
    (AbsoluteConsistencyProblem, families.abscons_wildcard_family, (3,)),
]


def _differential_problems() -> list:
    """Every example mapping, and the family sizes the other tests use."""
    params = []
    for path in sorted((REPO_ROOT / "examples" / "mappings").glob("*.xsm")):
        mapping = parse_mapping(path.read_text())
        for kind in (ConsistencyProblem, AbsoluteConsistencyProblem):
            params.append(pytest.param(kind(mapping), id=f"{path.stem}-{kind.__name__}"))
    for kind, family, sizes in F1_CELLS:
        for n in sizes:
            for consistent in (True, False):
                params.append(pytest.param(
                    kind(family(n, consistent=consistent)),
                    id=f"{family.__name__}-{n}-{consistent}",
                ))
    mapping = families.membership_mapping(2)
    source = families.flat_document(4, n_values=2)
    for items in (4, 0):
        target = families.target_document(items, n_values=2)
        params.append(pytest.param(
            MembershipProblem(mapping, source, target), id=f"membership-{items}"
        ))
    for n in (1, 2):
        params.append(pytest.param(
            CompositionMembershipProblem(*families.composition_choice_family(n)),
            id=f"composition_choice_family-{n}",
        ))
    return params


#: The bounded abscons search over the undecidable example grows
#: steeply with the tree bound; 3 keeps the pair of runs under a second.
_SMALL_BUDGET = Budget(max_source_size=3, max_target_size=3)


@pytest.mark.parametrize("problem", _differential_problems())
def test_solve_verdicts_agree_across_kernels(problem):
    budget = _SMALL_BUDGET if isinstance(problem, AbsoluteConsistencyProblem) else None
    verdicts = {}
    for kernel in (PURE, BITSET):
        context = ExecutionContext(budget=budget, cache=CompilationCache())
        with force_kernel(kernel):
            verdicts[kernel] = solve(problem, context)
    assert verdicts[PURE].decision() == verdicts[BITSET].decision()
    for kernel, verdict in verdicts.items():
        if not verdict.is_unknown:
            with force_kernel(PURE):  # re-check on the oracle path
                assert certify(verdict), f"{kernel} verdict fails certification"


def random_structural_mapping(rng: random.Random) -> SchemaMapping:
    source_dtd = random_arbitrary_dtd(
        rng, n_labels=4, max_arity=1, root="r", label_prefix="s"
    )
    target_dtd = random_arbitrary_dtd(
        rng, n_labels=4, max_arity=1, root="t", label_prefix="t"
    )
    stds = []
    for __ in range(rng.randint(1, 2)):
        source_pattern = abstract_pattern_from_tree(
            rng, random_tree_from_dtd(source_dtd, rng, max_nodes=5)
        )
        if rng.random() < 0.8:
            target_pattern = abstract_pattern_from_tree(
                rng, random_tree_from_dtd(target_dtd, rng, max_nodes=5)
            )
        else:
            target_pattern = parse_pattern("t[zzz_nowhere]")
        stds.append(STD(source_pattern, target_pattern))
    return SchemaMapping(source_dtd, target_dtd, stds)


@pytest.mark.parametrize("seed", range(20))
def test_consistency_verdicts_agree_across_kernels(seed):
    rng = random.Random(1000 + seed)
    mapping = random_structural_mapping(rng)
    results = {}
    for kernel in (PURE, BITSET):
        context = ExecutionContext(cache=CompilationCache())
        try:
            with force_kernel(kernel):
                results[kernel] = is_consistent_automata(mapping, context)
        except SignatureError:
            return  # out of the structural fragment; both sides refuse alike
    assert results[PURE].is_proved == results[BITSET].is_proved
    # both witnesses (when present) must pass the pure-path re-check:
    # the pair really is a solution of the mapping
    for kernel, verdict in results.items():
        if verdict.is_proved:
            source, target = verdict.certificate.source, verdict.certificate.target
            with force_kernel(PURE):
                assert is_solution(mapping, source, target), (
                    f"{kernel} witness rejected: {source!r} -> {target!r}"
                )


@pytest.mark.parametrize("seed", range(20))
def test_satisfiability_agrees_across_kernels(seed):
    rng = random.Random(2000 + seed)
    dtd = random_arbitrary_dtd(rng)
    pattern = abstract_pattern_from_tree(
        rng, random_tree_from_dtd(dtd, rng, max_nodes=6)
    )
    answers = {}
    witnesses = {}
    for kernel in (PURE, BITSET):
        with force_kernel(kernel):
            answers[kernel] = is_satisfiable(
                dtd, pattern, context=ExecutionContext(cache=CompilationCache())
            )
            witnesses[kernel] = structural_witness(
                dtd, pattern, context=ExecutionContext(cache=CompilationCache())
            )
    # the pattern matches its own source tree, so both must prove it
    assert answers[PURE].is_proved and answers[BITSET].is_proved
    from repro.automata.dtd_automaton import decorate

    for kernel, witness in witnesses.items():
        assert witness is not None, f"{kernel} found no witness"
        assert dtd.conforms(decorate(dtd, witness)), (
            f"{kernel} witness does not conform"
        )


def random_document(rng: random.Random) -> TreeNode:
    labels = ["a", "b", "c", "d"]

    def build(depth: int) -> TreeNode:
        label = rng.choice(labels)
        attrs = tuple(str(rng.randint(0, 3)) for __ in range(rng.randint(0, 2)))
        children = ()
        if depth > 0:
            children = tuple(
                build(depth - 1) for __ in range(rng.randint(0, 3))
            )
        return TreeNode(label, attrs, children)

    return TreeNode(
        "r", (), tuple(build(3) for __ in range(rng.randint(1, 4)))
    )


def random_sized_document(rng: random.Random, n_nodes: int) -> TreeNode:
    """A random ``r``-rooted document of exactly *n_nodes* nodes."""
    children: list[list[int]] = [[] for __ in range(n_nodes)]
    for node in range(1, n_nodes):
        children[rng.randrange(node)].append(node)
    built: list = [None] * n_nodes
    for node in range(n_nodes - 1, -1, -1):  # children before parents
        label = "r" if node == 0 else rng.choice("abcd")
        attrs = tuple(str(rng.randint(0, 3)) for __ in range(rng.randint(0, 2)))
        built[node] = TreeNode(label, attrs, tuple(built[c] for c in children[node]))
    return built[0]


#: Patterns exercising every axis, joins, constants and wildcards.
ENGINE_PATTERNS = [
    "r//a",
    "r[a -> b]",
    "r//a(x)[b(x)]",
    "r//_(x,y)",
    "r[a ->* c]//b(x)",
    "r//a[b(x) -> c(x)]",
    "r//a[//b(x,y)]",
    'r//a("1",x)',
]


def engine_patterns(rng: random.Random, root: TreeNode) -> list:
    return [parse_pattern(s) for s in ENGINE_PATTERNS] + [
        abstract_pattern_from_tree(rng, root) for __ in range(3)
    ]


#: One sized document per seed, on both sides of the engine cutover.
SIZED_DOCUMENTS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 24, 33, 48, 64]


@pytest.mark.parametrize("seed", range(len(SIZED_DOCUMENTS)))
def test_compact_engine_matches_object_engine(seed):
    """The object engine, the compact engine and the naive oracle agree."""
    rng = random.Random(3000 + seed)
    for root in (random_document(rng), random_sized_document(rng, SIZED_DOCUMENTS[seed])):
        engines = (PatternEngine(root), CompactPatternEngine(root))
        for pattern in engine_patterns(rng, root):
            naive = NaiveMatcher()
            at_root = frozenset(naive.match_at(root, pattern))
            anywhere = frozenset(naive.match_at_or_below(root, pattern))
            for engine in engines:
                name = type(engine).__name__
                assert engine.relation_at_root(pattern) == at_root, (name, pattern)
                assert engine.match_anywhere(pattern) == anywhere, (name, pattern)
                assert engine.exists_at_root(pattern) == bool(at_root)
                assert engine.exists_anywhere(pattern) == bool(anywhere)
                found = {frozenset(m.items()) for m in engine.find_matches(pattern)}
                assert found == at_root, (name, pattern)


@pytest.mark.parametrize("seed", range(10))
def test_worklist_reachability_matches_naive(seed):
    from repro.automata.dtd_automaton import DTDAutomaton
    from repro.automata.duta import reachable_states, run
    from repro.verification.reachability import reachable_states_naive

    rng = random.Random(4000 + seed)
    automaton = DTDAutomaton(random_arbitrary_dtd(rng, n_labels=5))
    fast = reachable_states(automaton)
    slow = reachable_states_naive(automaton)
    assert fast.keys() == slow.keys()
    for state, witness in fast.items():
        assert run(automaton, witness) == state


def random_recursive_dtd(rng: random.Random) -> DTD:
    """A small random DTD whose productions may recurse (or not terminate)."""
    labels = ["a", "b", "c", "d"]
    productions = {"r": random_production(rng, labels)}
    for label in labels:
        roll = rng.random()
        production = random_production(rng, rng.sample(labels, 2))
        if roll < 0.5:
            productions[label] = f"({production})?"
        elif roll < 0.8:
            productions[label] = production
    return DTD("r", productions, {"a": ("x",)})


def _conforming_product(rng: random.Random, variant: str):
    """A DTD automaton, a random closure automaton and its patterns."""
    from repro.automata.bitset import BitsetClosureAutomaton, BitsetDTDAutomaton
    from repro.automata.dtd_automaton import DTDAutomaton
    from repro.automata.duta import ProductAutomaton
    from repro.automata.pattern_automaton import PatternClosureAutomaton

    dtd = random_recursive_dtd(rng)
    patterns = [
        parse_pattern(text).strip_values()
        for text in rng.sample(
            ["r//a", "r[a -> b]", "_[b ->* _]", "r//c[d]", "a//_", "r[_, _]", "zzz"], 3
        )
    ]
    extra = frozenset(label for p in patterns for label in p.labels_used())
    closure_kind, dtd_kind = {
        "pure": (PatternClosureAutomaton, DTDAutomaton),
        "bitset": (BitsetClosureAutomaton, BitsetDTDAutomaton),
    }[variant]
    conformance = dtd_kind(dtd, extra)
    closure = closure_kind(patterns, extra_labels=dtd.labels | extra)
    return conformance, closure, patterns


@pytest.mark.parametrize("variant", ["pure", "bitset"])
@pytest.mark.parametrize("seed", range(20))
def test_conformance_index_matches_pruning_oracle(seed, variant):
    """The label-indexed search realizes exactly what plain pruning does."""
    from repro.automata.duta import ProductAutomaton, reachable_states, run
    from repro.verification.reachability import reachable_states_naive

    rng = random.Random(5000 + seed)
    conformance, closure, patterns = _conforming_product(rng, variant)
    steps = []

    class Recording(ProductAutomaton):
        """Records (parent label, child label) of every horizontal step."""

        def step_horizontal(self, label, hstate, child_state):
            if variant == "bitset":
                child = conformance.table.label_of(child_state[0] >> 1)
            else:
                child = child_state[0][0]
            steps.append((label, child))
            return super().step_horizontal(label, hstate, child_state)

    product = Recording([conformance, closure])
    charges = []
    fast = reachable_states(
        product, conformance=conformance, charge=lambda: charges.append(1)
    )
    assert all(
        child in conformance.child_labels(parent) for parent, child in steps
    )
    assert len(charges) == len(fast)
    # the oracle steps every pair (so it runs after the step check)
    slow = reachable_states_naive(product, conformance=conformance)
    assert fast.keys() == slow.keys()
    for state, witness in fast.items():
        assert run(product, witness) == state
        assert conformance.state_ok(state[0])

    # with stop: the search ends at the first state whose subtree matches
    # the first pattern, and finds one exactly when the full search has one
    def target(state) -> bool:
        return closure.satisfies(state[1], patterns[0])

    charges.clear()
    stopped = reachable_states(
        product, stop=target, conformance=conformance,
        charge=lambda: charges.append(1),
    )
    naive_stopped = reachable_states_naive(
        product, stop=target, conformance=conformance
    )
    assert len(charges) == len(stopped)
    assert stopped.keys() <= fast.keys()
    hits = [state for state in stopped if target(state)]
    assert len(hits) == (1 if any(map(target, fast)) else 0)
    assert any(map(target, naive_stopped)) == bool(hits)
    if hits:
        assert list(stopped)[-1] == hits[0]
    else:
        assert stopped.keys() == fast.keys()
    for state, witness in stopped.items():
        assert run(product, witness) == state


def test_kernel_selection_thresholds(monkeypatch):
    # the pattern engine is the one selected surface
    assert set(AUTO_THRESHOLDS) == {"pattern-engine"}
    # size alone decides: no environment setting is consulted
    monkeypatch.setenv("REPRO_KERNEL", "bitset")
    threshold = AUTO_THRESHOLDS["pattern-engine"]
    assert select_kernel("pattern-engine", threshold - 1) == PURE
    assert select_kernel("pattern-engine", threshold) == BITSET
    # the differential seam pins a kernel at every size
    with force_kernel(PURE):
        assert select_kernel("pattern-engine", 10**6) == PURE
    with force_kernel(BITSET):
        assert select_kernel("pattern-engine", 1) == BITSET
    with pytest.raises(ValueError):
        with force_kernel("auto"):
            pass


def test_engine_for_selects_compact_above_threshold():
    n = AUTO_THRESHOLDS["pattern-engine"]

    def flat(n_nodes: int) -> TreeNode:
        return TreeNode("r", (), tuple(TreeNode("a") for __ in range(n_nodes - 1)))

    assert type(engine_for(flat(n - 1))) is PatternEngine
    assert type(engine_for(flat(n))) is CompactPatternEngine


def test_engine_cutover_is_the_journaled_crossover():
    """The pattern-engine cutover is the one bench_scale.py measured."""
    meta = json.loads((REPO_ROOT / "BENCH_scale.json").read_text())["_meta"]
    assert AUTO_THRESHOLDS["pattern-engine"] == meta["engine-cutover"]["crossover"]


def _achievable_cases():
    """(name, mapping) over the Figure 1 families and random mappings."""
    for __, family, sizes in F1_CELLS:
        for n in sizes:
            for consistent in (True, False):
                yield (
                    f"{family.__name__}-{n}-{consistent}",
                    family(n, consistent=consistent),
                )
    for seed in range(20):
        yield f"random-{seed}", random_structural_mapping(random.Random(1000 + seed))


def test_achievable_sets_match_reference():
    """The bitset trigger-set table has the plain automata's trigger sets.

    Both sides of every mapping, over the labels of all its patterns (the
    alphabet cons-automata searches).  Witnesses may differ between the
    encodings, but each must conform and match exactly its trigger set.
    """
    from repro.automata.dtd_automaton import decorate
    from repro.consistency.cons_automata import _pattern_labels
    from repro.engine.cache import achievable_sets
    from repro.patterns.matching import matches_at_root
    from repro.verification.reachability import achievable_sets_reference

    for name, mapping in _achievable_cases():
        extra = _pattern_labels(mapping)
        sides = (
            (mapping.source_dtd, [std.source for std in mapping.stds]),
            (mapping.target_dtd, [std.target for std in mapping.stds]),
        )
        for dtd, patterns in sides:
            context = ExecutionContext(cache=CompilationCache())
            production = achievable_sets(dtd, patterns, extra, context=context)
            reference = achievable_sets_reference(dtd, patterns, extra)
            assert production.keys() == reference.keys(), (name, dtd)
            for table in (production, reference):
                for triggered, witness in table.items():
                    tree = decorate(dtd, witness)
                    assert dtd.conforms(tree), (name, witness)
                    matched = {
                        index for index, pattern in enumerate(patterns)
                        if matches_at_root(pattern, tree)
                    }
                    assert matched == triggered, (name, witness)
