"""The bounded routes: sources up to renaming, an exact per-source check,
refutations that never come from a target bound, one checker picked from
the mapping, and the brute force's first witness chain.

The brute-force oracles of :mod:`repro.verification.oracle` enumerate
every source and target tree; the routes must agree with them wherever
the oracle's target bound covers the canonical solutions.
"""

import ast
import itertools
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.composition.conscomp import is_composition_consistent_bounded
from repro.consistency.abscons import abscons_counterexample
from repro.consistency.bounded import (
    decide_source,
    default_value_domain,
    find_consistency_witness_bounded,
    mapping_constants,
)
from repro.consistency.enumeration import enumerate_reduced_trees, reduced_assignments
from repro.engine import (
    AbsoluteConsistencyProblem,
    Budget,
    CompilationCache,
    CompositionConsistencyProblem,
    CompositionMembershipProblem,
    ConsistencyProblem,
    ExecutionContext,
    certify,
    solve,
)
from repro.engine.certify import CertificationError
from repro.engine.verdicts import Counterexample, Refuted
from repro.exchange.canonical import canonical_solution, decides_solutions
from repro.mappings.mapping import SchemaMapping
from repro.mappings.membership import is_solution
from repro.verification.enumeration import enumerate_trees
from repro.verification.oracle import (
    oracle_counterexample,
    oracle_has_solution,
    oracle_is_consistent,
)
from repro.xmlmodel.parser import parse_tree


def mk(source, target, stds):
    return SchemaMapping.parse(source, target, stds)


#: Source trees of at most this many nodes are searched by every check.
SOURCE_BOUND = 3


# ---------------------------------------------------------------------------
# sources up to renaming
# ---------------------------------------------------------------------------


def _least_in_orbit(values, domain, fixed):
    """Rename the free values of *values* in order of first use."""
    free = iter([v for v in domain if v not in fixed])
    renaming = {}
    for value in values:
        if value not in fixed and value not in renaming:
            renaming[value] = next(free)
    return tuple(renaming.get(value, value) for value in values)


@pytest.mark.parametrize(
    "domain, fixed, slots",
    [
        ((0, 1, 2), (), 3),
        (("c", 0, 1, "d", 2), ("c", "d"), 3),
        ((0, 1), (), 4),
        ((5,), (5,), 2),
        ((0, 1, 2, 3), (2,), 4),
        ((0, 1), (), 0),
    ],
)
def test_reduced_assignments_are_the_least_member_of_each_orbit(domain, fixed, slots):
    brute = [
        values
        for values in itertools.product(domain, repeat=slots)
        if _least_in_orbit(values, domain, fixed) == values
    ]
    assert list(reduced_assignments(domain, frozenset(fixed), slots)) == brute


def test_reduced_trees_keep_the_brute_force_order():
    mapping = mk("r -> a*, b?\na(x)\nb(x, y)", "t", [])
    dtd, domain = mapping.source_dtd, (0, 1, 2)
    full = list(enumerate_trees(dtd, 4, domain))
    reduced = list(enumerate_reduced_trees(dtd, 4, domain))
    positions = [full.index(tree) for tree in reduced]
    assert positions == sorted(positions)
    assert len(reduced) < len(full)


# ---------------------------------------------------------------------------
# random small mappings with =/≠ source conditions
# ---------------------------------------------------------------------------

SOURCES = ["r -> a, b\na(v)\nb(v)", "r -> a, b?\na(v)\nb(v)", "r -> a*\na(v)"]
TARGETS = [
    "t -> c?, d*\nc(u)\nd(w)",
    "t -> c, d?\nc(u)\nd(w)",
    "t -> e?\ne -> c*\nc(u)",
]
TARGET_PATTERNS = {
    "t -> c?, d*\nc(u)\nd(w)": ["t[c({0})]", "t[d({0})]", "t[c({0}), d({1})]", "t[zzz]"],
    "t -> c, d?\nc(u)\nd(w)": ["t[c({0})]", "t[d({0})]", "t[c({0}), c({1})]", "t"],
    "t -> e?\ne -> c*\nc(u)": ["t[e[c({0})]]", "t[e[c({0}), c({1})]]", "t[e]"],
}
SOURCE_PATTERNS = {
    "r -> a, b\na(v)\nb(v)": "r[a(x), b(y)]",
    "r -> a, b?\na(v)\nb(v)": "r[a(x), b(y)]",
    "r -> a*\na(v)": "r[a(x), a(y)]",
}


def random_comparison_mapping(rng: random.Random) -> SchemaMapping:
    source = rng.choice(SOURCES)
    target = rng.choice(TARGETS)
    stds = []
    for __ in range(rng.randint(1, 3)):
        condition = rng.choice(["", ", x = y", ", x != y", ", x != 1"])
        terms = [rng.choice(["x", "y", "z", "1"]) for __ in range(2)]
        pattern = rng.choice(TARGET_PATTERNS[target]).format(*terms)
        stds.append(f"{SOURCE_PATTERNS[source]}{condition} -> {pattern}")
    return mk(source, target, stds)


def _target_domain(mapping):
    return tuple(default_value_domain(mapping)) + ("#null0", "#null1")


def _canonical_bound(mapping, domain):
    """The largest canonical solution over the bounded sources (at least 2)."""
    sizes = [2]
    for source in enumerate_trees(mapping.source_dtd, SOURCE_BOUND, domain):
        canonical = canonical_solution(mapping, source)
        if canonical is not None:
            sizes.append(canonical.size)
    return max(sizes)


MAPPINGS = [random_comparison_mapping(random.Random(seed)) for seed in range(24)]


@pytest.mark.parametrize("mapping", MAPPINGS, ids=lambda m: "; ".join(map(str, m.stds)))
def test_canonical_solution_is_none_exactly_when_the_oracle_finds_none(mapping):
    assert decides_solutions(mapping)
    domain = default_value_domain(mapping)
    bound = _canonical_bound(mapping, domain)
    for source in enumerate_trees(mapping.source_dtd, SOURCE_BOUND, domain):
        canonical = canonical_solution(mapping, source)
        found = oracle_has_solution(mapping, source, bound, _target_domain(mapping))
        assert (canonical is None) == (not found), source


def _oracle_first_witness_source(mapping, target_bound, domain):
    for source in enumerate_trees(mapping.source_dtd, SOURCE_BOUND, domain):
        if oracle_has_solution(mapping, source, target_bound, domain):
            return source
    return None


@pytest.mark.parametrize("mapping", MAPPINGS, ids=lambda m: "; ".join(map(str, m.stds)))
def test_reduced_routes_match_the_oracles(mapping):
    domain = default_value_domain(mapping)
    bound = _canonical_bound(mapping, domain)
    # the routes decide each source exactly, so a target bound of 1 must
    # not change their answers
    counterexample = abscons_counterexample(mapping, SOURCE_BOUND, domain)
    assert counterexample == oracle_counterexample(mapping, SOURCE_BOUND, bound, domain)
    witness = find_consistency_witness_bounded(mapping, SOURCE_BOUND, 1, domain)
    assert (witness is not None) == oracle_is_consistent(
        mapping, SOURCE_BOUND, bound, domain
    )
    if witness is not None:
        assert witness[0] == _oracle_first_witness_source(mapping, bound, domain)


OUTSIDE_CLASS = [
    # wildcard and descendant targets: bounded target search over the
    # reduced sources
    mk("r -> a, b\na(v)\nb(v)", "t -> c?, d*\nc(u)\nd(w)",
       ["r[a(x), b(y)], x = y -> t[_(x)]", "r[a(x), b(y)], x != y -> t[zzz]"]),
    mk("r -> a, b\na(v)\nb(v)", "t -> e?\ne -> c*\nc(u)",
       ["r[a(x), b(y)], x != y -> t//c(x)", "r[a(x), b(y)], x = y -> t[_[c(y), c(1)]]"]),
    # a target condition
    mk("r -> a*\na(v)", "t -> c?, d*\nc(u)\nd(w)",
       ["r[a(x), a(y)] -> t[d(z)], z != x"]),
]


@pytest.mark.parametrize("mapping", OUTSIDE_CLASS, ids=lambda m: "; ".join(map(str, m.stds)))
def test_outside_the_canonical_class_cons_matches_the_oracle(mapping):
    assert not decides_solutions(mapping)
    domain = default_value_domain(mapping)
    witness = find_consistency_witness_bounded(mapping, SOURCE_BOUND, 3, domain)
    assert (witness is not None) == oracle_is_consistent(mapping, SOURCE_BOUND, 3, domain)
    if witness is not None:
        assert witness[0] == _oracle_first_witness_source(mapping, 3, domain)


@pytest.mark.parametrize("mapping", OUTSIDE_CLASS, ids=lambda m: "; ".join(map(str, m.stds)))
def test_outside_the_canonical_class_abscons_refutes_only_exactly(mapping):
    domain = default_value_domain(mapping)
    counterexample = abscons_counterexample(mapping, SOURCE_BOUND, domain)
    oracle = oracle_counterexample(mapping, SOURCE_BOUND, 4, domain)
    assert counterexample == oracle
    for source in enumerate_trees(mapping.source_dtd, SOURCE_BOUND, domain):
        decided, solution = decide_source(mapping, source)
        if decided:
            assert (solution is not None) == oracle_has_solution(
                mapping, source, 4, _target_domain(mapping)
            ), source
        if solution is not None:
            assert is_solution(mapping, source, solution)


# ---------------------------------------------------------------------------
# refutations never come from a target bound
# ---------------------------------------------------------------------------

#: Every source tree has the 8-node solution t[c1, ..., c7].
LARGE_SOLUTION = mk(
    "r -> a, b\na(v)\nb(v)",
    "t -> c1, c2, c3, c4, c5, c6, c7",
    ["r[a(x), b(y)], x = y -> t[c1]"],
)

#: Every source tree has solutions, all of at least 8 nodes.  The target
#: condition leaves the exact test undecided: the satisfying tree of the
#: obligations gives ``y`` a fresh value, which misses ``y = x``.
LARGE_CONDITIONED_SOLUTION = mk(
    "r -> a\na(v)",
    "t -> c1, c2, c3, c4, c5, c6, d*\nd(w)",
    ["r[a(x)] -> t[d(y)], y = x"],
)


def _context(**overrides):
    return ExecutionContext(Budget.default().with_(**overrides), cache=CompilationCache())


def test_large_solutions_do_not_refute_absolute_consistency():
    context = _context()
    abscons = solve(AbsoluteConsistencyProblem(LARGE_SOLUTION), context)
    assert abscons.is_unknown
    cons = solve(ConsistencyProblem(LARGE_SOLUTION), context)
    assert cons.is_proved
    assert certify(cons)
    assert cons.certificate.target.size == 8


def test_a_miss_within_the_target_bound_is_unknown_and_named():
    verdict = solve(
        AbsoluteConsistencyProblem(LARGE_CONDITIONED_SOLUTION), _context()
    )
    assert verdict.is_unknown
    assert "max_target_size" in verdict.reason


@pytest.mark.parametrize("target_bound", [1, 2, 6])
@pytest.mark.parametrize(
    "mapping",
    [LARGE_SOLUTION, LARGE_CONDITIONED_SOLUTION] + OUTSIDE_CLASS + MAPPINGS[:6],
    ids=lambda m: "; ".join(map(str, m.stds)),
)
def test_no_route_refutes_from_a_bounded_target_search(mapping, target_bound):
    context = _context(max_source_size=SOURCE_BOUND, max_target_size=target_bound)
    assert not solve(ConsistencyProblem(mapping), context).is_refuted
    verdict = solve(AbsoluteConsistencyProblem(mapping), context)
    if verdict.is_refuted:
        # a refutation holds at every target bound: certify() confirms it
        # exactly, and the oracle past the smallest route bound agrees
        source = verdict.certificate.source
        assert certify(verdict)
        assert not oracle_has_solution(mapping, source, 4, _target_domain(mapping))


def test_composition_consistency_search_never_refutes():
    m12 = mk("r -> a\na(v)", "s -> b*\nb(w)", ["r[a(x)] -> s[b(x)]"])
    m23 = mk("s -> b*\nb(w)", "t -> c1, c2, c3, c4, c5, c6, c7",
             ["s[b(x), b(y)], x != y -> t[c1]"])
    context = _context(max_chain_size=2)
    assert not is_composition_consistent_bounded([m12, m23], context=context).is_refuted


def test_certify_rejects_counterexamples_it_cannot_confirm_exactly():
    # the source has the solution t[c1, ..., c7]
    source = parse_tree("r[a(0), b(0)]")
    forged = Refuted(Counterexample(source))
    with pytest.raises(CertificationError):
        certify(forged, AbsoluteConsistencyProblem(LARGE_SOLUTION))
    # a target condition leaves solution existence undecided: no exact check
    forged = Refuted(Counterexample(parse_tree("r[a(1)]")))
    with pytest.raises(CertificationError):
        certify(forged, AbsoluteConsistencyProblem(LARGE_CONDITIONED_SOLUTION))


def test_exact_check_charges_the_budget_per_construction():
    context = _context()
    decide_source(LARGE_SOLUTION, parse_tree("r[a(1), b(1)]"), context)
    assert context.expansions == 1


def test_witness_targets_carry_plain_values():
    mapping = mk("r -> a\na(v)", "t -> c\nc(u, w)", ["r[a(x)], x != 1 -> t[c(x, z)]"])
    verdict = solve(ConsistencyProblem(mapping), _context())
    assert verdict.is_proved and certify(verdict)
    values = verdict.certificate.target.adom()
    assert all(isinstance(value, (str, int)) for value in values)
    # the source a(1) triggers nothing: both target values are fresh
    assert verdict.certificate.source == parse_tree("r[a(1)]")
    assert values == {"#n0", "#n1"}


# ---------------------------------------------------------------------------
# one checker, picked from the mapping: Skolem mappings on every bounded route
# ---------------------------------------------------------------------------

#: Outside the Theorem 8.2 class (an inequality), so composition
#: membership takes the bounded route too.
SKOLEM = mk("r -> a\na(v)", "t -> b\nb(u, w)", ["r[a(x)], x != 1 -> t[b(x, f(x))]"])
SKOLEM_NEXT = mk("t -> b\nb(u, w)", "s -> c*\nc(u)", ["t[b(x, y)] -> s[c(y)]"])


def test_constants_inside_skolem_terms_are_fixed():
    mapping = mk("r -> a\na(v)", "t -> b\nb(u, w)", ["r[a(x)] -> t[b(x, f(2, x))], x != 1"])
    assert mapping_constants(mapping) == (2, 1)


@pytest.mark.parametrize(
    "problem, algorithm",
    [
        (ConsistencyProblem(SKOLEM), "cons-bounded"),
        (CompositionConsistencyProblem((SKOLEM, SKOLEM_NEXT)), "conscomp-bounded"),
        (
            CompositionMembershipProblem(
                SKOLEM, SKOLEM_NEXT, parse_tree("r[a(0)]"), parse_tree("s[c(5)]")
            ),
            "composition-bounded",
        ),
    ],
    ids=["cons", "conscomp", "composition-membership"],
)
def test_skolem_mappings_reach_the_bounded_routes(problem, algorithm):
    assert SKOLEM.uses_skolem_functions()
    verdict = solve(problem, _context())
    assert verdict.report.algorithm == algorithm
    assert verdict.is_proved
    assert certify(verdict)


# ---------------------------------------------------------------------------
# composition consistency: the brute-force first chain
# ---------------------------------------------------------------------------


def _brute_force_chain(mappings, max_size, domain):
    """The first witness chain of a plain depth-first search over
    ``enumerate_trees``, or None."""

    def chain_from(index, tree):
        if index == len(mappings):
            return (tree,)
        mapping = mappings[index]
        for following in enumerate_trees(mapping.target_dtd, max_size, domain):
            if is_solution(mapping, tree, following, check_conformance=False).is_proved:
                rest = chain_from(index + 1, following)
                if rest is not None:
                    return (tree,) + rest
        return None

    for source in enumerate_trees(mappings[0].source_dtd, max_size, domain):
        chain = chain_from(0, source)
        if chain is not None:
            return chain
    return None


#: The last mapping forces every value to be its constant 1 (one ``d``
#: child holds both ``d(x)`` and ``d(1)``); the earlier mappings mention
#: no constant, so only fixing every mapping's constants keeps the trees
#: that carry 1 apart from those that carry 0.
_LAST = mk("u -> c\nc(w)", "v -> d\nd(w)", ["u[c(x)] -> v[d(x)]", "u[c(x)] -> v[d(1)]"])
LATE_CONSTANT_CHAINS = [
    [
        mk("r -> a\na(v)", "s -> b\nb(w)", ["r[a(x)] -> s[b(x)]"]),
        mk("s -> b\nb(w)", "u -> c\nc(w)", ["s[b(x)] -> u[c(x)]"]),
        _LAST,
    ],
    [
        # the value enters at the first target, as an existential
        mk("r", "s -> b\nb(w)", ["r -> s[b(y)]"]),
        mk("s -> b\nb(w)", "u -> c\nc(w)", ["s[b(x)] -> u[c(x)]"]),
        _LAST,
    ],
]


@pytest.mark.parametrize("mappings", LATE_CONSTANT_CHAINS, ids=["source", "existential"])
def test_bounded_composition_chain_is_the_brute_force_first(mappings):
    verdict = is_composition_consistent_bounded(mappings, max_tree_size=2)
    expected = _brute_force_chain(mappings, 2, (0, 1))
    assert expected is not None and expected[-1] == parse_tree("v[d(1)]")
    assert verdict.is_proved
    assert verdict.certificate.trees == expected


# ---------------------------------------------------------------------------
# production code does not run the oracles
# ---------------------------------------------------------------------------


def _imported_modules(path: Path) -> set[str]:
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
    return modules


def test_no_production_module_imports_the_oracles():
    """``repro.verification`` holds the brute-force references: no module
    outside it imports any part of it (function-level imports included)."""
    package = Path(repro.__file__).resolve().parent
    offenders = [
        str(path.relative_to(package))
        for path in sorted(package.rglob("*.py"))
        if path.parent.name != "verification"
        and any(
            module == "repro.verification" or module.startswith("repro.verification.")
            for module in _imported_modules(path)
        )
    ]
    assert offenders == []


def test_bounded_routes_do_not_load_the_oracles():
    """A fresh interpreter that imports the CLI and decides a problem on
    each bounded route never loads ``repro.verification``."""
    script = textwrap.dedent("""
        import sys
        import repro.cli
        from repro.engine import (
            AbsoluteConsistencyProblem, CompositionConsistencyProblem,
            CompositionMembershipProblem, ConsistencyProblem, solve,
        )
        from repro.mappings.mapping import SchemaMapping
        from repro.workloads.families import distinct_values_family
        from repro.xmlmodel.parser import parse_tree

        mapping = distinct_values_family(3, False)
        m12 = SchemaMapping.parse(
            "r -> a*\\na(v)", "s -> b*\\nb(w)", ["r[a(x)], x != 1 -> s[b(x)]"]
        )
        m23 = SchemaMapping.parse("s -> b*\\nb(w)", "t -> c*\\nc(w)", ["s[b(x)] -> t[c(x)]"])
        source, final = parse_tree("r[a(0)]"), parse_tree("t[c(0)]")
        for problem in (
            ConsistencyProblem(mapping),
            AbsoluteConsistencyProblem(mapping),
            CompositionConsistencyProblem((m12, m23)),
            CompositionMembershipProblem(m12, m23, source, final),
        ):
            print(solve(problem).report.algorithm)
        print(sorted(m for m in sys.modules if m.startswith("repro.verification")))
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    *algorithms, modules = result.stdout.splitlines()
    assert algorithms == [
        "cons-bounded", "abscons-bounded", "conscomp-bounded", "composition-bounded",
    ]
    assert modules == "[]"
