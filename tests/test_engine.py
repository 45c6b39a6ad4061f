"""Tests for the solver engine: the verdict algebra, budgets, the
compilation cache, ``solve``'s Figure-1/2 routing and ``certify``'s
independent re-validation of certificates."""

import random

import pytest

from repro.engine import (
    AbsoluteConsistencyProblem,
    AnalysisCertificate,
    Budget,
    BudgetExceeded,
    CertificationError,
    CompilationCache,
    CompositionConsistencyProblem,
    CompositionMembershipProblem,
    ConsistencyProblem,
    ExecutionContext,
    MembershipProblem,
    Proved,
    Refuted,
    SatisfiabilityProblem,
    SeparationProblem,
    Unknown,
    certify,
    dtd_automaton,
    dtd_classification,
    solve,
)
from repro.errors import BoundExceededError, UnknownVerdictError, XsmError
from repro.mappings.mapping import SchemaMapping
from repro.mappings.skolem import SkolemMapping
from repro.mappings.std import STD, Comparison
from repro.patterns.parser import parse_pattern
from repro.values import Const, Var
from repro.workloads.random_instances import (
    abstract_pattern_from_tree,
    random_arbitrary_dtd,
    random_composable_pair,
    random_conforming_tree,
    random_fully_specified_mapping,
    random_tree_from_dtd,
)
from repro.xmlmodel.dtd import parse_dtd
from repro.xmlmodel.parser import parse_tree


def mk(source, target, stds):
    return SchemaMapping.parse(source, target, stds)


# ---------------------------------------------------------------------------
# verdict algebra
# ---------------------------------------------------------------------------


class TestVerdictAlgebra:
    def test_truthiness(self):
        assert bool(Proved(AnalysisCertificate("x"))) is True
        assert bool(Refuted(AnalysisCertificate("x"))) is False
        with pytest.raises(UnknownVerdictError):
            bool(Unknown("out of budget"))

    def test_equality_against_bools(self):
        assert Proved(None) == True  # noqa: E712 — the comparison is the point
        assert Refuted(None) == False  # noqa: E712
        assert Unknown("r") != True  # noqa: E712
        assert Unknown("r") != False  # noqa: E712

    def test_equality_between_verdicts(self):
        assert Proved(AnalysisCertificate("a")) == Proved(AnalysisCertificate("b"))
        assert Proved(None) != Refuted(None)
        assert Unknown("a") == Unknown("b")

    def test_repr_names_certificate(self):
        assert repr(Proved(AnalysisCertificate("x"))) == "Proved(AnalysisCertificate)"
        assert "bound_exhausted" in repr(Unknown("r", bound_exhausted=True))


# ---------------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------------


class TestBudget:
    def test_default_is_single_instance(self):
        assert Budget.default() is Budget.default()

    def test_with_overrides(self):
        tight = Budget.default().with_(max_source_size=2)
        assert tight.max_source_size == 2
        assert tight.max_target_size == Budget.default().max_target_size
        assert Budget.default().max_source_size != 2

    def test_expansion_budget_raises(self):
        context = ExecutionContext(Budget.default().with_(max_expansions=5))
        context.charge(5)
        with pytest.raises(BudgetExceeded):
            context.charge()

    def test_budget_exceeded_is_a_bound_exceeded_error(self):
        assert issubclass(BudgetExceeded, BoundExceededError)

    def test_deadline_raises(self):
        context = ExecutionContext(Budget.default().with_(deadline_seconds=0.0))
        with pytest.raises(BudgetExceeded):
            for __ in range(10_000):
                context.charge()

    def test_limits_fired_counts_every_raising_charge(self):
        capped = ExecutionContext(Budget.default().with_(max_expansions=1))
        capped.charge()
        assert capped.limits_fired == 0
        for expected in (1, 2):
            with pytest.raises(BudgetExceeded):
                capped.charge()
            assert capped.limits_fired == expected
        timed = ExecutionContext(Budget.default().with_(deadline_seconds=0.0))
        with pytest.raises(BudgetExceeded):
            for __ in range(10_000):
                timed.charge()
        assert timed.limits_fired == 1

    def test_exhaustion_surfaces_as_unknown_from_solve(self):
        # comparisons route to the bounded search, which charges per
        # candidate tree — a one-expansion budget dies immediately
        m = mk(
            "r -> a, b\na(x)\nb(y)", "t -> c*\nc(u)",
            ["r[a(x), b(y)], x != y -> t[c(x)]"],
        )
        context = ExecutionContext(
            Budget.default().with_(max_expansions=1), cache=CompilationCache()
        )
        verdict = solve(ConsistencyProblem(m), context)
        assert verdict.is_unknown
        assert verdict.bound_exhausted


# ---------------------------------------------------------------------------
# compilation cache
# ---------------------------------------------------------------------------


class TestCompilationCache:
    def test_same_content_distinct_objects_hit(self):
        # two parses produce distinct DTD objects with identical content
        dtd1 = parse_dtd("r -> a*\na(x)")
        dtd2 = parse_dtd("r -> a*\na(x)")
        assert dtd1 is not dtd2
        context = ExecutionContext(cache=CompilationCache())
        first = dtd_automaton(dtd1, context=context)
        again = dtd_automaton(dtd2, context=context)
        assert again is first
        stats = context.cache.stats()
        # the bitset automaton compiles its production DFAs itself, so the
        # first call is the automaton's one miss and the second a hit
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["evictions"] == 0

    def test_different_content_misses(self):
        context = ExecutionContext(cache=CompilationCache())
        dtd_classification(parse_dtd("r -> a*"), context)
        dtd_classification(parse_dtd("r -> a+"), context)
        stats = context.cache.stats()
        assert stats["misses"] == 2
        assert stats["hits"] == 0
        assert stats["entries"] == 2

    def test_exact_counters_across_repeats(self):
        context = ExecutionContext(cache=CompilationCache())
        dtd = parse_dtd("r -> a?")
        for __ in range(5):
            dtd_classification(dtd, context)
        stats = context.cache.stats()
        assert stats == {"entries": 1, "hits": 4, "misses": 1, "evictions": 0}

    def test_lru_eviction_counted(self):
        cache = CompilationCache(max_entries=2)
        for i in range(3):
            cache.lookup(("k", i), lambda: i)
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        # the oldest key was evicted: looking it up again is a miss
        cache.lookup(("k", 0), lambda: 0)
        assert cache.stats()["misses"] == 4

    def test_disabled_cache_never_stores(self):
        cache = CompilationCache(enabled=False)
        for __ in range(3):
            cache.lookup("k", lambda: object())
        stats = cache.stats()
        assert stats == {"entries": 0, "hits": 0, "misses": 3, "evictions": 0}


# ---------------------------------------------------------------------------
# routing (Figure 1/2): which algorithm does solve() select?
# ---------------------------------------------------------------------------


def _skolem_copy_chain():
    from repro.mappings.skolem import SkolemMapping

    m12 = SkolemMapping.parse(
        "r -> a*\na(x)", "m -> b*\nb(u, w)", ["r[a(x)] -> m[b(x, z)]"]
    )
    m23 = SkolemMapping.parse(
        "m -> b*\nb(u, w)", "t -> c*\nc(v)", ["m[b(u, w)] -> t[c(u)]"]
    )
    return m12, m23


def _consistency_case(source, target, stds, algorithm):
    return (ConsistencyProblem(mk(source, target, stds)), algorithm)


def _abscons_case(source, target, stds, algorithm):
    return (AbsoluteConsistencyProblem(mk(source, target, stds)), algorithm)


def _routing_cases():
    cases = [
        # SM(⇓) over nested-relational DTDs: PTIME minimal-tree route
        _consistency_case(
            "r -> a*\na(x)", "t -> b*\nb(u)", ["r[a(x)] -> t[b(x)]"],
            "cons-nested",
        ),
        # horizontal axes leave SM(⇓): exact automata route
        _consistency_case(
            "r -> a, b", "t -> c, d", ["r[a -> b] -> t[c -> d]"],
            "cons-automata",
        ),
        # disjunctive production: not nested-relational, so
        # nested_ptime_applicable fails and the automata route runs
        _consistency_case(
            "r -> a | b", "t -> c?", ["r[a] -> t[c]"],
            "cons-automata",
        ),
        # data comparisons: only the bounded search is sound
        _consistency_case(
            "r -> a, b\na(x)\nb(y)", "t -> c*\nc(u)",
            ["r[a(x), b(y)], x != y -> t[c(x)]"],
            "cons-bounded",
        ),
        # constants count like comparisons (uses_constants routes them
        # to the bounded search)
        _consistency_case(
            "r -> a\na(x)", "t -> c*\nc(u)", ["r[a(5)] -> t[c(5)]"],
            "cons-bounded",
        ),
        # value-free SM°: trigger-set coverage (Proposition 6.1)
        _abscons_case(
            "r -> a*", "t -> b?", ["r[a] -> t[b]"],
            "abscons-sm0",
        ),
        # values, fully specified, nested-relational: rigidity analysis
        _abscons_case(
            "r -> a*\na(x)", "t -> b\nb(u)", ["r[a(x)] -> t[b(x)]"],
            "abscons-ptime",
        ),
        # descendant source over a non-recursive DTD: source expansion
        _abscons_case(
            "r -> a?, b?\na(x) -> c?\nb(y) -> c?\nc(z)",
            "t -> d*\nd(u)",
            ["r//c(z) -> t[d(z)]"],
            "abscons-expansion",
        ),
        # wildcard target defeats every exact route: bounded refutation
        _abscons_case(
            "r -> a*\na(x)", "t -> b*\nb(u)", ["r[a(x)] -> t[_(x)]"],
            "abscons-bounded",
        ),
        # eight wildcard children expand into 8^8 instantiations, past the
        # expansion limit: predicted abscons-expansion, answered by the one
        # run-time fallback, abscons-bounded
        pytest.param(
            *_abscons_case(
                "r -> " + ", ".join(f"k{i}?" for i in range(8)) + "\n"
                + "\n".join(f"k{i}(v)" for i in range(8)),
                "t -> d*\nd(u)",
                ["r[" + ", ".join(f"_(x{i})" for i in range(8)) + "] -> t[d(x0)]"],
                "abscons-bounded",
            ),
            id="expansion-overflow-abscons-bounded",
        ),
        # plain membership
        (
            MembershipProblem(
                mk("r -> a*\na(x)", "t -> b*\nb(u)", ["r[a(x)] -> t[b(x)]"]),
                parse_tree("r[a(1)]"),
                parse_tree("t[b(1)]"),
            ),
            "membership",
        ),
        # pattern satisfiability / separation (Figure 2 rows)
        # a constant needs tag lifting: Lemma 4.1's automata
        (
            SatisfiabilityProblem(parse_dtd("r -> a*\na(x)"), parse_pattern("r/a(1)")),
            "pattern-sat",
        ),
        # constant-free ⇓ pattern over a nested-relational DTD: one
        # embedding pass
        (
            SatisfiabilityProblem(parse_dtd("r -> a*"), parse_pattern("r/a")),
            "pattern-sat-nested",
        ),
        (
            SeparationProblem(
                parse_dtd("r -> a?, b?"),
                positives=(parse_pattern("r/a"),),
                negatives=(parse_pattern("r/b"),),
            ),
            "separation",
        ),
    ]
    # comparison-free chain: exact staged trigger-set chaining
    chain = [
        mk("r -> a*\na(x)", "m -> b*\nb(u)", ["r[a(x)] -> m[b(x)]"]),
        mk("m -> b*\nb(u)", "t -> c*\nc(v)", ["m[b(u)] -> t[c(u)]"]),
    ]
    cases.append((CompositionConsistencyProblem(chain), "conscomp-automata"))
    # comparisons in the chain: the problem is undecidable, bounded search
    unchain = [
        mk(
            "r -> a, b\na(x)\nb(y)", "m -> b*\nb(u)",
            ["r[a(x), b(y)], x != y -> m[b(x)]"],
        ),
        mk("m -> b*\nb(u)", "t -> c*\nc(v)", ["m[b(u)] -> t[c(u)]"]),
    ]
    cases.append((CompositionConsistencyProblem(unchain), "conscomp-bounded"))
    # Skolem class: exact composition membership via the composed mapping
    s12, s23 = _skolem_copy_chain()
    cases.append(
        (
            CompositionMembershipProblem(
                s12, s23, parse_tree("r[a(1)]"), parse_tree("t[c(1)]")
            ),
            "composition-exact",
        )
    )
    # descendant axis leaves the composition-closed class: bounded search
    d12 = mk("r -> a*\na(x)", "m -> b*\nb(u)", ["r//a(x) -> m[b(x)]"])
    d23 = mk("m -> b*\nb(u)", "t -> c*\nc(v)", ["m[b(u)] -> t[c(u)]"])
    cases.append(
        (
            CompositionMembershipProblem(
                d12, d23, parse_tree("r[a(1)]"), parse_tree("t[c(1)]")
            ),
            "composition-bounded",
        )
    )
    # '+' in the middle DTD is outside compose's class: a forced b carries
    # a value no requirement introduces, so the bounded search answers
    p12 = mk("r -> a*\na(x)", "m -> b+\nb(u)", ["r[a(x)] -> m[b(x)]"])
    p23 = mk("m -> b+\nb(u)", "t -> c*\nc(v)", ["m[b(u)] -> t[c(u)]"])
    cases.append(
        pytest.param(
            CompositionMembershipProblem(
                p12, p23, parse_tree("r[a(1)]"), parse_tree("t[c(1)]")
            ),
            "composition-bounded",
            id="plus-middle-composition-bounded",
        )
    )
    return cases


def _random_mapping(seed):
    """A seeded random mapping, varied over the Figure 1 cells by *seed*:
    fully specified, value-free, with abstracted (wildcard, descendant,
    sibling-order) sources, over a disjunctive source DTD, or with a
    source comparison."""
    rng = random.Random(seed)
    mapping = random_fully_specified_mapping(rng, n_stds=2)
    source_dtd, target_dtd = mapping.source_dtd, mapping.target_dtd
    variant = seed % 5
    if variant == 1:
        return mapping.strip_values()
    if variant in (2, 3):
        if variant == 3:
            source_dtd = random_arbitrary_dtd(rng)
            trees = [random_tree_from_dtd(source_dtd, rng, max_nodes=8)
                     for __ in mapping.stds]
        else:
            trees = [random_conforming_tree(source_dtd, rng, max_repeat=2)
                     for __ in mapping.stds]
        stds = [
            STD(abstract_pattern_from_tree(rng, tree), std.target)
            for tree, std in zip(trees, mapping.stds)
        ]
        return SchemaMapping(source_dtd, target_dtd, stds)
    if variant == 4:
        first, *rest = mapping.stds
        variables = [t for t in first.source.terms() if isinstance(t, Var)]
        if variables:
            condition = Comparison(variables[0], "!=", Const(0))
            first = STD(first.source, first.target, (condition,))
        return SchemaMapping(source_dtd, target_dtd, [first, *rest])
    return mapping


def _random_composition_problem(seed):
    """A seeded random_composable_pair chain with conforming end trees;
    odd seeds give M12 a descendant source, leaving the closed class."""
    rng = random.Random(seed)
    m12, m23 = random_composable_pair(rng)
    source = random_conforming_tree(m12.source_dtd, rng, max_repeat=2)
    final = random_conforming_tree(m23.target_dtd, rng, max_repeat=2)
    if seed % 2:
        first, *rest = m12.stds
        descendant = parse_pattern(f"{m12.source_dtd.root}//_")
        m12 = SkolemMapping(
            m12.source_dtd, m12.target_dtd, [STD(descendant, first.target), *rest]
        )
    return CompositionMembershipProblem(m12, m23, source, final)


class TestRouting:
    @pytest.mark.parametrize(
        "problem, algorithm",
        _routing_cases(),
        ids=lambda value: value if isinstance(value, str) else "",
    )
    def test_solve_selects_the_figure_1_algorithm(self, problem, algorithm):
        context = ExecutionContext(
            Budget.default().with_(max_source_size=3, max_target_size=4),
            cache=CompilationCache(),
        )
        verdict = solve(problem, context)
        assert verdict.report is not None
        assert verdict.report.algorithm == algorithm
        assert verdict.report.reason

    def test_skolem_membership_routes_to_skolem_checker(self):
        from repro.composition.compose import compose
        from repro.mappings.skolem import SkolemMapping

        # the middle existential z flows into the final target, so the
        # composed mapping keeps a genuine Skolem term
        m12 = SkolemMapping.parse(
            "r -> a*\na(x)", "m -> b*\nb(u, w)", ["r[a(x)] -> m[b(x, z)]"]
        )
        m23 = SkolemMapping.parse(
            "m -> b*\nb(u, w)", "t -> c*\nc(v, q)", ["m[b(u, w)] -> t[c(u, w)]"]
        )
        m13 = compose(m12, m23)
        assert m13.uses_skolem_functions()
        problem = MembershipProblem(
            m13, parse_tree("r[a(1)]"), parse_tree("t[c(1, 7)]")
        )
        verdict = solve(problem)
        assert verdict.report.algorithm == "membership-skolem"
        assert verdict.is_proved

    def test_unroutable_problem_rejected(self):
        with pytest.raises(XsmError):
            solve(object())

    def test_report_lines_render(self):
        m = mk("r -> a*\na(x)", "t -> b*\nb(u)", ["r[a(x)] -> t[b(x)]"])
        verdict = solve(ConsistencyProblem(m))
        lines = verdict.report.lines()
        assert any("algorithm:" in line for line in lines)
        assert any("cache:" in line for line in lines)


class TestLintAgreesWithRouting:
    """The linter's static cell prediction is the routing oracle.

    ``solve()`` routes from ``repro.analysis.fragment``'s prediction
    alone, so over the full routing matrix, and over seeded random
    mappings and composition chains, the predicted algorithm must be the
    one the engine actually selects, and a prediction of "exact" must
    never be contradicted by an Unknown verdict.  The one
    tolerated divergence is dynamic: a route that starts exact may
    overflow its run-time budget and fall back to a bounded search
    (``abscons-expansion`` -> ``abscons-bounded``), which no static
    analysis can foresee.
    """

    @pytest.mark.parametrize(
        "problem, algorithm",
        _routing_cases(),
        ids=lambda value: value if isinstance(value, str) else "",
    )
    def test_predicted_cell_matches_selected_algorithm(self, problem, algorithm):
        from repro.analysis.fragment import predict_for_problem

        context = ExecutionContext(
            Budget.default().with_(max_source_size=3, max_target_size=4),
            cache=CompilationCache(),
        )
        prediction = predict_for_problem(problem, context)
        verdict = solve(problem, context)
        selected = verdict.report.algorithm
        dynamic_fallback = (
            prediction.algorithm == "abscons-expansion"
            and selected == "abscons-bounded"
        )
        assert prediction.algorithm == selected or dynamic_fallback
        assert prediction.decidable is prediction.exact
        if prediction.exact and not dynamic_fallback:
            # lint-predicted decidability never contradicts the verdict
            assert verdict.is_proved or verdict.is_refuted
        if not prediction.exact:
            assert "bounded" in prediction.algorithm

    def _assert_agreement(self, problem):
        from repro.analysis.fragment import predict_for_problem

        context = ExecutionContext(
            Budget.default().with_(max_source_size=3, max_target_size=3),
            cache=CompilationCache(),
        )
        prediction = predict_for_problem(problem, context)
        verdict = solve(problem, context)
        selected = verdict.report.algorithm
        if prediction.algorithm == "abscons-expansion" and selected == "abscons-bounded":
            return  # the expansion overflow, the one run-time fallback
        assert selected == prediction.algorithm
        assert verdict.report.reason == prediction.reason
        if prediction.exact:
            assert verdict.is_proved or verdict.is_refuted

    @pytest.mark.parametrize("seed", range(0, 100, 10))
    def test_random_mappings_route_as_predicted(self, seed):
        for offset in range(10):
            mapping = _random_mapping(seed + offset)
            self._assert_agreement(ConsistencyProblem(mapping))
            self._assert_agreement(AbsoluteConsistencyProblem(mapping))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_composition_chains_route_as_predicted(self, seed):
        self._assert_agreement(_random_composition_problem(seed))

    def test_random_mappings_cover_the_cells(self):
        from repro.analysis.fragment import predict_abscons, predict_consistency

        cells = set()
        for seed in range(100):
            mapping = _random_mapping(seed)
            cells.add(predict_consistency(mapping).algorithm)
            cells.add(predict_abscons(mapping).algorithm)
        assert cells == {
            "cons-nested", "cons-automata", "cons-bounded", "abscons-sm0",
            "abscons-ptime", "abscons-expansion", "abscons-bounded",
        }

    def test_prediction_rejects_unknown_problems(self):
        from repro.analysis.fragment import predict_for_problem

        with pytest.raises(TypeError):
            predict_for_problem(object())


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


class TestCertify:
    def test_consistency_verdicts_certify(self):
        m = mk("r -> a*\na(x)", "t -> b*\nb(u)", ["r[a(x)] -> t[b(x)]"])
        assert certify(solve(ConsistencyProblem(m)))
        bad = mk("r -> a+\na(x)", "t -> w\nw -> b*\nb(u)", ["r[a(x)] -> t[b(x)]"])
        assert certify(solve(ConsistencyProblem(bad)))

    def test_abscons_verdicts_certify(self):
        rigid = mk("r -> a*\na(x)", "t -> b\nb(u)", ["r[a(x)] -> t[b(x)]"])
        assert certify(solve(AbsoluteConsistencyProblem(rigid)))
        safe = mk("r -> a*\na(x)", "t -> b*\nb(u)", ["r[a(x)] -> t[b(x)]"])
        assert certify(solve(AbsoluteConsistencyProblem(safe)))

    def test_membership_verdicts_certify(self):
        m = mk("r -> a*\na(x)", "t -> b*\nb(u)", ["r[a(x)] -> t[b(x)]"])
        inside = solve(MembershipProblem(m, parse_tree("r[a(1)]"), parse_tree("t[b(1)]")))
        assert certify(inside)
        outside = solve(MembershipProblem(m, parse_tree("r[a(1)]"), parse_tree("t")))
        assert outside.is_refuted
        assert certify(outside)

    def test_satisfiability_and_separation_certify(self):
        sat = solve(SatisfiabilityProblem(parse_dtd("r -> a*"), parse_pattern("r/a")))
        assert sat.is_proved
        assert certify(sat)
        unsat = solve(SatisfiabilityProblem(parse_dtd("r -> a*"), parse_pattern("r/z")))
        assert unsat.is_refuted
        assert certify(unsat)
        sep = solve(
            SeparationProblem(
                parse_dtd("r -> a?, b?"),
                positives=(parse_pattern("r/a"),),
                negatives=(parse_pattern("r/b"),),
            )
        )
        assert sep.is_proved
        assert certify(sep)

    def test_composition_consistency_chain_certifies(self):
        chain = [
            mk("r -> a*\na(x)", "m -> b*\nb(u)", ["r[a(x)] -> m[b(x)]"]),
            mk("m -> b*\nb(u)", "t -> c*\nc(v)", ["m[b(u)] -> t[c(u)]"]),
        ]
        verdict = solve(CompositionConsistencyProblem(chain))
        assert verdict.is_proved
        assert certify(verdict)

    def test_tampered_certificate_fails(self):
        m = mk("r -> a*\na(x)", "t -> b*\nb(u)", ["r[a(x)] -> t[b(x)]"])
        verdict = solve(
            MembershipProblem(m, parse_tree("r[a(1)]"), parse_tree("t[b(1)]"))
        )
        from repro.engine import WitnessPair

        forged = Proved(WitnessPair(parse_tree("r[a(1)]"), parse_tree("t")))
        forged.problem = verdict.problem
        with pytest.raises(CertificationError):
            certify(forged)

    def test_unknown_cannot_be_certified(self):
        with pytest.raises(CertificationError):
            certify(Unknown("no witness"), problem=object())
