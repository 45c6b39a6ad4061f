"""Tests for membership (T, T') in [[M]] (repro.mappings.membership),
including the paper's running university example."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import MembershipProblem, certify
from repro.engine.certify import CertificationError
from repro.engine.verdicts import Refuted, ViolationWitness
from repro.mappings.mapping import SchemaMapping
from repro.mappings.membership import (
    SolutionChecker,
    is_solution,
    triggered_requirements,
    violations,
    witness_valuation,
)
from repro.errors import XsmError
from repro.verification.enumeration import enumerate_trees
from repro.verification.oracle import oracle_is_solution
from repro.workloads.random_instances import (
    random_fully_specified_mapping,
    random_tree_from_dtd,
)
from repro.xmlmodel.parser import parse_tree
from tests.test_kernels import random_structural_mapping


D1 = """
r -> prof*
prof(name) -> teach, supervise
teach -> year
year(y) -> course, course
supervise -> student*
course(cn)
student(sid)
"""

D2 = """
r -> course*, student*
course(cn, y) -> taughtby
student(sid) -> supervisor
taughtby(name)
supervisor(name)
"""

#: The paper's third mapping: order preservation + inequality.
STD3 = (
    "r[prof(x)[teach[year(y)[course(cn1) -> course(cn2)]], "
    "supervise[student(s)]]], cn1 != cn2 -> "
    "r[course(cn1, y)[taughtby(x)] ->* course(cn2, y)[taughtby(x)], "
    "student(s)[supervisor(x)]]"
)

SOURCE = parse_tree(
    "r[prof(Ada)[teach[year(2009)[course(db1), course(db2)]], "
    "supervise[student(s1)]]]"
)


@pytest.fixture
def paper_mapping() -> SchemaMapping:
    return SchemaMapping.parse(D1, D2, [STD3])


class TestPaperExample:
    def test_order_preserving_target_is_solution(self, paper_mapping):
        target = parse_tree(
            "r[course(db1, 2009)[taughtby(Ada)], course(db2, 2009)[taughtby(Ada)], "
            "student(s1)[supervisor(Ada)]]"
        )
        assert is_solution(paper_mapping, SOURCE, target)

    def test_order_reversed_target_is_not_solution(self, paper_mapping):
        target = parse_tree(
            "r[course(db2, 2009)[taughtby(Ada)], course(db1, 2009)[taughtby(Ada)], "
            "student(s1)[supervisor(Ada)]]"
        )
        assert not is_solution(paper_mapping, SOURCE, target)

    def test_gap_between_courses_is_fine(self, paper_mapping):
        # ->* tolerates other courses in between
        target = parse_tree(
            "r[course(db1, 2009)[taughtby(Ada)], course(x9, 2024)[taughtby(Bob)], "
            "course(db2, 2009)[taughtby(Ada)], student(s1)[supervisor(Ada)]]"
        )
        assert is_solution(paper_mapping, SOURCE, target)

    def test_same_course_twice_does_not_trigger(self, paper_mapping):
        # cn1 != cn2 fails, so the std fires no requirement at all
        source = parse_tree(
            "r[prof(Ada)[teach[year(2009)[course(db1), course(db1)]], "
            "supervise[student(s1)]]]"
        )
        empty_target = parse_tree("r")
        assert is_solution(paper_mapping, source, empty_target)

    def test_missing_supervisor_violates(self, paper_mapping):
        target = parse_tree(
            "r[course(db1, 2009)[taughtby(Ada)], course(db2, 2009)[taughtby(Ada)], "
            "student(s1)[supervisor(Bob)]]"
        )
        assert not is_solution(paper_mapping, SOURCE, target)
        failures = violations(paper_mapping, SOURCE, target)
        assert len(failures) == 1

    def test_nonconforming_source_rejected(self, paper_mapping):
        assert not is_solution(paper_mapping, parse_tree("r[prof(Ada)]"),
                               parse_tree("r"))

    def test_nonconforming_target_rejected(self, paper_mapping):
        assert not is_solution(paper_mapping, SOURCE, parse_tree("r[course(a, 1)]"))


class TestSemanticsDetails:
    def test_existential_target_variables(self):
        m = SchemaMapping.parse(
            "r -> a*\na(x)", "t -> b*\nb(u, v)", ["r[a(x)] -> t[b(x, z)]"]
        )
        assert is_solution(m, parse_tree("r[a(1)]"), parse_tree("t[b(1, 99)]"))
        assert not is_solution(m, parse_tree("r[a(1)]"), parse_tree("t[b(2, 1)]"))

    def test_target_conditions(self):
        m = SchemaMapping.parse(
            "r -> a*\na(x)",
            "t -> b*\nb(u, v)",
            ["r[a(x)] -> t[b(x, z)], z != x"],
        )
        assert not is_solution(m, parse_tree("r[a(1)]"), parse_tree("t[b(1, 1)]"))
        assert is_solution(m, parse_tree("r[a(1)]"), parse_tree("t[b(1, 2)]"))

    def test_source_equality_condition(self):
        m = SchemaMapping.parse(
            "r -> a*\na(x)",
            "t -> b*\nb(u)",
            ["r[a(x) -> a(y)], x = y -> t[b(x)]"],
        )
        # adjacent equal values trigger; adjacent distinct do not
        assert not is_solution(m, parse_tree("r[a(1), a(1)]"), parse_tree("t"))
        assert is_solution(m, parse_tree("r[a(1), a(2)]"), parse_tree("t"))
        assert is_solution(m, parse_tree("r[a(1), a(1)]"), parse_tree("t[b(1)]"))

    def test_every_match_must_be_honoured(self):
        m = SchemaMapping.parse(
            "r -> a*\na(x)", "t -> b*\nb(u)", ["r[a(x)] -> t[b(x)]"]
        )
        assert not is_solution(
            m, parse_tree("r[a(1), a(2)]"), parse_tree("t[b(1)]")
        )
        assert is_solution(
            m, parse_tree("r[a(1), a(2)]"), parse_tree("t[b(2), b(1)]")
        )

    def test_empty_std_set_only_requires_conformance(self):
        m = SchemaMapping.parse("r -> a*\na(x)", "t -> b*\nb(u)", [])
        assert is_solution(m, parse_tree("r"), parse_tree("t"))
        assert not is_solution(m, parse_tree("x"), parse_tree("t"))

    def test_skolem_std_rejected_by_plain_membership(self):
        m = SchemaMapping.parse(
            "r -> a*\na(x)", "t -> b*\nb(u)", ["r[a(x)] -> t[b(f(x))]"]
        )
        source, target = parse_tree("r[a(1)]"), parse_tree("t[b(1)]")
        with pytest.raises(XsmError) as plain:
            is_solution(m, source, target)
        with pytest.raises(XsmError) as checker:
            SolutionChecker(m, source)
        assert str(plain.value) == str(checker.value)

    def test_triggered_requirements_dedup(self):
        m = SchemaMapping.parse(
            "r -> a*\na(x)", "t -> b*\nb(u)", ["r[a(x), a(y)] -> t[b(x)]"]
        )
        requirements = triggered_requirements(m, parse_tree("r[a(1), a(2)]"))
        # (x,y) ranges over 4 pairs but only x is exported: 2 distinct
        assert len(requirements) == 2

    def test_wildcard_source(self):
        m = SchemaMapping.parse(
            "r -> a | b\na(x)\nb(x)", "t -> c*\nc(u)", ["r[_(x)] -> t[c(x)]"]
        )
        assert is_solution(m, parse_tree("r[b(3)]"), parse_tree("t[c(3)]"))
        assert not is_solution(m, parse_tree("r[b(3)]"), parse_tree("t[c(4)]"))

    def test_descendant_source(self):
        m = SchemaMapping.parse(
            "r -> m\nm -> a?\na(x)", "t -> c*\nc(u)", ["r//a(x) -> t[c(x)]"]
        )
        assert is_solution(m, parse_tree("r[m[a(5)]]"), parse_tree("t[c(5)]"))
        assert not is_solution(m, parse_tree("r[m[a(5)]]"), parse_tree("t"))
        assert is_solution(m, parse_tree("r[m]"), parse_tree("t"))


class TestSolutionChecker:
    """The fixed-source checker must agree with is_solution everywhere."""

    TARGETS = [
        "r[course(db1, 2009)[taughtby(Ada)], course(db2, 2009)[taughtby(Ada)], "
        "student(s1)[supervisor(Ada)]]",
        "r[course(db2, 2009)[taughtby(Ada)], course(db1, 2009)[taughtby(Ada)], "
        "student(s1)[supervisor(Ada)]]",
        "r[course(db1, 2009)[taughtby(Ada)], course(x9, 2024)[taughtby(Bob)], "
        "course(db2, 2009)[taughtby(Ada)], student(s1)[supervisor(Ada)]]",
        "r[course(db1, 2009)[taughtby(Ada)], course(db2, 2009)[taughtby(Ada)], "
        "student(s1)[supervisor(Bob)]]",
        "r",
    ]

    def test_agrees_with_is_solution(self, paper_mapping):
        checker = SolutionChecker(paper_mapping, SOURCE)
        for text in self.TARGETS:
            target = parse_tree(text)
            assert checker.is_solution_for(target) == is_solution(
                paper_mapping, SOURCE, target
            ), text

    def test_conformance_flag(self, paper_mapping):
        checker = SolutionChecker(paper_mapping, SOURCE)
        nonconforming = parse_tree("r[course(a, 1)]")
        assert not checker.is_solution_for(nonconforming)
        # without the conformance gate only the requirements count
        assert checker.is_solution_for(
            parse_tree("r"), check_conformance=False
        ) is False

    def test_untriggered_source_accepts_empty_target(self, paper_mapping):
        source = parse_tree(
            "r[prof(Ada)[teach[year(2009)[course(db1), course(db1)]], "
            "supervise[student(s1)]]]"
        )
        assert SolutionChecker(paper_mapping, source).is_solution_for(
            parse_tree("r")
        )


# ---------------------------------------------------------------------------
# differential test against the per-obligation reference
# ---------------------------------------------------------------------------

#: Hand-written stds over ``r -> a*`` / ``t -> b*, b -> b*``: target
#: conditions, repeated and existential variables, constants, wildcard,
#: descendant, next-sibling and following-sibling.
DIFFERENTIAL_STDS = [
    ["r[a(x)] -> t[b(x, z)]"],
    ["r[a(x)] -> t[b(x, z)], z = x"],
    ["r[a(x)] -> t[b(x, z)], z != x"],
    ["r[a(x)] -> t[b(z, w)], z = x, w != z"],
    ["r[a(x), a(y)] -> t[b(x, y)], x != y"],
    ["r[a(x)] -> t[b(x, x)]"],
    ["r[a(x)] -> t[b(x, z), b(z, x)]"],
    ["r[a(x)] -> t[b(x, 1)]"],
    ["r[a(x)] -> t[_(z, x)]"],
    ["r[a(x)] -> t//b(x, z)"],
    ["r[a(x)] -> t[b(z, w)[b(x, z)]]"],
    ["r[a(x) -> a(y)] -> t[b(x, z) -> b(y, z)]"],
    ["r[a(x) ->* a(y)], x != y -> t[b(x, y) ->* b(y, x)]"],
    ["r[a(x)] -> t[b(x, z)]", "r[a(x), a(y)] -> t[b(x, y)]"],
    ["r -> t[b(z, z)]", "r[a(x)] -> t//b(z, x), z != x"],
]

SOURCE_DTD = "r -> a*\na(x)"
TARGET_DTD = "t -> b*\nb(u, v) -> b*"


def _check_against_reference(mapping, source, target):
    """Every membership entry point agrees with ``oracle_is_solution``."""
    member, failures = oracle_is_solution(mapping, source, target)
    verdict = is_solution(mapping, source, target)
    assert verdict.is_proved == member, (source, target)
    checker = SolutionChecker(mapping, source)
    assert checker.is_solution_for(target) == member
    requirements_met = not failures
    assert checker.is_solution_for(target, check_conformance=False) == requirements_met
    unchecked = is_solution(mapping, source, target, check_conformance=False)
    assert unchecked.is_proved == requirements_met
    if not requirements_met:
        witness = unchecked.certificate
        assert isinstance(witness, ViolationWitness)
        assert witness.std_index == failures[0][0]
        shared = set(mapping.stds[witness.std_index].shared_variables())
        assert witness.valuation in {
            witness_valuation({v: x for v, x in valuation.items() if v in shared})
            for index, valuation in failures
            if index == witness.std_index
        }
        assert certify(unchecked, MembershipProblem(mapping, source, target))
    index_of = {id(std): index for index, std in enumerate(mapping.stds)}
    assert {
        (index_of[id(std)], frozenset(valuation.items()))
        for std, valuation in violations(mapping, source, target)
    } == {(index, frozenset(valuation.items())) for index, valuation in failures}


@pytest.mark.parametrize(
    "stds", DIFFERENTIAL_STDS, ids=[" ; ".join(s) for s in DIFFERENTIAL_STDS]
)
def test_membership_agrees_with_reference_on_small_trees(stds):
    mapping = SchemaMapping.parse(SOURCE_DTD, TARGET_DTD, stds)
    sources = list(enumerate_trees(mapping.source_dtd, 3, (0, 1)))
    targets = list(enumerate_trees(mapping.target_dtd, 4, (0, 1)))
    rng = random.Random(" ; ".join(stds))
    for source in sources:
        for target in rng.sample(targets, 24):
            _check_against_reference(mapping, source, target)


@pytest.mark.parametrize("seed", range(12))
def test_membership_agrees_with_reference_on_random_mappings(seed):
    rng = random.Random(9100 + seed)
    if seed % 2 == 0:
        mapping = random_fully_specified_mapping(rng, n_stds=2)
    else:
        mapping = random_structural_mapping(rng)
    sources = list(itertools.islice(enumerate_trees(mapping.source_dtd, 4, (0, 1)), 12))
    sources += [random_tree_from_dtd(mapping.source_dtd, rng, max_nodes=8) for __ in range(3)]
    targets = list(itertools.islice(enumerate_trees(mapping.target_dtd, 4, (0, 1)), 30))
    targets += [
        random_tree_from_dtd(mapping.target_dtd, rng, (0, 1, 2), max_nodes=8)
        for __ in range(6)
    ]
    for source in sources:
        for target in targets:
            _check_against_reference(mapping, source, target)


class TestViolationWitness:
    MAPPING = ("r -> a*\na(x)", "t -> b*\nb(u)", ["r[a(x)] -> t[b(x)]"])

    def _certify(self, valuation):
        mapping = SchemaMapping.parse(*self.MAPPING)
        problem = MembershipProblem(
            mapping, parse_tree("r[a(1), a(2)]"), parse_tree("t[b(1)]")
        )
        return certify(Refuted(ViolationWitness(0, valuation)), problem)

    def test_unmet_export_certifies(self):
        assert self._certify((("x", 2),))

    def test_met_export_is_rejected(self):
        with pytest.raises(CertificationError):
            self._certify((("x", 1),))

    def test_non_exported_valuation_is_rejected(self):
        with pytest.raises(CertificationError):
            self._certify((("x", 7),))

    def test_witness_is_independent_of_hash_seed(self):
        script = (
            "from repro.mappings.membership import is_solution\n"
            "from repro.workloads.university import *\n"
            "from repro.xmlmodel.tree import TreeNode\n"
            "source = university_source_document(12, 5, seed=7)\n"
            "target = university_target_document(source)\n"
            "target = TreeNode('r', (), target.children[1:])\n"
            "verdict = is_solution(university_mapping(False), source, target)\n"
            "print(repr(verdict.certificate))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = set()
        for seed in ("0", "1", "5"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            result = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1, outputs
        assert "ViolationWitness(std_index=0" in outputs.pop()
