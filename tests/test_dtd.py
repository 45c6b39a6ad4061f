"""Tests for DTDs: parsing, conformance, classification, minimal trees."""

import pytest

from repro.errors import ConformanceError, NotInClassError, ParseError, XsmError
from repro.xmlmodel import DTD, parse_dtd, parse_tree
from repro.regex.ast import EPSILON


D1_TEXT = """
r -> prof*
prof(name) -> teach, supervise
teach -> year
year(y) -> course, course
supervise -> student*
course(cn)
student(sid)
"""

D2_TEXT = """
r -> course*, student*
course(cn, y) -> taughtby
student(sid) -> supervisor
taughtby(name)
supervisor(name)
"""


@pytest.fixture
def d1() -> DTD:
    return parse_dtd(D1_TEXT)


@pytest.fixture
def d2() -> DTD:
    return parse_dtd(D2_TEXT)


class TestParseDtd:
    def test_root_is_first_label(self, d1):
        assert d1.root == "r"

    def test_labels(self, d1):
        assert d1.labels == frozenset(
            {"r", "prof", "teach", "year", "supervise", "course", "student"}
        )

    def test_attributes(self, d1):
        assert d1.attributes["prof"] == ("name",)
        assert d1.attributes["teach"] == ()
        assert d1.arity("year") == 1

    def test_leaf_declaration_gets_epsilon(self, d1):
        assert d1.productions["course"] == EPSILON

    def test_undeclared_label_gets_epsilon(self):
        dtd = parse_dtd("r -> a, b")
        assert dtd.productions["a"] == EPSILON
        assert dtd.productions["b"] == EPSILON

    def test_comments_and_semicolons(self):
        dtd = parse_dtd("r -> a*  # root\n; a(x)")
        assert dtd.arity("a") == 1

    def test_explicit_root(self):
        dtd = parse_dtd("a -> b\nq -> a*", root="q")
        assert dtd.root == "q"

    def test_duplicate_production_rejected(self):
        with pytest.raises(ParseError):
            parse_dtd("r -> a\nr -> b")

    def test_empty_text_rejected(self):
        with pytest.raises(ParseError):
            parse_dtd("   \n  # nothing\n")

    def test_root_in_production_rejected(self):
        with pytest.raises(XsmError):
            DTD("r", {"r": "a, r"})

    def test_attributes_for_unknown_label_rejected(self):
        with pytest.raises(XsmError):
            DTD("r", {"r": "a"}, {"zzz": ("x",)})


class TestConformance:
    def test_paper_d1_document(self, d1):
        t = parse_tree(
            'r[prof(Ada)[teach[year(2009)[course(db1), course(db2)]],'
            ' supervise[student(s1), student(s2)]]]'
        )
        assert d1.conforms(t)

    def test_empty_prof_list(self, d1):
        assert d1.conforms(parse_tree("r"))

    def test_wrong_root(self, d1):
        assert not d1.conforms(parse_tree("prof(Ada)"))

    def test_wrong_child_word(self, d1):
        t = parse_tree("r[prof(Ada)[teach[year(2009)[course(db1)]], supervise]]")
        assert not d1.conforms(t)

    def test_wrong_arity_raises_with_message(self, d1):
        t = parse_tree("r[prof[teach[year(1)[course(a), course(b)]], supervise]]")
        with pytest.raises(ConformanceError, match="attribute"):
            d1.check_conformance(t)

    def test_unknown_label(self, d1):
        with pytest.raises(ConformanceError):
            d1.check_conformance(parse_tree("r[ghost]"))

    def test_d2_document(self, d2):
        t = parse_tree(
            "r[course(db1, 2009)[taughtby(Ada)], student(s1)[supervisor(Ada)]]"
        )
        assert d2.conforms(t)


class TestClassification:
    def test_d1_not_nested_relational(self, d1):
        # the paper's D1 repeats "course" in year -> course, course
        assert not d1.is_nested_relational()

    def test_d2_is_nested_relational(self, d2):
        assert d2.is_nested_relational()

    def test_nested_relational_example(self):
        dtd = parse_dtd("r -> a*, b?\na(x) -> c+\nb(y)\nc")
        assert dtd.is_nested_relational()

    def test_disjunction_not_nested_relational(self):
        assert not parse_dtd("r -> a | b").is_nested_relational()

    def test_repeated_child_not_nested_relational(self):
        assert not parse_dtd("r -> course, course").is_nested_relational()

    def test_recursive_not_nested_relational(self):
        dtd = parse_dtd("r -> a\na -> b?\nb -> a?")
        assert dtd.is_recursive()
        assert not dtd.is_nested_relational()

    def test_non_recursive(self, d1):
        assert not d1.is_recursive()

    def test_nested_relational_children(self, d1):
        assert d1.nested_relational_children("r") == [("prof", "*")]
        assert d1.nested_relational_children("prof") == [("teach", "1"), ("supervise", "1")]
        assert d1.nested_relational_children("course") == []
        with pytest.raises(NotInClassError):
            d1.nested_relational_children("year")  # course repeated

    def test_nested_relational_children_rejects(self):
        dtd = parse_dtd("r -> (a, b)*")
        with pytest.raises(NotInClassError):
            dtd.nested_relational_children("r")

    def test_starred_labels(self, d1):
        assert d1.starred_labels() == frozenset({"prof", "student"})

    def test_starred_under_plus_and_nested(self):
        dtd = parse_dtd("r -> a+, (b, c*)?")
        assert dtd.starred_labels() == frozenset({"a", "c"})

    def test_strictly_nested_relational(self):
        # attributes only on starred labels
        strict = parse_dtd("r -> a*\na(x) -> b*\nb(y)")
        assert strict.is_strictly_nested_relational()
        # attribute on the (unstarred) root's non-starred child
        loose = parse_dtd("r -> a\na(x)")
        assert loose.is_nested_relational()
        assert not loose.is_strictly_nested_relational()


class TestSatisfiabilityAndMinimalTrees:
    def test_satisfiable(self, d1):
        assert d1.is_satisfiable()

    def test_unsatisfiable_recursive(self):
        # every a requires another a below: no finite tree
        dtd = parse_dtd("r -> a\na -> a")
        assert not dtd.is_satisfiable()
        with pytest.raises(XsmError):
            dtd.minimal_tree()

    def test_recursive_but_satisfiable(self):
        dtd = parse_dtd("r -> a\na -> a?")
        assert dtd.is_satisfiable()
        t = dtd.minimal_tree()
        assert t.size == 2

    def test_minimal_tree_conforms(self, d1, d2):
        for dtd in (d1, d2):
            t = dtd.minimal_tree()
            assert dtd.conforms(t)

    def test_minimal_tree_is_minimal_for_d1(self, d1):
        # r alone: prof* allows zero professors
        assert d1.minimal_tree().size == 1

    def test_minimal_tree_with_required_children(self):
        dtd = parse_dtd("r -> a+, b\na -> c")
        t = dtd.minimal_tree()
        assert t.size == 4  # r, a, c, b
        assert dtd.conforms(t)

    def test_minimal_tree_prefers_cheap_branch(self):
        # branch a costs 2 nodes, branch b costs 1
        dtd = parse_dtd("r -> a | b\na -> c")
        assert dtd.minimal_tree().size == 2

    def test_value_factory(self):
        dtd = parse_dtd("r -> a\na(x, y)")
        t = dtd.minimal_tree(lambda label, attr: f"{label}.{attr}")
        assert t.children[0].attrs == ("a.x", "a.y")

    def test_default_values_all_equal(self, d2):
        dtd = parse_dtd("r -> course\ncourse(cn, y)")
        t = dtd.minimal_tree()
        assert set(t.adom()) <= {0}

    def test_label_costs(self, d1):
        costs = d1.label_costs()
        assert costs["course"] == 1
        assert costs["year"] == 3
        assert costs["teach"] == 4
        assert costs["prof"] == 6  # prof + teach subtree (4) + supervise (1)
        assert costs["r"] == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_label_costs_match_round_based_fixpoint(self, seed):
        """The worklist fixpoint equals re-running every label until stable."""
        import random

        from repro.workloads.random_instances import (
            random_arbitrary_dtd,
            random_production,
        )

        def round_based(dtd):
            costs = {label: float("inf") for label in dtd.productions}
            changed = True
            while changed:
                changed = False
                for label in dtd.productions:
                    word = dtd._cheapest_word(label, costs)
                    if word is None:
                        continue
                    cost = 1 + sum(costs[symbol] for symbol in word)
                    if cost < costs[label]:
                        costs[label] = cost
                        changed = True
            return costs

        rng = random.Random(2600 + seed)
        for __ in range(100):
            if rng.random() < 0.5:
                dtd = random_arbitrary_dtd(rng, n_labels=rng.randint(2, 8))
            else:  # productions may loop back: recursive, maybe unsatisfiable
                labels = ["r"] + [f"n{i}" for i in range(1, rng.randint(2, 8))]
                dtd = DTD(
                    "r", {l: random_production(rng, labels[1:]) for l in labels}
                )
            assert dtd.label_costs() == round_based(dtd), dtd


class TestSharedProductions:
    """Labels with equal productions share one compiled NFA and DFA."""

    TEXT = "r -> a, b, c\na -> d?\nb -> d?\nc\nd"
    TREES = [
        "r[a, b, c]", "r[a[d], b, c]", "r[a[d], b[d], c]", "r[a, b]",
        "r[b, a, c]", "r[a[c], b, c]", "r[a, b, c[d]]", "r[a[d, d], b, c]",
    ]

    def test_one_nfa_and_dfa_per_distinct_production(self):
        from repro.automata.bitset import BitsetDTDAutomaton

        dtd = parse_dtd(self.TEXT)
        assert dtd.productions["a"] is dtd.productions["b"]
        assert dtd.production_nfa("a") is dtd.production_nfa("b")
        assert dtd.production_nfa("c") is dtd.production_nfa("d")
        assert dtd.production_nfa("r") is not dtd.production_nfa("c")
        dfas = BitsetDTDAutomaton(dtd)._dfas
        assert dfas["a"] is dfas["b"] and dfas["c"] is dfas["d"]
        assert len({id(dfa) for dfa in dfas.values()}) == 3

    def test_shared_build_equals_the_per_label_build(self):
        from repro.automata.bitset import BitsetDTDAutomaton
        from repro.automata.duta import run
        from repro.regex.nfa import NFA

        shared = parse_dtd(self.TEXT)
        per_label = parse_dtd(self.TEXT)
        per_label._label_nfas.update({
            label: NFA.from_regex(production)
            for label, production in per_label.productions.items()
        })
        assert per_label.production_nfa("a") is not per_label.production_nfa("b")
        assert shared.label_costs() == per_label.label_costs()
        assert shared.minimal_tree() == per_label.minimal_tree()
        automaton = BitsetDTDAutomaton(shared)
        verdicts = []
        for text in self.TREES:
            tree = parse_tree(text)
            verdicts.append(shared.conforms(tree))
            assert verdicts[-1] == per_label.conforms(tree), text
            assert automaton.is_accepting(run(automaton, tree)) == verdicts[-1]
        assert verdicts == [True, True, True] + [False] * 5


class TestProductionHashes:
    """Regex nodes keep their hash, but never across processes."""

    TEXT = "r -> (a | b)*, c?\na -> b+\nb\nc -> (a, b)?"

    def test_hash_is_kept_and_structural(self):
        import pickle

        from repro.regex.ast import Concat, Optional, Star, Symbol, Union

        production = Concat((
            Star(Union((Symbol("a"), Symbol("b")))), Optional(Symbol("c")),
        ))
        assert production._hash is None
        assert hash(production) == hash(parse_dtd(self.TEXT).productions["r"])
        assert production._hash is not None
        assert hash(Star(Symbol("a"))) != hash(Optional(Symbol("a")))
        copy = pickle.loads(pickle.dumps(production))
        assert copy == production and copy._hash is None

    def test_disk_cached_dtd_probes_in_another_process(self, tmp_path):
        # string hashes differ between processes: a DTD pickled by one
        # hash seed must probe by structure under another
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        script = (
            "import sys\n"
            "from repro.engine.cache import CompilationCache, dtd_automaton\n"
            "from repro.engine.budget import ExecutionContext\n"
            "from repro.engine.diskcache import DiskCacheTier\n"
            "from repro.regex.parser import parse_regex\n"
            "from repro.xmlmodel import parse_dtd, parse_tree\n"
            "from repro.automata.duta import run\n"
            f"text = {self.TEXT!r}\n"
            "cache = CompilationCache(disk=DiskCacheTier(sys.argv[1]))\n"
            "automaton = dtd_automaton(parse_dtd(text), ExecutionContext(cache=cache))\n"
            "if sys.argv[2] == 'load':\n"
            "    assert cache.stats()['disk_hits'] == 1, cache.stats()\n"
            "    dtd = automaton.dtd\n"
            "    fresh = parse_dtd(text)\n"
            "    for label, production in fresh.productions.items():\n"
            "        assert hash(dtd.productions[label]) == hash(production)\n"
            "        assert {production: label}[dtd.productions[label]] == label\n"
            "    assert dtd.production_nfa('a') is not None\n"
            "    for tree, ok in (('r[a[b], b, c[a[b], b]]', True), ('r[c, a]', False)):\n"
            "        tree = parse_tree(tree)\n"
            "        assert automaton.is_accepting(run(automaton, tree)) is ok\n"
            "        assert dtd.conforms(tree) is ok\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        for seed, step in (("1", "store"), ("2", "load")):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            env.pop("REPRO_CACHE_DIR", None)
            completed = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path), step],
                env=env, capture_output=True, text=True,
            )
            assert completed.returncode == 0, completed.stderr
