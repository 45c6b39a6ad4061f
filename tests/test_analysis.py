"""Tests for the mapping linter (repro.analysis).

Every catalogue code gets at least one positive trigger (a mapping that
emits it) and one negative (a mapping that must not).  The clean fixture
mapping — fully specified, strictly nested-relational, equality-free —
doubles as the negative case for every defect code, and the defect
mappings double as negatives for SM304.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    CATALOG,
    Diagnostic,
    LintReport,
    Severity,
    SourceLocation,
    lint_mapping,
    merge_reports,
)
from repro.analysis.diagnostics import FAMILIES, family_of
from repro.cli import main
from repro.engine import ConsistencyProblem, solve
from repro.mappings.mapping import SchemaMapping
from repro.mappings.skolem import SkolemMapping


def mk(stds, source="r -> a*\na(x)", target="t -> b*\nb(u)"):
    return SchemaMapping.parse(source, target, stds)


def clean():
    """Fully specified, strictly nested-relational, equality-free."""
    return mk(["r[a(x)] -> t[b(x)]"])


def codes(mapping, **kwargs):
    return lint_mapping(mapping, **kwargs).codes()


CLEAN_CODES = codes(clean())


# ---------------------------------------------------------------------------
# the diagnostic model
# ---------------------------------------------------------------------------


class TestDiagnosticModel:
    def test_render_format(self):
        diagnostic = Diagnostic(
            "SM201", Severity.ERROR, "label 'z' unknown",
            SourceLocation(0, "source", "r/z"),
        )
        assert diagnostic.render() == (
            "error SM201 [std 0, source, at r/z]: label 'z' unknown"
        )

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="SM999"):
            Diagnostic("SM999", Severity.INFO, "nope")

    def test_title_comes_from_catalog(self):
        assert Diagnostic("SM204", Severity.ERROR, "m").title == "dead-std"

    def test_data_lookup(self):
        diagnostic = Diagnostic(
            "SM001", Severity.INFO, "m", data=(("fragment", "SM(↓)"),)
        )
        assert diagnostic.get("fragment") == "SM(↓)"
        assert diagnostic.get("missing", 42) == 42

    def test_location_rendering(self):
        assert str(SourceLocation()) == "mapping"
        assert str(SourceLocation(2)) == "std 2"
        assert str(SourceLocation(0, "source")) == "std 0, source"
        assert str(SourceLocation(1, "target", "t/b")) == "std 1, target, at t/b"

    def test_every_code_has_a_family(self):
        assert all(family_of(code) in FAMILIES for code in CATALOG)

    def test_to_dict_is_jsonable(self):
        diagnostic = Diagnostic(
            "SM202", Severity.ERROR, "m",
            data=(("labels", frozenset({"b", "a"})), ("arity", 2)),
        )
        payload = json.loads(json.dumps(diagnostic.to_dict()))
        assert payload["severity"] == "error"
        assert payload["data"]["labels"] == ["a", "b"]
        assert payload["data"]["arity"] == 2


class TestLintReport:
    def test_selection_helpers(self):
        report = lint_mapping(mk(["r[zz] -> t[b(x)]"]))
        assert report.by_code("SM201")
        assert all(d.code == "SM201" for d in report.by_code("SM201"))
        assert report.by_family("SM2")
        assert not report.by_family("SMX")
        assert report.max_severity() is Severity.ERROR
        counts = report.counts()
        assert counts["error"] == len(report.errors) >= 1
        assert sum(counts.values()) == len(report)

    def test_codes_is_a_sorted_multiset(self):
        report = lint_mapping(clean())
        assert list(report.codes()) == sorted(report.codes())
        assert len(report.codes()) == len(report)

    def test_exit_codes(self):
        clean_report = LintReport()
        assert clean_report.exit_code() == 0
        assert clean_report.exit_code(strict=True) == 0
        warning = LintReport(diagnostics=(
            Diagnostic("SM301", Severity.WARNING, "m"),
        ))
        assert warning.exit_code() == 0
        assert warning.exit_code(strict=True) == 2
        error = LintReport(diagnostics=(
            Diagnostic("SM201", Severity.ERROR, "m"),
            Diagnostic("SM301", Severity.WARNING, "m"),
        ))
        assert error.exit_code() == 1
        assert error.exit_code(strict=True) == 1

    def test_render_text_filters_by_severity(self):
        report = lint_mapping(mk(["r//a(x) -> t[b(x)]"]), name="demo")
        text = report.render_text()
        assert text.startswith("fragment: SM(⇓)")
        assert "SM001" in text and "SM301" in text
        quiet = report.render_text(min_severity=Severity.WARNING)
        assert "SM001" not in quiet and "SM301" in quiet
        assert quiet.endswith("info(s)")  # the summary line survives

    def test_to_json_round_trips(self):
        report = lint_mapping(clean(), name="clean")
        payload = json.loads(report.to_json())
        assert payload["name"] == "clean"
        assert payload["counts"]["error"] == 0
        assert {d["code"] for d in payload["diagnostics"]} == set(CLEAN_CODES)

    def test_merge_reports_takes_the_worst(self):
        merged = merge_reports([
            lint_mapping(clean()),
            lint_mapping(mk(["r[zz] -> t[b(x)]"])),
        ])
        assert merged["version"] == 2
        assert merged["max_severity"] == "error"
        assert len(merged["reports"]) == 2
        assert merge_reports([])["max_severity"] is None


class TestLintMappingApi:
    def test_runs_every_pass_in_order(self):
        report = lint_mapping(clean())
        assert report.passes == (
            "fragment", "dtd", "hygiene", "composition", "redundancy"
        )
        assert report.elapsed >= 0.0
        assert report.fragment == "SM(↓)"

    def test_only_selects_a_subset(self):
        report = lint_mapping(clean(), only=["dtd"])
        assert report.passes == ("dtd",)
        assert set(report.codes()) == {"SM101", "SM102"}

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            lint_mapping(clean(), only=["bogus"])


# ---------------------------------------------------------------------------
# SM0xx: fragment classification and cell prediction
# ---------------------------------------------------------------------------


def inequality_mapping():
    return mk(["r[a(x), a(y)], x != y -> t[b(x)]"])


class TestFragmentPass:
    def test_sm001_names_the_fragment(self):
        (diagnostic,) = lint_mapping(clean()).by_code("SM001")
        assert diagnostic.get("fragment") == "SM(↓)"
        (diagnostic,) = lint_mapping(inequality_mapping()).by_code("SM001")
        assert diagnostic.get("fragment") == "SM(↓, ≠)"
        assert "SM001" not in codes(clean(), only=["dtd"])

    def test_sm002_predicts_the_cons_cell(self):
        (cell,) = lint_mapping(clean()).by_code("SM002")
        assert cell.get("algorithm") == "cons-nested"
        assert cell.get("exact") is True
        (cell,) = lint_mapping(inequality_mapping()).by_code("SM002")
        assert cell.get("algorithm") == "cons-bounded"
        assert cell.get("exact") is False
        assert "SM002" not in codes(clean(), only=["composition"])

    def test_sm003_predicts_the_abscons_cell(self):
        (cell,) = lint_mapping(clean()).by_code("SM003")
        assert cell.get("algorithm") == "abscons-ptime"
        assert "SM003" not in codes(clean(), only=["hygiene"])

    def test_sm004_predicts_the_membership_cell(self):
        (cell,) = lint_mapping(clean()).by_code("SM004")
        assert cell.get("algorithm") == "membership"
        skolem = SkolemMapping.parse(
            "r -> a*\na(x)", "t -> b*\nb(u)", ["r[a(x)] -> t[b(f(x))]"]
        )
        (cell,) = lint_mapping(skolem).by_code("SM004")
        assert cell.get("algorithm") == "membership-skolem"
        assert "SM004" not in codes(clean(), only=["dtd"])

    def test_sm005_predicts_the_composition_cell(self):
        (cell,) = lint_mapping(clean()).by_code("SM005")
        assert cell.get("algorithm") == "conscomp-automata"
        assert cell.get("composable") is True
        (cell,) = lint_mapping(inequality_mapping()).by_code("SM005")
        assert cell.get("algorithm") == "conscomp-bounded"
        assert cell.get("composable") is False
        assert "SM005" not in codes(clean(), only=["hygiene"])

    def test_sm010_warns_on_undecidable_cons(self):
        assert "SM010" in codes(inequality_mapping())
        assert "SM010" not in CLEAN_CODES

    def test_sm010_names_the_cell_of_the_dtds(self):
        # nested-relational DTDs on both sides, child-only stds: the
        # decidable NEXPTIME cell of Theorem 5.5, still a warning since
        # only the bounded search answers it
        from repro.workloads.families import distinct_values_family

        nested = lint_mapping(distinct_values_family(2, consistent=False))
        (warning,) = nested.by_code("SM010")
        assert warning.severity is Severity.WARNING
        assert "Theorem 5.5" in warning.message
        assert "undecidable" not in warning.message
        (cell,) = nested.by_code("SM002")
        assert cell.get("exact") is False
        assert cell.get("complexity") == "NEXPTIME-complete (Theorem 5.5)"
        # the same comparison over a DTD that is not nested-relational
        arbitrary = mk(
            ["r[a(x), a(y)], x != y -> t[b(x)]"], source="r -> (a | c)*\na(x)"
        )
        (warning,) = lint_mapping(arbitrary).by_code("SM010")
        assert warning.severity is Severity.WARNING
        assert "undecidable" in warning.message
        assert "Theorem 5.5" not in warning.message

    def test_sm011_warns_on_inexact_abscons(self):
        # a wildcard target defeats every exact ABSCONS route while CONS
        # stays decidable — SM011 without SM010
        wildcard_target = mk(["r[a(x)] -> t[_(x)]"])
        found = codes(wildcard_target)
        assert "SM011" in found and "SM010" not in found
        assert "SM011" not in CLEAN_CODES

    def test_sm012_warns_on_inexact_composition(self):
        assert "SM012" in codes(inequality_mapping())
        assert "SM012" not in CLEAN_CODES


# ---------------------------------------------------------------------------
# SM1xx: DTD classification
# ---------------------------------------------------------------------------


class TestDtdPass:
    def test_sm101_sm102_classify_both_sides(self):
        report = lint_mapping(clean())
        (source,) = report.by_code("SM101")
        (target,) = report.by_code("SM102")
        assert source.get("strictly_nested_relational") is True
        assert source.get("recursive") is False
        assert "strictly nested-relational" in source.message
        assert target.location.side == "target"
        recursive = mk(["r[a(x)] -> t[b(x)]"], source="r -> a*\na(x) -> a?")
        (source,) = lint_mapping(recursive).by_code("SM101")
        assert source.get("recursive") is True
        assert "SM101" not in codes(clean(), only=["fragment"])
        assert "SM102" not in codes(clean(), only=["fragment"])

    def test_sm110_unsatisfiable_source_dtd(self):
        # 'a' requires an 'a' child forever: no finite tree conforms
        broken = mk(["r[a] -> t[b(x)]"], source="r -> a\na -> a")
        report = lint_mapping(broken)
        (diagnostic,) = report.by_code("SM110")
        assert diagnostic.severity is Severity.ERROR
        assert diagnostic.location.side == "source"
        assert "SM110" not in CLEAN_CODES

    def test_sm111_unsatisfiable_target_dtd(self):
        broken = mk(["r[a(x)] -> t[b]"], target="t -> b\nb -> b")
        assert "SM111" in codes(broken)
        assert "SM111" not in CLEAN_CODES


# ---------------------------------------------------------------------------
# SM2xx: pattern hygiene
# ---------------------------------------------------------------------------


class TestHygienePass:
    def test_sm201_unknown_label(self):
        report = lint_mapping(mk(["r[zz] -> t[b(x)]"]))
        (diagnostic,) = report.by_code("SM201")
        assert diagnostic.get("label") == "zz"
        assert diagnostic.location == SourceLocation(0, "source", "r/zz")
        # a structural error suppresses the redundant dead-std check
        assert not report.by_code("SM204")
        assert "SM201" not in CLEAN_CODES

    def test_sm202_arity_mismatch(self):
        (diagnostic,) = lint_mapping(mk(["r[a(x, y)] -> t[b(x)]"])).by_code("SM202")
        assert diagnostic.get("pattern_arity") == 2
        assert diagnostic.get("dtd_arity") == 1
        assert "SM202" not in CLEAN_CODES

    def test_sm202_wildcard_with_impossible_arity(self):
        # no source label carries two attributes, so _(x, y) cannot match
        assert "SM202" in codes(mk(["r[_(x, y)] -> t[b(x)]"]))
        # arity 1 exists (label a): the wildcard is fine
        assert "SM202" not in codes(mk(["r[_(x)] -> t[b(x)]"]))

    def test_sm203_root_conflict(self):
        (diagnostic,) = lint_mapping(mk(["a[a(x)] -> t[b(x)]"])).by_code("SM203")
        assert diagnostic.get("root") == "r"
        # a wildcard root can match the real root: no conflict
        assert "SM203" not in codes(mk(["_[a(x)] -> t[b(x)]"]))
        assert "SM203" not in CLEAN_CODES

    def test_sm204_dead_std(self):
        # 'b' is in the alphabet but never below 'r': the std cannot fire
        dead = mk(["r[b] -> t[b(x)]"], source="r -> a?\nb -> a?")
        (diagnostic,) = lint_mapping(dead).by_code("SM204")
        assert diagnostic.severity is Severity.ERROR
        assert diagnostic.location.side == "source"
        assert "SM204" not in CLEAN_CODES

    def test_sm204_not_fooled_by_required_siblings(self):
        # the identity embedding r[b] does not conform (an 'a' sibling is
        # required) but its completion r[a, b] does
        alive = mk(["r[b] -> t[b(y)]"], source="r -> a, b\na(x)")
        assert "SM204" not in codes(alive)

    def test_next_connector_completion_defers_to_the_exact_check(self):
        from repro.analysis.passes import _WitnessProbe
        from repro.patterns.parser import parse_pattern

        # the cheapest completion of r[a, b] is r[a, c, b]: it conforms
        # but separates a from b, so the probe cannot certify r[a -> b]
        source = "r -> (a, c, b) | (a, b, d, d)\na(x)"
        alive = mk(["r[a(x) -> b] -> t[b(x)]"], source=source)
        probe = _WitnessProbe(alive.source_dtd)
        assert not probe.certify(alive.stds[0].source)
        # ... and the exact check finds r[a, b, d, d]
        assert "SM204" not in codes(alive)
        # with the second branch gone the std really is dead
        dead = mk(["r[a(x) -> b] -> t[b(x)]"], source="r -> a, c, b\na(x)")
        assert "SM204" in codes(dead)
        # without the connector the completion needs no re-check
        assert probe.certify(parse_pattern("r[a(x), b]"))

    def test_sm205_unsafe_std(self):
        unsafe = mk(["r[a(x)] -> t[d]"], target="t -> c?\nd -> c?")
        (diagnostic,) = lint_mapping(unsafe).by_code("SM205")
        assert diagnostic.location.side == "target"
        assert "SM205" not in CLEAN_CODES

    def test_sm206_unused_source_variable(self):
        (diagnostic,) = lint_mapping(mk(["r[a(x)] -> t[b(1)]"])).by_code("SM206")
        assert diagnostic.get("variables") == ("x",)
        assert diagnostic.severity is Severity.WARNING
        # used in a comparison is used enough
        assert "SM206" not in codes(mk(["r[a(x)], x = 1 -> t[b(1)]"]))
        assert "SM206" not in CLEAN_CODES

    def test_sm207_unbound_source_comparison(self):
        (diagnostic,) = lint_mapping(
            mk(["r[a(x)], y = x -> t[b(x)]"])
        ).by_code("SM207")
        assert diagnostic.get("variables") == ("y",)
        assert "SM207" not in codes(mk(["r[a(x), a(y)], x = y -> t[b(x)]"]))

    def test_sm208_unbound_target_comparison(self):
        (diagnostic,) = lint_mapping(
            mk(["r[a(x)] -> t[b(x)], x = w"])
        ).by_code("SM208")
        assert diagnostic.get("variables") == ("w",)
        # target conditions may mention source-bound variables
        assert "SM208" not in codes(mk(["r[a(x)] -> t[b(z)], z = x"]))

    def test_sm209_existential_target_variables(self):
        (diagnostic,) = lint_mapping(mk(["r[a(x)] -> t[b(z)]"])).by_code("SM209")
        assert diagnostic.get("variables") == ("z",)
        assert diagnostic.severity is Severity.INFO
        assert "SM209" not in CLEAN_CODES

    def test_sm210_statically_false_comparison(self):
        # x != x fails under every assignment
        assert "SM210" in codes(mk(["r[a(x)], x != x -> t[b(x)]"]))
        # constant comparisons are decided outright
        assert "SM210" in codes(mk(["r[a(x)] -> t[b(x)], 1 = 2"]))
        assert "SM210" not in codes(mk(["r[a(x)], x = x -> t[b(x)]"]))
        assert "SM210" not in codes(mk(["r[a(x)] -> t[b(x)], 1 = 1"]))


# ---------------------------------------------------------------------------
# SM3xx: composition closure
# ---------------------------------------------------------------------------


def _dead_and_unsafe_mappings():
    from repro.mappings.io import parse_mapping
    from repro.workloads import families

    root = Path(__file__).resolve().parent.parent
    params = [
        pytest.param(parse_mapping(path.read_text()), id=path.stem)
        for path in sorted((root / "examples" / "mappings").glob("*.xsm"))
    ]
    for family, sizes in (
        (families.cons_arbitrary_family, (1, 3, 5)),
        (families.cons_nested_family, (1, 4, 16)),
        (families.cons_next_sibling_family, (2, 4, 8)),
    ):
        for n in sizes:
            for consistent in (True, False):
                params.append(pytest.param(
                    family(n, consistent=consistent),
                    id=f"{family.__name__}-{n}-{consistent}",
                ))
    return params


@pytest.mark.parametrize("mapping", _dead_and_unsafe_mappings())
def test_witness_probe_never_changes_sm204_sm205(mapping):
    """The probe only short-cuts: the exact check alone gives the same codes."""
    from repro.analysis import passes

    class ExactOnly:
        def certify(self, pattern):
            return False

    exact = {"source": ExactOnly(), "target": ExactOnly()}
    probes = {
        "source": passes._WitnessProbe(mapping.source_dtd),
        "target": passes._WitnessProbe(mapping.target_dtd),
    }
    for index, std in enumerate(mapping.stds):
        expected = passes._dead_and_unsafe(index, std, mapping, set(), None, exact)
        found = passes._dead_and_unsafe(index, std, mapping, set(), None, probes)
        assert found == expected


class TestCompositionPass:
    def test_sm301_closure_breaking_std(self):
        (diagnostic,) = lint_mapping(mk(["r//a(x) -> t[b(x)]"])).by_code("SM301")
        assert diagnostic.get("features") == ("descendant",)
        assert diagnostic.location.side == "source"
        assert "SM301" not in CLEAN_CODES

    def test_sm302_closure_breaking_dtd(self):
        # attributes on a non-starred type: nested- but not strictly so
        relaxed = mk(["r[a(x)] -> t[b(x)]"], source="r -> a\na(x)")
        (diagnostic,) = lint_mapping(relaxed).by_code("SM302")
        assert "attributes on non-starred" in diagnostic.message
        # disjunction: outside the nested-relational shape entirely
        disjunctive = mk(["r[a] -> t[b(x)]"], source="r -> a | b")
        (diagnostic,) = lint_mapping(disjunctive).by_code("SM302")
        assert "outside the nested-relational shape" in diagnostic.message
        assert "SM302" not in CLEAN_CODES

    def test_sm303_closure_breaking_inequality(self):
        assert "SM303" in codes(inequality_mapping())
        # equalities are inside the Theorem 8.2 class
        equality = mk(["r[a(x), a(y)], x = y -> t[b(x)]"])
        found = codes(equality)
        assert "SM303" not in found and "SM304" in found

    def test_sm304_composition_closed(self):
        assert "SM304" in CLEAN_CODES
        assert "SM304" not in codes(mk(["r//a(x) -> t[b(x)]"]))

    def test_sm305_skolem_functions(self):
        skolem = SkolemMapping.parse(
            "r -> a*\na(x)", "t -> b*\nb(u)", ["r[a(x)] -> t[b(f(x))]"]
        )
        (diagnostic,) = lint_mapping(skolem).by_code("SM305")
        assert diagnostic.get("functions") == ("f",)
        assert "SM305" not in CLEAN_CODES


# ---------------------------------------------------------------------------
# the clean fixture really is clean
# ---------------------------------------------------------------------------


def test_clean_mapping_has_exactly_the_info_codes():
    assert CLEAN_CODES == (
        "SM001", "SM002", "SM003", "SM004", "SM005",
        "SM101", "SM102", "SM304",
    )
    assert lint_mapping(clean()).exit_code(strict=True) == 0


# ---------------------------------------------------------------------------
# engine integration: solve() carries the classifier diagnostics
# ---------------------------------------------------------------------------


def test_solve_report_carries_fragment_diagnostics():
    verdict = solve(ConsistencyProblem(inequality_mapping()))
    found = sorted(d.code for d in verdict.report.diagnostics)
    assert {"SM001", "SM002", "SM010"} <= set(found)
    # hygiene is the CLI's job, not a per-solve cost
    assert not any(code.startswith("SM2") for code in found)
    rendered = "\n".join(verdict.report.lines())
    assert "SM010" in rendered  # warnings surface in --stats output
    assert "SM001" not in rendered  # infos stay out of --stats


# ---------------------------------------------------------------------------
# the CLI subcommand
# ---------------------------------------------------------------------------


CLEAN_MAPPING_TEXT = """
source:
    f -> item*
    item(sku)
target:
    w -> product*
    product(sku)
std: f[item(s)] -> w[product(s)]
"""

WARNING_MAPPING_TEXT = """
source:
    f -> item*
    item(sku)
target:
    w -> product*
    product(sku)
std: f//item(s) -> w[product(s)]
"""

ERROR_MAPPING_TEXT = """
source:
    f -> item*
    item(sku)
target:
    w -> product*
    product(sku)
std: f[bogus] -> w[product(s)]
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLintCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = _write(tmp_path, "clean.xsm", CLEAN_MAPPING_TEXT)
        assert main(["lint", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("fragment: SM(↓)")
        assert "0 error(s)" in out

    def test_errors_exit_one(self, tmp_path, capsys):
        path = _write(tmp_path, "bad.xsm", ERROR_MAPPING_TEXT)
        assert main(["lint", path]) == 1
        assert "SM201" in capsys.readouterr().out

    def test_strict_promotes_warnings(self, tmp_path, capsys):
        path = _write(tmp_path, "warn.xsm", WARNING_MAPPING_TEXT)
        assert main(["lint", path]) == 0
        capsys.readouterr()
        assert main(["lint", "--strict", path]) == 2

    def test_quiet_hides_infos(self, tmp_path, capsys):
        path = _write(tmp_path, "warn.xsm", WARNING_MAPPING_TEXT)
        assert main(["lint", "--quiet", path]) == 0
        out = capsys.readouterr().out
        assert "SM301" in out and "SM001" not in out

    def test_json_envelope(self, tmp_path, capsys):
        paths = [
            _write(tmp_path, "clean.xsm", CLEAN_MAPPING_TEXT),
            _write(tmp_path, "warn.xsm", WARNING_MAPPING_TEXT),
        ]
        assert main(["lint", "--json", *paths]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert payload["max_severity"] == "warning"
        assert [report["name"] for report in payload["reports"]] == paths

    def test_batch_exit_code_is_the_maximum(self, tmp_path, capsys):
        clean_path = _write(tmp_path, "clean.xsm", CLEAN_MAPPING_TEXT)
        bad_path = _write(tmp_path, "bad.xsm", ERROR_MAPPING_TEXT)
        assert main(["lint", clean_path, bad_path]) == 1
        out = capsys.readouterr().out
        assert f"== {clean_path}" in out and f"== {bad_path}" in out

    def test_missing_file_is_operational_failure(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "absent.xsm")]) == 3
