"""Tests for auto-repair: redundancy analysis, certified quick-fixes,
baseline suppression and SARIF export.

The heart is the randomized round-trip property (both kernels): every
fix the engine offers must survive independent re-verification —
apply → the fixed code's count strictly drops, no new error code
appears, and ``solve()`` consistency does not regress (identical
decisions for ``preserving`` fixes).
"""

import json
import random

import pytest

from repro.analysis import (
    apply_baseline,
    apply_edits_to_text,
    baseline_from_envelope,
    envelope_exit_code,
    find_redundancies,
    fix_from_dict,
    fix_mapping,
    fixes_for_report,
    lint_mapping,
    load_baseline,
    merge_reports,
    render_baseline,
    sarif_log,
    select_compatible,
    subsumes,
    validate_sarif,
    verify_fix,
)
from repro.analysis.fixes import PRESERVING, RELAXING, Fix, StdEdit, std_line_numbers
from repro.cli import main
from repro.engine import ConsistencyProblem, solve
from repro.errors import XsmError
from repro.kernel import BITSET, PURE, force_kernel
from repro.mappings.mapping import SchemaMapping
from repro.mappings.std import parse_std


def mk(stds, source="r -> a*\na(x)", target="t -> b*\nb(u)"):
    return SchemaMapping.parse(source, target, stds)


def clean():
    return mk(["r[a(x)] -> t[b(x)]"])


def codes(mapping, **kwargs):
    return lint_mapping(mapping, **kwargs).codes()


# ---------------------------------------------------------------------------
# redundancy: the SM31x pass and the homomorphism machinery
# ---------------------------------------------------------------------------


class TestSubsumption:
    def test_duplicate_up_to_renaming(self):
        found = find_redundancies(mk(["r[a(x)] -> t[b(x)]", "r[a(y)] -> t[b(y)]"]))
        assert [(s.index, s.by, s.duplicate) for s in found] == [(1, 0, True)]

    def test_proper_subsumption(self):
        found = find_redundancies(
            mk(["r[a(x)] -> t[b(x)]", "r[a(x), a(y)] -> t[b(x)]"])
        )
        assert [(s.index, s.by, s.duplicate) for s in found] == [(1, 0, False)]

    def test_wildcard_subsumes_concrete(self):
        weaker = parse_std("r[_(x)] -> t[b(x)]")
        stronger = parse_std("r[a(x)] -> t[b(x)]")
        assert subsumes(weaker, stronger) is not None
        assert subsumes(stronger, weaker) is None

    def test_descendant_subsumes_child(self):
        weaker = parse_std("r[//a(x)] -> t[b(x)]")
        stronger = parse_std("r[a(x)] -> t[b(x)]")
        assert subsumes(weaker, stronger) is not None

    def test_following_subsumes_next(self):
        weaker = parse_std("r[a(x) ->* a(y)] -> t[b(x)]")
        stronger = parse_std("r[a(x) -> a(y)] -> t[b(x)]")
        assert subsumes(weaker, stronger) is not None
        assert subsumes(stronger, weaker) is None

    def test_shared_variable_must_translate_back(self):
        # the "next" connector pins x to the first child and y to the
        # second, so neither std's target obligation covers the other's
        found = find_redundancies(
            mk(["r[a(x) -> a(y)] -> t[b(x)]", "r[a(x) -> a(y)] -> t[b(y)]"])
        )
        assert found == []

    def test_symmetric_sources_allow_swap_translation(self):
        # unordered symmetric sources: the x<->y swap is a legal
        # homomorphism, so each std covers the other (later index wins)
        found = find_redundancies(
            mk(["r[a(x), a(y)] -> t[b(x)]", "r[a(x), a(y)] -> t[b(y)]"])
        )
        assert [(s.index, s.by) for s in found] == [(1, 0)]

    def test_label_prefilter_keeps_wildcard_subsumers(self):
        # the wildcard absorbs 'a': r[_(x)] needs only {r}, which r[a(x)] has
        found = find_redundancies(mk(["r[_(x)] -> t[b(x)]", "r[a(x)] -> t[b(x)]"]))
        assert [(s.index, s.by) for s in found] == [(1, 0)]
        # a labelled node the other source lacks rules the pair out
        mapping = mk(
            ["r[_(x)[c]] -> t[b(x)]", "r[a(x)] -> t[b(x)]"],
            source="r -> a*\na(x) -> c?\nc",
        )
        assert find_redundancies(mapping) == []
        assert subsumes(mapping.stds[0], mapping.stds[1]) is None
        assert subsumes(mapping.stds[1], mapping.stds[0]) is None

    def test_public_subsumes_keeps_its_eligibility_guard(self):
        # the same homomorphism, but a comparison makes the pair ineligible
        assert subsumes(
            parse_std("r[a(x)], x = x -> t[b(x)]"), parse_std("r[a(y)] -> t[b(y)]")
        ) is None

    def test_comparisons_are_unknown_safe(self):
        mapping = mk([
            "r[a(x)], x = x -> t[b(x)]",
            "r[a(y)], y = y -> t[b(y)]",
        ])
        assert find_redundancies(mapping) == []

    def test_skolem_terms_are_unknown_safe(self):
        mapping = mk(["r[a(x)] -> t[b(f(x))]", "r[a(y)] -> t[b(f(y))]"])
        assert find_redundancies(mapping) == []

    def test_sm310_positive_and_negative(self):
        assert "SM310" in codes(mk(["r[a(x)] -> t[b(x)]", "r[a(y)] -> t[b(y)]"]))
        assert "SM310" not in codes(clean())
        assert "SM310" not in codes(
            mk(["r[a(x)] -> t[b(x)]", "r[a(y), a(z)] -> t[b(y), b(z)]"])
        )

    def test_sm311_positive_and_negative(self):
        assert "SM311" in codes(
            mk(["r[a(x)] -> t[b(x)]", "r[a(x), a(y)] -> t[b(x)]"])
        )
        assert "SM311" not in codes(clean())
        # the more general std must never be the one reported
        report = lint_mapping(mk(["r[a(x)] -> t[b(x)]", "r[a(x), a(y)] -> t[b(x)]"]))
        (diagnostic,) = report.by_code("SM311")
        assert diagnostic.location.std_index == 1
        assert diagnostic.get("subsumed_by") == 0

    def test_mutual_pair_reports_later_index_only(self):
        # t[b(x), b(x)] and t[b(x)] are equivalent (items may share a child)
        report = lint_mapping(
            mk(["r[a(x)] -> t[b(x)]", "r[a(x)] -> t[b(x), b(x)]"])
        )
        subsumed = report.by_code("SM311")
        assert [d.location.std_index for d in subsumed] == [1]


# ---------------------------------------------------------------------------
# the fix model
# ---------------------------------------------------------------------------


class TestFixModel:
    def test_edit_validation(self):
        with pytest.raises(ValueError):
            StdEdit("replace", 0)  # replace needs new_std
        with pytest.raises(ValueError):
            StdEdit("remove", 0, "r[a(x)] -> t[b(x)]")
        with pytest.raises(ValueError):
            StdEdit("rewrite", 0)

    def test_apply_replaces_and_removes(self):
        mapping = mk(["r[a(x)] -> t[b(x)]", "r[a(y)] -> t[b(y)]"])
        fix = Fix(
            code="SM310", message="m",
            edits=(StdEdit("remove", 1),),
            location=lint_mapping(mapping).by_code("SM310")[0].location,
            safety=PRESERVING,
        )
        repaired = fix.apply(mapping)
        assert len(repaired.stds) == 1
        assert len(mapping.stds) == 2  # input untouched

    def test_apply_rejects_out_of_range(self):
        fix = Fix(
            code="SM204", message="m", edits=(StdEdit("remove", 5),),
            location=lint_mapping(clean()).diagnostics[0].location,
            safety=PRESERVING,
        )
        with pytest.raises(XsmError):
            fix.apply(clean())

    def test_wire_round_trip(self):
        fix = Fix(
            code="SM201", message="m",
            edits=(StdEdit("replace", 0, "r[a(x)] -> t[b(x)]"),),
            location=lint_mapping(clean()).diagnostics[0].location,
            safety=RELAXING,
            data=(("from", "aa"), ("to", "a")),
            verified=True,
        )
        assert fix_from_dict(fix.to_dict()) == fix

    def test_select_compatible_one_fix_per_std(self):
        location = lint_mapping(clean()).diagnostics[0].location
        first = Fix("SM204", "m", (StdEdit("remove", 0),), location, PRESERVING)
        second = Fix("SM205", "m", (StdEdit("remove", 0),), location, RELAXING)
        third = Fix("SM204", "m", (StdEdit("remove", 1),), location, PRESERVING)
        assert select_compatible([first, second, third]) == (first, third)


TEXT = """\
# header comment
source:
    r -> a*
    a(x)
target:
    t -> b*
    b(u)
std: r[aa(x)] -> t[b(x)]  # trailing comment
std: r[a(y)] -> t[b(y)]
"""


class TestTextEdits:
    def test_std_line_numbers(self):
        assert std_line_numbers(TEXT) == [7, 8]

    def test_replace_preserves_everything_else(self):
        out = apply_edits_to_text(
            TEXT, [StdEdit("replace", 0, "r[a(x)] -> t[b(x)]")]
        )
        assert "# header comment" in out
        assert "std: r[a(x)] -> t[b(x)]" in out
        assert "std: r[a(y)] -> t[b(y)]" in out
        assert "aa" not in out

    def test_remove_deletes_only_the_std_line(self):
        out = apply_edits_to_text(TEXT, [StdEdit("remove", 1)])
        assert "r[a(y)]" not in out
        assert "r[aa(x)]" in out
        assert "# header comment" in out

    def test_out_of_range_edit_rejected(self):
        with pytest.raises(XsmError):
            apply_edits_to_text(TEXT, [StdEdit("remove", 9)])


# ---------------------------------------------------------------------------
# per-code fixes
# ---------------------------------------------------------------------------


def fixes_by_code(mapping, **kwargs):
    report, fixes = fix_mapping(mapping, **kwargs)
    result = {}
    for fix in fixes:
        result.setdefault(fix.code, []).append(fix)
    return report, result


class TestFixStrategies:
    def test_sm201_remap_carries_witness(self):
        __, fixes = fixes_by_code(mk(["r[aa(x)] -> t[b(x)]"]))
        (fix,) = fixes["SM201"]
        assert fix.verified
        assert fix.get("to") == "a"
        assert fix.get("witness")  # Lemma 4.1 satisfying tree, serialized
        assert fix.safety == RELAXING

    def test_sm202_arity_repair(self):
        __, fixes = fixes_by_code(mk(["r[a(x, y)] -> t[b(x)]"]))
        (fix,) = fixes["SM202"]
        assert fix.verified
        assert "a(x)" in fix.edits[0].new_std

    def test_sm203_root_relabel(self):
        __, fixes = fixes_by_code(mk(["a[a(x)] -> t[b(x)]"]))
        (fix,) = fixes["SM203"]
        assert fix.edits[0].new_std.startswith("r[")

    def test_sm204_dead_std_removal_is_preserving(self):
        # a[a] can never match: 'a' has an empty production
        __, fixes = fixes_by_code(mk(["r[a(x)[a(y)]] -> t[b(x)]"]))
        (fix,) = fixes["SM204"]
        assert fix.safety == PRESERVING
        assert fix.edits[0].op == "remove"

    def test_sm205_unsafe_std_removal_is_relaxing(self):
        __, fixes = fixes_by_code(mk(["r[a(x)] -> t[b(x)[b(y)]]"]))
        (fix,) = fixes["SM205"]
        assert fix.safety == RELAXING

    def test_sm207_renames_to_nearest_bound_variable(self):
        __, fixes = fixes_by_code(mk(["r[a(x)], xx = x -> t[b(x)]"]))
        (fix,) = fixes["SM207"]
        assert "x = x" in fix.edits[0].new_std
        assert "xx" not in fix.edits[0].new_std

    def test_sm210_false_source_comparison_removal_preserving(self):
        __, fixes = fixes_by_code(
            mk(["r[a(x)], x != x -> t[b(x)]", "r[a(y)] -> t[b(y)]"])
        )
        (fix,) = fixes["SM210"]
        assert fix.safety == PRESERVING

    def test_sm301_wildcard_resolution_preserving(self):
        __, fixes = fixes_by_code(mk(["r[_(x)] -> t[b(x)]"]))
        (fix,) = fixes["SM301"]
        assert fix.safety == PRESERVING
        assert "a(x)" in fix.edits[0].new_std

    def test_sm301_ambiguous_wildcard_has_no_fix(self):
        __, fixes = fixes_by_code(
            mk(["r[_(x)] -> t[b(x)]"], source="r -> a* c*\na(x)\nc(y)")
        )
        assert "SM301" not in fixes

    def test_sm31x_removal(self):
        __, fixes = fixes_by_code(mk(["r[a(x)] -> t[b(x)]", "r[a(y)] -> t[b(y)]"]))
        (fix,) = fixes["SM310"]
        assert fix.safety == PRESERVING
        assert fix.edits == (StdEdit("remove", 1),)

    def test_only_codes_filter(self):
        mapping = mk(["r[aa(x)] -> t[b(x)]", "r[a(y)] -> t[b(y)]", "r[a(z)] -> t[b(z)]"])
        report = lint_mapping(mapping)
        fixes = fixes_for_report(mapping, report, only_codes=["SM310"])
        assert {fix.code for fix in fixes} == {"SM310"}
        with pytest.raises(XsmError, match="SM999"):
            fixes_for_report(mapping, report, only_codes=["SM999"])


class TestVerificationGate:
    def test_ineffective_fix_rejected(self):
        mapping = mk(["r[a(x)[a(y)]] -> t[b(x)]", "r[a(z)] -> t[b(z)]"])
        report = lint_mapping(mapping)
        # claims to fix the dead std but removes the healthy one
        bogus = Fix(
            "SM204", "m", (StdEdit("remove", 1),),
            report.by_code("SM204")[0].location, PRESERVING,
        )
        fix, reason = verify_fix(mapping, bogus, report)
        assert fix is None and reason == "re-lint"

    def test_fix_introducing_new_errors_rejected(self):
        mapping = mk(["r[aa(x)] -> t[b(x)]"])
        report = lint_mapping(mapping)
        bogus = Fix(
            "SM201", "m",
            (StdEdit("replace", 0, "r[zz(x)] -> t[qq(x)]"),),
            report.by_code("SM201")[0].location, RELAXING,
        )
        fix, reason = verify_fix(mapping, bogus, report)
        assert fix is None and reason in ("re-lint", "new-errors")

    def test_verified_fix_is_flagged(self):
        mapping = mk(["r[a(x)] -> t[b(x)]", "r[a(y)] -> t[b(y)]"])
        report = lint_mapping(mapping)
        (fix,) = fixes_for_report(mapping, report)
        assert fix.verified


# ---------------------------------------------------------------------------
# the randomized round-trip property (both kernels)
# ---------------------------------------------------------------------------

SOURCE_DTD = "r -> a* c*\na(x)\nc(y, z)"
TARGET_DTD = "t -> b* d*\nb(u)\nd(v)"


def _broken_mapping(rng):
    """A mapping seeded with 1–3 random defects (possibly overlapping)."""
    stds = ["r[a(x)] -> t[b(x)]", "r[c(p, q)] -> t[d(p)]"]
    injectors = [
        lambda: stds.append("r[aa(x)] -> t[b(x)]"),          # SM201
        lambda: stds.append("r[a(x, w)] -> t[b(x)]"),        # SM202
        lambda: stds.append("a[a(x)] -> t[b(x)]"),           # SM203
        lambda: stds.append("r[a(x)[a(w)]] -> t[b(x)]"),     # SM204
        lambda: stds.append("r[a(x)] -> t[b(x)[b(w)]]"),     # SM205
        lambda: stds.append("r[a(x)], qq = x -> t[b(x)]"),   # SM207
        lambda: stds.append("r[a(x)], x != x -> t[b(x)]"),   # SM210
        lambda: stds.append("r[_(x)] -> t[b(x)[d(w)]]"),     # unsafe + wildcard
        lambda: stds.append("r[a(w)] -> t[b(w)]"),           # SM310 duplicate
        lambda: stds.append("r[a(x), a(w)] -> t[b(x)]"),     # SM311 subsumed
    ]
    for injector in rng.sample(injectors, rng.randint(1, 3)):
        injector()
    rng.shuffle(stds)
    return SchemaMapping.parse(SOURCE_DTD, TARGET_DTD, stds)


@pytest.mark.parametrize("kernel", [PURE, BITSET])
def test_random_fixes_round_trip(kernel):
    """apply → re-lint improves → solve() non-regression, per fix."""
    with force_kernel(kernel):
        rng = random.Random(20260809)
        for __ in range(10):
            mapping = _broken_mapping(rng)
            report, fixes = fix_mapping(mapping)
            before = solve(ConsistencyProblem(mapping))
            for fix in fixes:
                assert fix.verified
                repaired = fix.apply(mapping)
                after_report = lint_mapping(repaired)
                # the fixed code's count strictly drops
                assert len(after_report.by_code(fix.code)) < len(
                    report.by_code(fix.code)
                )
                # no new error code appears
                assert not (
                    {d.code for d in after_report.errors}
                    - {d.code for d in report.errors}
                )
                after = solve(ConsistencyProblem(repaired))
                rank = {"refuted": 0, "unknown": 1, "proved": 2}

                def level(verdict):
                    if verdict.is_refuted:
                        return rank["refuted"]
                    if verdict.is_unknown:
                        return rank["unknown"]
                    return rank["proved"]

                assert level(after) >= level(before)
                if fix.safety == PRESERVING and not (
                    before.is_unknown or after.is_unknown
                ):
                    # preserving fixes keep the consistency decision
                    assert after.decision() == before.decision()


@pytest.mark.parametrize("kernel", [PURE, BITSET])
def test_fix_loop_converges_on_seeded_breakage(kernel):
    """The repro-fix iteration (select → apply → re-lint) reaches a
    state with no error-severity fixable diagnostics."""
    with force_kernel(kernel):
        rng = random.Random(7)
        mapping = _broken_mapping(rng)
        for __ in range(8):
            report, fixes = fix_mapping(mapping)
            selected = select_compatible(fixes)
            if not selected:
                break
            edits = [edit for fix in selected for edit in fix.edits]
            combined = Fix(
                selected[0].code, "batch", tuple(edits),
                selected[0].location, RELAXING,
            )
            mapping = combined.apply(mapping)
        final = lint_mapping(mapping)
        assert not final.errors


# ---------------------------------------------------------------------------
# merge_reports determinism / de-duplication
# ---------------------------------------------------------------------------


class TestMergeReportsV2:
    def test_rows_sorted_by_name(self):
        first = lint_mapping(clean(), name="b.xsm")
        second = lint_mapping(mk(["r[a(y)] -> t[b(y)]"]), name="a.xsm")
        merged = merge_reports([first, second])
        assert merged["version"] == 2
        assert [row["name"] for row in merged["reports"]] == ["a.xsm", "b.xsm"]

    def test_order_insensitive(self):
        reports = [
            lint_mapping(clean(), name=name) for name in ("c", "a", "b")
        ]
        forward = merge_reports(reports)
        backward = merge_reports(list(reversed(reports)))
        scrub = lambda envelope: json.dumps(
            {**envelope, "reports": [
                {key: value for key, value in row.items() if key != "elapsed"}
                for row in envelope["reports"]
            ]},
            sort_keys=True,
        )
        assert scrub(forward) == scrub(backward)

    def test_identical_reports_collapse(self):
        report = lint_mapping(clean(), name="same")
        merged = merge_reports([report, report])
        assert len(merged["reports"]) == 1

    def test_identical_diagnostics_dedupe(self):
        report = lint_mapping(clean(), name="x")
        doubled = LintReportDoubler(report)
        merged = merge_reports([doubled])
        diagnostics = merged["reports"][0]["diagnostics"]
        assert len(diagnostics) == len(report.diagnostics)


def LintReportDoubler(report):
    from repro.analysis import LintReport

    return LintReport(
        fragment=report.fragment,
        diagnostics=report.diagnostics + report.diagnostics,
        name=report.name,
        elapsed=report.elapsed,
        passes=report.passes,
    )


# ---------------------------------------------------------------------------
# baseline suppression
# ---------------------------------------------------------------------------


class TestBaseline:
    def envelope(self, *mappings_and_names):
        return merge_reports([
            lint_mapping(mapping, name=name)
            for mapping, name in mappings_and_names
        ])

    def test_full_suppression_round_trip(self):
        envelope = self.envelope((mk(["r[aa(x)] -> t[b(x)]"]), "m.xsm"))
        baseline = load_baseline(render_baseline(baseline_from_envelope(envelope)))
        result = apply_baseline(envelope, baseline)
        assert result.suppressed == len(envelope["reports"][0]["diagnostics"])
        assert result.stale == []
        assert envelope_exit_code(result.envelope, strict=True) == 0
        # the suppressed diagnostics are retained for SARIF
        assert result.envelope["reports"][0]["suppressed"]

    def test_new_diagnostics_still_fail(self):
        old = self.envelope((clean(), "m.xsm"))
        baseline = baseline_from_envelope(old)
        new = self.envelope((mk(["r[aa(x)] -> t[b(x)]"]), "m.xsm"))
        result = apply_baseline(new, baseline)
        assert envelope_exit_code(result.envelope) == 1
        remaining = {
            diagnostic["code"]
            for diagnostic in result.envelope["reports"][0]["diagnostics"]
        }
        assert "SM201" in remaining

    def test_stale_entries_reported(self):
        old = self.envelope((mk(["r[aa(x)] -> t[b(x)]"]), "m.xsm"))
        baseline = baseline_from_envelope(old)
        fixed = self.envelope((clean(), "m.xsm"))
        result = apply_baseline(fixed, baseline)
        assert any(entry["code"] == "SM201" for entry in result.stale)

    def test_bad_baseline_rejected(self):
        with pytest.raises(XsmError):
            load_baseline("not json at all {")
        with pytest.raises(XsmError):
            load_baseline(json.dumps({"version": 99}))


# ---------------------------------------------------------------------------
# SARIF export
# ---------------------------------------------------------------------------


class TestSarif:
    def build(self):
        mapping = mk(["r[aa(x)] -> t[b(x)]", "r[a(y)] -> t[b(y)]"])
        report, fixes = fix_mapping(mapping, name="m.xsm")
        envelope = merge_reports([report])
        from repro.mappings.io import render_mapping

        text = render_mapping(mapping)
        return sarif_log(
            envelope, fixes={"m.xsm": fixes}, texts={"m.xsm": text}
        )

    def test_structurally_valid(self):
        log = self.build()
        assert validate_sarif(log) == []
        assert json.loads(json.dumps(log)) == log  # JSON-serializable

    def test_rules_cover_catalogue_and_results_reference_them(self):
        from repro.analysis import CATALOG

        log = self.build()
        run = log["runs"][0]
        rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert set(rule_ids) == set(CATALOG)
        for result in run["results"]:
            assert result["ruleId"] in rule_ids
            assert rule_ids[result["ruleIndex"]] == result["ruleId"]

    def test_fixes_and_regions_present(self):
        log = self.build()
        results = log["runs"][0]["results"]
        fixed = [result for result in results if result.get("fixes")]
        assert fixed
        replacement = fixed[0]["fixes"][0]["artifactChanges"][0]["replacements"][0]
        assert replacement["deletedRegion"]["startLine"] >= 1

    def test_suppressions_marked(self):
        envelope = merge_reports([lint_mapping(clean(), name="m.xsm")])
        baseline = baseline_from_envelope(envelope)
        suppressed = apply_baseline(envelope, baseline).envelope
        log = sarif_log(suppressed)
        results = log["runs"][0]["results"]
        assert results and all(
            result["suppressions"][0]["kind"] == "external" for result in results
        )
        assert validate_sarif(log) == []

    def test_validator_catches_breakage(self):
        log = self.build()
        assert validate_sarif({"version": "2.1.0"})  # no runs
        broken = json.loads(json.dumps(log))
        broken["runs"][0]["results"][0]["level"] = "fatal"
        assert any("level" in problem for problem in validate_sarif(broken))
        broken = json.loads(json.dumps(log))
        broken["runs"][0]["results"][0]["ruleIndex"] = 0
        broken["runs"][0]["results"][0]["ruleId"] = "SM999"
        assert validate_sarif(broken)


# ---------------------------------------------------------------------------
# surfaces: CLI and service session
# ---------------------------------------------------------------------------

BROKEN_TEXT = """\
source:
    r -> a*
    a(x)
target:
    t -> b*
    b(u)
std: r[aa(x)] -> t[b(x)]
std: r[a(y)] -> t[b(y)]
std: r[a(z)] -> t[b(z)]
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestFixCli:
    def test_dry_run_lists_fixes(self, tmp_path, capsys):
        path = _write(tmp_path, "m.xsm", BROKEN_TEXT)
        assert main(["fix", path]) == 0
        out = capsys.readouterr().out
        assert "SM201" in out and "SM310" in out
        assert (tmp_path / "m.xsm").read_text() == BROKEN_TEXT  # untouched

    def test_diff_preview(self, tmp_path, capsys):
        path = _write(tmp_path, "m.xsm", BROKEN_TEXT)
        assert main(["fix", path, "--diff"]) == 0
        out = capsys.readouterr().out
        assert "-std: r[aa(x)] -> t[b(x)]" in out
        assert "+std: r[a(x)] -> t[b(x)]" in out

    def test_apply_writes_and_relints_clean(self, tmp_path, capsys):
        path = _write(tmp_path, "m.xsm", BROKEN_TEXT)
        assert main(["fix", path, "--apply"]) == 0
        capsys.readouterr()
        repaired = (tmp_path / "m.xsm").read_text()
        assert "aa" not in repaired
        assert repaired.count("std:") == 1
        assert main(["lint", "--quiet", path]) == 0

    def test_only_restricts_codes(self, tmp_path, capsys):
        path = _write(tmp_path, "m.xsm", BROKEN_TEXT)
        assert main(["fix", path, "--only", "SM310", "--apply"]) == 1
        capsys.readouterr()
        repaired = (tmp_path / "m.xsm").read_text()
        assert "aa" in repaired  # SM201 untouched, still an error (exit 1)
        assert repaired.count("std:") == 2

    def test_clean_file_reports_nothing(self, tmp_path, capsys):
        path = _write(
            tmp_path, "clean.xsm", BROKEN_TEXT.replace("aa", "a").split("std:")[0]
            + "std: r[a(x)] -> t[b(x)]\n"
        )
        assert main(["fix", path]) == 0
        assert "no applicable fixes" in capsys.readouterr().out


class TestLintCliSarifAndBaseline:
    def test_sarif_file_output_validates(self, tmp_path, capsys):
        path = _write(tmp_path, "m.xsm", BROKEN_TEXT)
        sarif_path = tmp_path / "out.sarif"
        assert main(["lint", path, "--sarif", str(sarif_path), "--quiet"]) == 1
        capsys.readouterr()
        log = json.loads(sarif_path.read_text())
        assert validate_sarif(log) == []
        results = log["runs"][0]["results"]
        assert any(result.get("fixes") for result in results)

    def test_baseline_write_then_compare(self, tmp_path, capsys):
        path = _write(tmp_path, "m.xsm", BROKEN_TEXT)
        baseline = tmp_path / "baseline.json"
        assert main(["lint", path, "--baseline", str(baseline)]) == 0
        assert baseline.exists()
        capsys.readouterr()
        # second run: everything suppressed, even the SM201 error
        assert main(["lint", path, "--baseline", str(baseline)]) == 0
        err = capsys.readouterr().err
        assert "suppressed by baseline" in err

    def test_baseline_reports_stale(self, tmp_path, capsys):
        path = _write(tmp_path, "m.xsm", BROKEN_TEXT)
        baseline = tmp_path / "baseline.json"
        assert main(["lint", path, "--baseline", str(baseline)]) == 0
        (tmp_path / "m.xsm").write_text(BROKEN_TEXT.replace("aa", "a"))
        capsys.readouterr()
        main(["lint", path, "--baseline", str(baseline)])
        err = capsys.readouterr().err
        assert "stale baseline" in err


class TestServiceLintFixes:
    def test_session_returns_fixes(self):
        from repro.service import EngineSession

        session = EngineSession(jobs=1)
        response = session.handle(
            "lint",
            {
                "mappings": [{"name": "m.xsm", "text": BROKEN_TEXT}],
                "fixes": True,
            },
        )
        assert response["ok"]
        (entry,) = response["fixes"]
        assert entry["name"] == "m.xsm"
        codes_offered = {fix["code"] for fix in entry["fixes"]}
        assert "SM201" in codes_offered and "SM310" in codes_offered
        assert all(fix["verified"] for fix in entry["fixes"])

    def test_session_only_codes(self):
        from repro.service import EngineSession

        session = EngineSession(jobs=1)
        response = session.handle(
            "lint",
            {
                "mappings": [{"name": "m.xsm", "text": BROKEN_TEXT}],
                "fixes": True,
                "only_codes": ["SM310"],
            },
        )
        (entry,) = response["fixes"]
        assert {fix["code"] for fix in entry["fixes"]} == {"SM310"}

    def test_fix_metrics_family_increments(self):
        from repro.analysis.fixes import _FIXES_PROPOSED, _FIXES_VERIFIED

        before = _FIXES_VERIFIED.labels(code="SM310").value
        proposed_before = _FIXES_PROPOSED.labels(code="SM310").value
        fix_mapping(mk(["r[a(x)] -> t[b(x)]", "r[a(y)] -> t[b(y)]"]))
        assert _FIXES_VERIFIED.labels(code="SM310").value == before + 1
        assert _FIXES_PROPOSED.labels(code="SM310").value == proposed_before + 1
