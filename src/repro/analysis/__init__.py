"""Static analysis of schema mappings (the ``repro lint`` subsystem).

Zero-solver diagnostics over mappings and DTDs: fragment classification
and Figure 1–2 complexity-cell prediction (:mod:`.fragment`), the
diagnostic model and code catalogue (:mod:`.diagnostics`), the analysis
passes (:mod:`.passes`), the redundancy machinery (:mod:`.redundancy`),
the orchestrator (:mod:`.lint`), certified quick-fixes (:mod:`.fixes`),
baseline suppression (:mod:`.suppress`) and SARIF export
(:mod:`.sarif`).
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    ".diagnostics": (
        "CATALOG", "FAMILIES", "CatalogEntry", "Diagnostic", "LintReport",
        "Severity", "SourceLocation", "family_of", "merge_reports",
    ),
    ".fixes": (
        "FIXABLE_CODES", "Fix", "StdEdit", "apply_edits_to_text",
        "fix_from_dict", "fix_mapping", "fixes_for_report", "select_compatible",
        "verify_fix",
    ),
    ".fragment": (
        "CellPrediction", "predict_abscons", "predict_composition_consistency",
        "predict_composition_membership", "predict_consistency",
        "predict_for_problem", "predict_membership",
    ),
    ".lint": ("lint_mapping",),
    ".passes": (
        "PASSES", "composition_pass", "diagnostics_for_problem", "dtd_pass",
        "fragment_pass", "hygiene_pass", "redundancy_pass",
    ),
    ".redundancy": ("Subsumption", "find_redundancies", "subsumes"),
    ".sarif": ("sarif_log", "validate_sarif"),
    ".suppress": (
        "apply_baseline", "baseline_from_envelope", "envelope_exit_code",
        "load_baseline", "render_baseline",
    ),
})
