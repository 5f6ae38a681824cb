"""Table 3 — summary of found defects, grouped by root cause.

Paper Table 3:

    Missing interpreter type check    1
    Missing compiled type check      13
    Optimisation difference          10
    Behavioral difference             5
    Missing Functionality            60
    Simulation Error                  2
    Total                            91

The reproduction classifies every difference from the campaign through
the rule-based encoding of the paper's manual analysis; every one of
the six families must be populated, with missing functionality
dominating and exactly one missing-interpreter-check cause
(primitiveAsFloat).
"""

from __future__ import annotations

from benchmarks.conftest import write_artifact, write_json_artifact
from repro.difftest.defects import DefectCategory, category_summary, classify
from repro.difftest.report import cause_listing, format_table3
from repro.difftest.runner import all_comparisons


def test_table3_defect_families(benchmark, campaign):
    comparisons = all_comparisons(campaign)
    differences = [c for c in comparisons if c.is_difference]

    def classify_all():
        return [classify(difference) for difference in differences]

    defects = benchmark(classify_all)
    assert len(defects) == len(differences)

    write_artifact(
        "table3.txt",
        format_table3(campaign) + "\n\nCause inventory:\n"
        + cause_listing(campaign),
        fidelity=True,
    )

    summary = category_summary(comparisons)
    write_json_artifact(
        "table3_defects",
        {
            "families": {
                category.value: count for category, count in summary.items()
            },
            "total": sum(summary.values()),
        },
        fidelity=True,
    )
    # Exactly one missing interpreter check: primitiveAsFloat.
    assert summary[DefectCategory.MISSING_INTERPRETER_TYPE_CHECK] == 1
    # Float receiver unboxing: on the order of the paper's 13.
    assert 8 <= summary[DefectCategory.MISSING_COMPILED_TYPE_CHECK] <= 16
    # Optimisation differences: float non-inlining dominates (paper: 10).
    assert summary[DefectCategory.OPTIMISATION_DIFFERENCE] >= 10
    # Behavioural: 4 bit-wise + truncated mod (paper: 5).
    assert summary[DefectCategory.BEHAVIOURAL_DIFFERENCE] == 5
    # Missing functionality dominates (paper: 60 of 91).
    assert summary[DefectCategory.MISSING_FUNCTIONALITY] >= 40
    missing = summary[DefectCategory.MISSING_FUNCTIONALITY]
    total = sum(summary.values())
    assert missing > total / 2
    # The two reflective-getter simulation errors.
    assert summary[DefectCategory.SIMULATION_ERROR] == 2
    # Nothing escaped classification.
    assert summary.get(DefectCategory.UNCLASSIFIED, 0) == 0
    # Total cause count in the paper's ballpark (91).
    assert 60 <= total <= 120
