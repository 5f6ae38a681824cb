"""R10/R11 mutant fidelity to the paper's describer defect.

The ``R10``/``R11`` mutants are the one way to seed the historical
fault-describer defect (the paper's "Simulation Error" Table 3
family).  They replaced a campaign-config knob that seeded the same
defect; the expectations below were recorded from that knob's
campaign over this scope, so the mutants must keep reproducing it
**exactly** — the same comparison records byte for byte, and therefore
the same Table 2 and Table 3 rows.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.difftest.report import format_table2, format_table3
from repro.difftest.runner import CampaignConfig, run_campaign
from repro.mutation.recall import campaign_fingerprint

#: The seeded-flood scenario of tests/triage/test_campaign_triage.py:
#: the three natives whose faults need R10/R11 in their descriptions.
SCOPE = ("primitiveFloatTruncated", "primitiveMod", "primitiveConstantFill")

TABLE2 = """\
Compiler                              #Instr  #Paths  #Curated     #Differences
-------------------------------------------------------------------------------
Native Methods (primitives)                3      24        24      11 (45.83%)
SimpleStackBasedCogit                      0       0         0        0 (0.00%)
StackToRegisterCogit                       0       0         0        0 (0.00%)
RegisterAllocatingCogit                    0       0         0        0 (0.00%)
Total                                      3      24        24      11 (45.83%)"""

TABLE3 = """\
Family                                #Cases
--------------------------------------------
missing interpreter type check             0
missing compiled type check                0
optimisation difference                    0
behavioural difference                     1
missing functionality                      1
simulation error                           1
Total                                      3"""

#: sha256 over the campaign's 48 comparison records, one per line.
RECORDS_SHA256 = (
    "d48ddea0dd8cf9b79596b4b6415ca31417dcb38b5e62026913e0a264cd742711"
)


@pytest.fixture(scope="module")
def via_mutants():
    return run_campaign(CampaignConfig(
        only=SCOPE, max_paths_per_instruction=16, mutants=("R10", "R11"),
    ))


class TestFidelity:
    def test_reports_byte_identical(self, via_mutants):
        records = campaign_fingerprint(via_mutants)
        assert len(records) == 48
        digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
        assert digest == RECORDS_SHA256

    def test_table3_rows_identical(self, via_mutants):
        assert format_table3(via_mutants) == TABLE3

    def test_table2_rows_identical(self, via_mutants):
        assert format_table2(via_mutants) == TABLE2

    def test_gap_actually_seeded(self, via_mutants):
        # The historical defect surfaces as simulation errors — the
        # mutated campaign must actually differ from a clean one.
        clean = run_campaign(CampaignConfig(
            only=SCOPE, max_paths_per_instruction=16,
        ))
        assert campaign_fingerprint(via_mutants) != campaign_fingerprint(
            clean
        )
