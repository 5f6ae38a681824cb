"""The cache never serves a stale verdict — checked by behaviour.

tests/incremental/test_invalidation.py derives its expected set from
:func:`fingerprint_members`, the walk it checks, so it cannot see a
member the walk never reaches.  The tests here take their expectation
from running the cells instead: whenever a mutant changes a cell's
uncached verdicts, that cell's fingerprint must change, or a warm
store would hand the mutated campaign the baseline's verdict.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cli import main
from repro.difftest.runner import CampaignConfig, campaign_rows, run_campaign
from repro.incremental import plan_fingerprints
from repro.interpreter.primitives import PRIMITIVE_TABLE
from repro.robustness.checkpoint import cell_key

FFI_BYTE_SIZE = "main::NativeMethodCompiler::native::primitiveFFIByteSize"

#: Every testable native method: the ``ffi`` family and the rest of the
#: primitive table.
NATIVES = tuple(sorted(native.name for native in PRIMITIVE_TABLE.values()
                       if native.testable))


def cell_verdicts(result) -> dict:
    """cell key -> its timing-free verdict lines."""
    verdicts = {}
    for report in result:
        for cell in report.results:
            key = cell_key("main", cell.compiler, cell.kind, cell.instruction)
            verdicts[key] = (
                cell.exploration.path_count,
                cell.curated_path_count,
                [comparison.to_record() for comparison in cell.comparisons],
            )
    return verdicts


@pytest.fixture(scope="module")
def native_baseline():
    config = CampaignConfig(only=NATIVES)
    return config, run_campaign(config)


@pytest.mark.parametrize("mutant_id", ["I1", "I2", "I3"])
def test_changed_verdicts_change_the_fingerprint(native_baseline, mutant_id):
    config, baseline = native_baseline
    mutated_config = replace(config, mutants=(mutant_id,))
    before = cell_verdicts(baseline)
    after = cell_verdicts(run_campaign(mutated_config))
    assert set(before) == set(after)
    changed = {key for key in before if before[key] != after[key]}

    rows = campaign_rows(config)
    fingerprints = plan_fingerprints(rows, config)
    mutated = plan_fingerprints(rows, mutated_config)
    stale = sorted(key for key in changed
                   if fingerprints[key] == mutated[key])
    assert not stale, f"{mutant_id} would be served stale verdicts: {stale}"


def test_ffi_byte_size_fingerprint_moves_under_i2():
    """primitiveFFIByteSize reaches the patched is_integer_object only
    through the module-level helper ``_is_external_address``."""
    config = CampaignConfig(only=("primitiveFFIByteSize",))
    rows = campaign_rows(config)
    baseline = plan_fingerprints(rows, config)
    mutated = plan_fingerprints(rows, replace(config, mutants=("I2",)))
    assert baseline[FFI_BYTE_SIZE] != mutated[FFI_BYTE_SIZE]


def test_warm_i2_campaign_prints_what_no_cache_prints(tmp_path, capsys):
    def campaign(*extra) -> str:
        assert main(["campaign", "--only", "primitiveFFIByteSize",
                     *extra]) == 0
        out = capsys.readouterr().out
        return out.split("\nresult cache:")[0]

    cache = ["--cache-dir", str(tmp_path / "cache")]
    campaign(*cache)  # the baseline populates the store
    warm = campaign(*cache, "--mutant", "I2")
    assert warm == campaign("--no-cache", "--mutant", "I2")
