"""IO-fault graceful degradation at the durable-write sinks.

``io_error``/``enospc`` faults armed at the journal, triage and store
write sites must cost at most the failed record: a transient error
loses one line (re-run on resume), a persistent one disables the sink
with a single stderr warning, and the campaign's report is identical
to a sink-less run either way — never worse than running in-memory.
"""

from __future__ import annotations

import errno

import pytest

from repro.difftest.report import table2
from repro.difftest.runner import run_campaign
from repro.incremental.store import ResultStore
from repro.robustness.checkpoint import MAX_WRITE_FAILURES
from repro.robustness.faults import FaultPlan, inject_faults, maybe_inject

from tests.robustness.test_campaign_resilience import CONFIG
from tests.robustness.test_checkpoint import SINKS


@pytest.fixture(scope="module")
def baseline():
    return run_campaign(CONFIG)


class TestFaultKinds:
    def test_io_error_carries_eio(self):
        plan = FaultPlan(stage="journal", kind="io_error")
        with inject_faults(plan):
            with pytest.raises(OSError) as excinfo:
                maybe_inject("journal")
        assert excinfo.value.errno == errno.EIO

    def test_enospc_carries_enospc(self):
        plan = FaultPlan(stage="store", kind="enospc")
        with inject_faults(plan):
            with pytest.raises(OSError) as excinfo:
                maybe_inject("store")
        assert excinfo.value.errno == errno.ENOSPC

    def test_oom_raises_memory_error(self):
        plan = FaultPlan(stage="simulate", kind="oom")
        with inject_faults(plan):
            with pytest.raises(MemoryError):
                maybe_inject("simulate")


class TestSinkDegradation:
    """The three-strikes policy of the shared record log, on every sink."""

    @pytest.mark.parametrize("kind", ["io_error", "enospc"])
    @pytest.mark.parametrize("sink", SINKS.values(), ids=SINKS)
    def test_persistent_failure_disables_after_threshold(
        self, tmp_path, capsys, sink, kind
    ):
        writer = sink(tmp_path)
        plan = FaultPlan(stage=writer.site, kind=kind)
        with inject_faults(plan):
            for index in range(MAX_WRITE_FAILURES + 2):
                writer.append(f"main::c::bytecode::i{index}")
        assert writer.warning is not None
        assert "failures" in writer.warning
        assert not writer.path.exists()
        # Exactly one warning, at the moment of degradation.
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if "disabled after" in line]
        assert len(warnings) == 1
        # Reads still work: the sink degrades, the run stays correct.
        assert writer.load() == {}

    @pytest.mark.parametrize("sink", SINKS.values(), ids=SINKS)
    def test_transient_failure_loses_only_its_record(self, tmp_path, sink):
        writer = sink(tmp_path)
        plan = FaultPlan(stage=writer.site, kind="io_error",
                         times=MAX_WRITE_FAILURES - 1)
        with inject_faults(plan):
            for index in range(5):
                writer.append(f"main::c::bytecode::i{index}")
        assert writer.warning is None
        loaded = sink(tmp_path).load()
        # The first MAX_WRITE_FAILURES - 1 appends failed; the rest,
        # including everything after the counter reset, landed.
        assert set(loaded) == {
            f"main::c::bytecode::i{index}"
            for index in range(MAX_WRITE_FAILURES - 1, 5)
        }


class TestJournalDegradation:
    def test_campaign_report_is_unaffected(self, baseline, tmp_path,
                                           capsys):
        """A journal on broken storage never bends the results."""
        journal = tmp_path / "dead.jsonl"
        plan = FaultPlan(stage="journal", kind="io_error")
        with inject_faults(plan):
            reports = run_campaign(CONFIG, journal_path=journal)
        assert table2(reports) == table2(baseline)
        assert len(reports.quarantine) == 0
        assert not journal.exists()
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if "disabled after" in line]
        assert len(warnings) == 1

    def test_parallel_campaign_survives_journal_io_faults(
        self, baseline, tmp_path
    ):
        """Workers append the journal themselves; every worker degrades
        its own handle and the merged report still matches."""
        journal = tmp_path / "dead.jsonl"
        plan = FaultPlan(stage="journal", kind="io_error")
        with inject_faults(plan):
            reports = run_campaign(CONFIG, jobs=2, journal_path=journal)
        assert table2(reports) == table2(baseline)
        assert len(reports.quarantine) == 0


class TestStoreDegradation:
    def test_campaign_with_dead_store_matches_baseline(
        self, baseline, tmp_path, capsys
    ):
        plan = FaultPlan(stage="store", kind="enospc")
        with inject_faults(plan):
            reports = run_campaign(CONFIG,
                                   cache_dir=str(tmp_path / "cache"))
        assert table2(reports) == table2(baseline)
        assert reports.cache is not None
        assert reports.cache.stored == 0
        assert reports.cache.warning is not None
        capsys.readouterr()
