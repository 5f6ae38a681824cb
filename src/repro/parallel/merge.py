"""Deterministic merge: cell records -> campaign reports.

Every campaign, at any ``-j``, ends in one ``key -> record`` dict:
records replayed from the journal, served from the result store, and
produced by the shard loop (in-process or in workers, completing cells
in whatever order scheduling gives).  The merge erases that order by
replaying the records against the canonical plan — the same row order,
the same spec order, the same accumulation for every cell — so
aggregate counts, report row ordering and the quarantine section are
byte-identical between ``-j 1``, ``-j N``, ``--resume`` and warm
cache runs by construction (and asserted by
``tests/parallel/test_determinism.py``).

Rebuilt cells preserve the full serialized payload — including the
per-cell retry counts, exploration times and the triage candidate data
(path signatures, exit pairs) that ``--triage`` consumes after the
merge.
"""

from __future__ import annotations

from repro.difftest.runner import (
    CampaignResult,
    CompilerReport,
    _accumulate,
    _rebuild_cell,
)
from repro.robustness.checkpoint import cell_key
from repro.robustness.quarantine import Quarantine, QuarantineEntry


def merge_records(rows, records: dict,
                  result: CampaignResult) -> CampaignResult:
    """Fold ``key -> record`` into reports on *result*, in canonical
    plan order.

    Cells without a record (deadline expired before they ran) are
    simply absent.  Quarantine entries ride inside their cell's record,
    so the quarantine section also comes out in plan order.
    """
    quarantine = Quarantine()
    for row in rows:
        report = CompilerReport(compiler=row.label)
        for spec in row.specs:
            key = cell_key(row.experiment, row.compiler_class.name,
                           spec.kind, spec.name)
            record = records.get(key)
            if record is None:
                continue
            _accumulate(report, _rebuild_cell(record))
            if record.get("quarantined"):
                quarantine.add(
                    QuarantineEntry.from_dict(record["quarantined"])
                )
        result.append(report)
    result.quarantine = quarantine
    return result
