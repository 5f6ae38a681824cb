"""The campaign's one cell loop, and the worker process that runs it.

:func:`run_shard` executes one shard — every compiler cell of one
instruction — cell by cell: execute (with the retry-then-quarantine
policy of :func:`~repro.difftest.runner.execute_cell`), serialize,
append to the journal, append clean cells to the result store, and
stream the record.  It is the only cell loop: at ``-j 1`` the runner
calls it in-process for every shard, at ``-j N`` each worker process
calls it behind the pipe protocol below.  Either way the records land
in one ``key -> record`` dict that :mod:`repro.parallel.merge` folds
in plan order.

A worker owns a full OS process, so `guard()`'s in-process crash
isolation is upgraded to real process isolation: a segfault,
``os._exit`` or OOM kill takes out the worker, the parent notices the
dead process and charges exactly the in-flight cell (see
:mod:`repro.parallel.pool`).  Workers are *persistent pullers*: one
process serves many shards, requesting the next one from the parent's
dynamic queue whenever it goes idle (work stealing — see
docs/INCREMENTAL.md).  Each shard gets a fresh
:class:`ExplorationCache`, and merge-order determinism is untouched
(the parent merges by plan order, never by arrival order).

Workers append their records to the shared journal themselves —
journal appends are concurrency-safe
(:mod:`repro.robustness.checkpoint`), and worker-side appends mean a
parent crash loses nothing a worker finished.  With a result cache
attached (``cache_dir``), clean first-attempt cells are also appended
to the persistent store under their semantic fingerprint
(:mod:`repro.incremental.store` — the same record log, safe under
concurrent workers).

Wire protocol, all plain picklable data.  Worker -> parent:

* ``("next",)`` — the worker is idle and wants a shard;
* ``("cell_start", key)`` — heartbeat: the worker is about to execute
  this cell.  The parent's supervisor starts the per-cell wall clock
  here; a cell whose record never follows within ``--cell-timeout``
  gets its worker SIGKILLed (:mod:`repro.robustness.supervise`);
* ``("cell", key, record)`` — one completed (or quarantined) cell.
  The record's comparison entries also carry the triage
  candidate payload (path constraint signatures, exit pairs, operand
  shapes, retry counts) — workers never confirm or shrink; the parent
  runs the whole ``--triage`` pipeline over these serialized records
  (:mod:`repro.triage`), which is what keeps triage output identical
  across ``-j`` values;
* ``("shard_done", cache_hits, cache_misses)`` — one shard finished;
  the exploration-cache accounting for it;
* ``("budget", message)`` — the campaign deadline expired in-worker;
  the shard's remaining cells were not run;
* ``("fail", error_class, message)`` — ``fail_fast`` is set and a cell
  crashed; the parent re-raises;
* ``("done", perf_snapshot | None)`` — the worker is exiting cleanly;
  the perf snapshot dict is present only under ``profile``.

Parent -> worker:

* ``("shard", shard, fingerprints)`` — run this shard; *fingerprints*
  maps the shard's cell keys to semantic fingerprints (empty when the
  result cache is off);
* ``("stop",)`` — no work left; send ``done`` and exit.
"""

from __future__ import annotations

from repro import perf
from repro.concolic.explorer import ExplorationCache
from repro.difftest.runner import (
    _crashed_result,
    _backend_scope,
    _serialize_cell,
    execute_cell,
)
from repro.robustness.budgets import Deadline
from repro.robustness.checkpoint import CampaignJournal
from repro.robustness.errors import BudgetExhausted, CampaignError
from repro.robustness.quarantine import QuarantineEntry
from repro.robustness.supervise import apply_worker_rlimits


def resolve_rows(plan: str, config):
    """Rebuild the canonical plan inside the worker process.

    The plan is a pure function of the config, so parent and worker
    independently derive identical rows; shards address into them by
    ``(row_index, spec_index)``.
    """
    from repro.difftest.runner import (
        campaign_rows,
        sequence_campaign_rows,
        stitched_campaign_rows,
    )

    if plan == "main":
        return campaign_rows(config)
    if plan == "sequences":
        return sequence_campaign_rows(config)
    if plan == "stitched":
        # The stitched corpus is memoized per budget; workers are
        # forked, so they inherit the parent's memo and resolve the
        # plan without re-deriving templates (see repro.stitch.corpus).
        return stitched_campaign_rows(config)
    raise ValueError(f"unknown campaign plan {plan!r}")


def run_worker(conn, plan: str, config, remaining_seconds, journal_path,
               cache_dir=None) -> None:
    """Serve shards pulled from *conn* until the parent says stop.

    ``config.mutants`` crosses the fork boundary inside the pickled
    config; activating it here (reference-counted, so the per-cell
    activation inside ``execute_cell`` nests) makes every shard —
    including plan resolution and the shared exploration cache — run
    under the same mutated semantics as a ``-j 1`` campaign of the
    same config (see docs/MUTATION.md).
    """
    from repro.mutation import activated

    with activated(getattr(config, "mutants", ())):
        _run_worker_activated(conn, plan, config, remaining_seconds,
                              journal_path, cache_dir)


def _run_worker_activated(conn, plan: str, config, remaining_seconds,
                          journal_path, cache_dir) -> None:
    apply_worker_rlimits(config)
    rows = resolve_rows(plan, config)
    deadline = Deadline(remaining_seconds)
    journal = CampaignJournal(journal_path) if journal_path else None
    store = None
    if cache_dir:
        from repro.incremental import ResultStore

        store = ResultStore(str(cache_dir))
    if getattr(config, "profile", False):
        perf.enable()
    try:
        conn.send(("next",))
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return
            if message[0] == "stop":
                break
            _tag, shard, fingerprints = message
            try:
                run_shard(shard, rows, config, deadline, journal, store,
                          fingerprints, conn.send)
            except BudgetExhausted as exc:
                conn.send(("budget", str(exc)))
                return
            except CampaignError as exc:
                # Only reachable with fail_fast: hand the classified
                # error to the parent for re-raising.
                conn.send(("fail", exc.error_class, str(exc)))
                return
            conn.send(("next",))
        if perf.enabled():
            from repro.concolic.solver.incremental import record_solver_gauges

            record_solver_gauges()
            conn.send(("done", perf.snapshot()))
        else:
            conn.send(("done", None))
    finally:
        conn.close()


def run_shard(shard, rows, config, deadline, journal, store, fingerprints,
              send) -> None:
    """Run one shard cell by cell: the campaign's only cell loop.

    Each cell is executed (with the retry-then-quarantine policy of
    :func:`execute_cell`), serialized, appended to the *journal*, and —
    when it is a clean first attempt over a complete exploration, and
    *fingerprints* knows its key — to the result *store*.  Progress
    streams through *send* as the wire messages ``cell_start``,
    ``cell`` and ``shard_done``: ``conn.send`` in a worker, a plain
    function at ``-j 1``.  A campaign-scoped :class:`BudgetExhausted`
    and a ``fail_fast`` :class:`CampaignError` propagate to the caller.
    """
    # One cache per shard = one exploration per instruction, shared by
    # every compiler cell of the shard (the shard planner guarantees a
    # shard never spans instructions) and freed with it.
    cache = ExplorationCache()
    for cell in shard.cells:
        row = rows[cell.row_index]
        spec = row.specs[cell.spec_index]
        compiler_class = row.compiler_class
        send(("cell_start", cell.key))
        result, error = execute_cell(config, deadline, spec, compiler_class,
                                     cache)
        entry = None
        if error is not None:
            entry = QuarantineEntry.from_error(
                error,
                instruction=spec.name,
                kind=spec.kind,
                compiler=compiler_class.name,
                backend=_backend_scope(config),
            )
            result = _crashed_result(spec, compiler_class, config, error)
        record = _serialize_cell(cell.key, result, entry)
        if journal is not None:
            journal.append(record)
        if (store is not None and error is None and result.retries == 0
                and not getattr(result.exploration, "budget_exhausted",
                                False)):
            # Only clean first-attempt cells with a complete exploration
            # enter the cross-run store; quarantines, retried cells and
            # budget-truncated explorations always re-run.
            store.put(fingerprints.get(cell.key), record)
        send(("cell", cell.key, record))
    if perf.enabled():
        perf.incr("explore.cache_hits", cache.hits)
        perf.incr("explore.cache_misses", cache.misses)
    send(("shard_done", cache.hits, cache.misses))
