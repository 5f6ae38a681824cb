"""Shard execution for every campaign (``python -m repro campaign -j N``).

Shards the campaign's (instruction x compiler x backend) cell grid by
instruction, runs the shards through one cell loop — in-process at
``-j 1``, across OS worker processes at ``-j N`` — and merges the
cells' records back into the canonical plan order, so aggregate
reports are byte-identical at any ``-j``:

* :mod:`repro.parallel.shard` — the shard planner: one shard per
  instruction, carrying every compiler cell of that instruction so it
  is explored exactly once (the exploration cache);
* :mod:`repro.parallel.worker` — the cell loop (:func:`run_shard`:
  execute behind the robustness layer, journal, store, stream the
  record) and the worker entrypoint that serves it to the pool from a
  child process as a persistent puller;
* :mod:`repro.parallel.pool` — the pool driver: a work-stealing shard
  queue (idle workers pull the next shard; see docs/INCREMENTAL.md),
  per-worker deadlines, crash detection (a dead worker costs one cell;
  the rest of its shard is re-queued and a replacement spawned);
* :mod:`repro.parallel.merge` — the deterministic merge of cell
  records into :class:`~repro.difftest.runner.CampaignResult`.

The package imports nothing eagerly: a ``-j 1`` campaign never loads
the pool (or :mod:`multiprocessing`).
"""
