"""Layer spans for the benchmark's traced runs.

A :class:`Tracer` wraps the public boundaries of each layer of the
``repro`` package from the outside — module attributes and methods of
classes that no semantic fingerprint reads — and records, per span
name, the call count and inclusive time, and per layer the self time
(a span's duration minus the part its child spans cover).  Counts that
only the return value knows (solver nodes, simulator steps, code
bytes…) are added by small callbacks at the same boundaries.

Fingerprint neutrality: ``repro.incremental.fingerprint`` hashes the
live attributes of Interpreter, ObjectMemory, SymbolicObjectMemory,
Frame, ConcolicFrame, the primitives and exits modules, every member of
MachineSimulator and the compilers' ``compile``/``gen_*``/``tpl_*``.  A
wrapper on any of those would turn every cache hit into a miss, so the
JIT and simulator are timed through the *instance* attributes a
DifferentialTester owns (``tester.compiler.compile``,
``tester.simulator.run``), never through their classes.
``child.py --selftest`` checks this property.

Parallel workers are forked with the wrappers installed; each resets
its own tracer and dumps it to ``worker-<pid>.json`` before it exits.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from pathlib import Path

#: Every layer a self time is attributed to.  ``setup`` is process
#: start to the first call into ``run_campaign``/``run_recall``.
LAYERS = ("setup", "runner", "explore", "solver", "harness", "jit", "sim",
          "incremental", "journal", "parallel", "triage", "mutation",
          "stitch")

#: Spans whose individual durations are kept for percentiles.
SAMPLED = ("runner.cell",)


class Tracer:
    """In-memory span and counter store of one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._stack: list = []  # [span name, time covered by children]
        self.calls: dict = {}
        self.seconds: dict = {}
        self.exclusive: dict = {}  # span name -> self time
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts: dict = {}
        self.samples: dict = {name: [] for name in SAMPLED}

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def wrap(self, func, layer: str, name, *, on_result=None, when=None):
        """*func* inside a span; *name* may be ``callable(args, kwargs)``.

        *when* (``callable(tracer, args)``) limits the span to some
        calls; the others run untraced and their time stays with the
        enclosing span.
        """

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if when is not None and not when(self, args):
                return func(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            entry = [label, 0.0]
            self._stack.append(entry)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.calls[label] = self.calls.get(label, 0) + 1
                self.seconds[label] = self.seconds.get(label, 0.0) + elapsed
                own = elapsed - entry[1]
                self.exclusive[label] = self.exclusive.get(label, 0.0) + own
                self.self_s[layer] += own
                if self._stack:
                    self._stack[-1][1] += elapsed
                if label in self.samples:
                    self.samples[label].append(elapsed)
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def to_dict(self) -> dict:
        return {"calls": self.calls, "seconds": self.seconds,
                "exclusive": self.exclusive, "self_s": self.self_s,
                "counts": self.counts, "samples": self.samples}

    def merge(self, other: dict) -> None:
        """Fold another process's :meth:`to_dict` into this one."""
        for key in ("calls", "seconds", "exclusive", "self_s", "counts"):
            mine = getattr(self, key)
            for name, value in other[key].items():
                mine[name] = mine.get(name, 0) + value
        for name, values in other["samples"].items():
            self.samples.setdefault(name, []).extend(values)


# ----------------------------------------------------------------------
# installation


def _campaign_label(prefix: str):
    def label(args, kwargs):
        config = args[0] if args else kwargs.get("config")
        mutants = getattr(config, "mutants", ())
        return f"{prefix}.mutant" if mutants else f"{prefix}.baseline"
    return label


def _count(name: str, amount):
    return lambda tracer, result: tracer.count(name, amount(result))


def install(tracer: Tracer, worker_dir) -> list:
    """Wrap every layer boundary; returns the ``(owner, name, original)``
    list :func:`uninstall` restores."""
    import repro.cli
    import repro.concolic.explorer as explorer
    import repro.difftest.runner as runner
    import repro.incremental as incremental
    import repro.mutation.recall as recall
    import repro.parallel.merge as merge
    import repro.parallel.pool as pool
    import repro.parallel.worker as worker
    import repro.stitch.corpus as corpus
    import repro.triage as triage
    import repro.triage.engine as engine
    import repro.triage.lab as lab
    from repro.concolic.materialize import Materializer
    from repro.difftest.harness import DifferentialTester
    from repro.incremental.store import ResultStore
    from repro.robustness.checkpoint import CampaignJournal

    patches: list = []

    def patch(owner, name, layer, label, **kwargs):
        original = getattr(owner, name)
        patches.append((owner, name, original))
        setattr(owner, name, tracer.wrap(original, layer, label, **kwargs))

    # entry points
    patch(repro.cli, "run_campaign", "runner", "runner.campaign")
    patch(recall, "run_recall", "mutation", "recall.run")
    patch(recall, "run_campaign", "runner", _campaign_label("recall"))
    patch(runner, "run_stitched_campaign", "runner",
          _campaign_label("recall"))
    # runner: planning and the cell executor of every engine
    for name in ("campaign_rows", "stitched_campaign_rows"):
        patch(runner, name, "runner", "runner.plan")
    for owner in (runner, worker, lab):
        patch(owner, "execute_cell", "runner", "runner.cell")
    # explore and solver
    for owner in (runner, lab):
        patch(owner, "explore_instruction", "explore", "explore",
              on_result=_count("explore.paths", lambda r: r.path_count))
    for name in ("solve_status", "solve_with_hint"):
        patch(explorer, name, "solver", "solve",
              on_result=_count("solver.witness_nodes", lambda r: r[1].nodes))
    # harness, with the JIT and simulator on the tester's own instances
    patch(DifferentialTester, "run_path", "harness", "harness.run_path")
    patch(DifferentialTester, "_compare", "harness", "harness.compare")
    patch(Materializer, "materialize_frame", "harness", "harness.materialize",
          when=lambda t, _args: t.parent() == "harness.run_path")
    setup = DifferentialTester.__init__

    def tester_init(tester, *args, **kwargs):
        setup(tester, *args, **kwargs)
        tester.compiler.compile = tracer.wrap(
            tester.compiler.compile, "jit", "jit.compile",
            on_result=_count("jit.code_bytes",
                             lambda r: len(r.code_object.code)))
        tester.simulator.run = tracer.wrap(
            tester.simulator.run, "sim", "sim.run",
            on_result=_count("sim.steps", lambda r: r.steps))

    patches.append((DifferentialTester, "__init__", setup))
    DifferentialTester.__init__ = tracer.wrap(tester_init, "harness",
                                              "harness.setup")
    # incremental: fingerprints and the result store
    patch(incremental, "plan_fingerprints", "incremental", "fingerprint",
          on_result=_count("fingerprint.cells", len))
    patch(ResultStore, "load", "incremental", "store.load",
          when=lambda _t, args: not getattr(args[0], "_loaded", False))
    patch(ResultStore, "get", "incremental", "store.get",
          on_result=_count("store.hits", lambda r: r is not None))
    patch(ResultStore, "put", "incremental", "store.put")
    # journal
    patch(CampaignJournal, "append", "journal", "journal.append")
    # parallel
    patch(pool, "run_parallel_rows", "parallel", "pool")
    patch(merge, "merge_records", "parallel", "merge")
    serve = worker.run_worker
    traced_serve = tracer.wrap(serve, "parallel", "pool.worker")

    def run_worker(*args, **kwargs):
        tracer.reset()  # drop the parent's spans inherited through fork
        try:
            return traced_serve(*args, **kwargs)
        finally:
            path = Path(worker_dir) / f"worker-{os.getpid()}.json"
            path.write_text(json.dumps(tracer.to_dict()))

    patches.append((worker, "run_worker", serve))
    worker.run_worker = run_worker
    # triage
    patch(triage, "run_triage", "triage", "triage",
          on_result=_count("triage.causes",
                           lambda r: len(r.causes) + len(r.crash_causes)))
    patch(engine, "emit_reproducer", "triage", "triage.emit")
    patch(engine, "self_verify", "triage", "triage.verify")
    # stitch
    patch(corpus, "build_stitched_corpus", "stitch", "stitch.corpus")
    return patches


def uninstall(patches: list) -> None:
    for owner, name, original in reversed(patches):
        setattr(owner, name, original)


def merge_workers(tracer: Tracer, worker_dir) -> int:
    """Fold every worker dump into *tracer*; returns how many."""
    dumps = sorted(Path(worker_dir).glob("worker-*.json"))
    for path in dumps:
        tracer.merge(json.loads(path.read_text()))
    return len(dumps)


# ----------------------------------------------------------------------
# order statistics shared by the driver and the child


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple:
    """``(value, percentile, samples)`` of the highest percentile with at
    least ten samples beyond it; ``(0.0, None, n)`` below 11 samples."""
    ordered = sorted(values)
    count = len(ordered)
    if count < 11:
        return 0.0, None, count
    index = count - 11
    return ordered[index], 100.0 * index / (count - 1), count
