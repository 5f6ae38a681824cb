"""One timed process of the campaign benchmark.

Runs one ``repro`` CLI command in this fresh process, so no solver memo,
intern table or fingerprint cache survives from an earlier run, and
writes what the driver (``run.py``) needs as JSON to ``--out``:

* ``t_entry`` / ``t_end``: ``time.monotonic()`` at the first call into
  ``run_campaign``/``run_recall`` and when the command returned; the
  clock is system-wide, so the driver subtracts its own spawn time;
* the correctness facts the driver compares with the pinned values
  (verdict digest, quarantined cells, recall, reproducer self-checks);
* ``gate_s``: the time spent on those checks after the command
  returned, which the driver takes out of the wall clock;
* with ``--trace-dir``, the per-layer figures of :mod:`spans`.

Usage: ``python child.py --out FILE --t0 T [--trace-dir DIR] -- ARGV``
runs ``repro ARGV``; ``python child.py --out FILE --selftest`` checks
that installing the tracer leaves every plan fingerprint of the mutant
sweep unchanged.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import replace


class Capture:
    """Thin wrappers on the entry points: first-call time and results."""

    def __init__(self, profile: bool) -> None:
        self.profile = profile
        self.t_entry = None
        self.jobs = 1
        self.config = None
        self.campaign = None  # the CLI's CampaignResult
        self.report = None  # the RecallReport
        self.results: list = []  # every CampaignResult of the command

    def entry(self, func):
        def wrapper(config, *args, **kwargs):
            if self.t_entry is None:
                self.t_entry = time.monotonic()
            if self.profile:
                config = replace(config, profile=True)
            self.config = config
            self.jobs = kwargs.get("jobs", 1)
            return func(config, *args, **kwargs)
        return wrapper

    def campaign_entry(self, func):
        entry = self.entry(func)

        def wrapper(*args, **kwargs):
            self.campaign = entry(*args, **kwargs)
            self.results.append(self.campaign)
            return self.campaign
        return wrapper

    def recall_entry(self, func):
        entry = self.entry(func)

        def wrapper(*args, **kwargs):
            self.report = entry(*args, **kwargs)
            return self.report
        return wrapper

    def sweep_run(self, func):
        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            self.results.append(result)
            return result
        return wrapper

    def install(self, command: str) -> None:
        import repro.cli

        if command == "mutate":
            import repro.difftest.runner as runner
            import repro.mutation.recall as recall

            recall.run_recall = self.recall_entry(recall.run_recall)
            recall.run_campaign = self.sweep_run(recall.run_campaign)
            runner.run_stitched_campaign = self.sweep_run(
                runner.run_stitched_campaign)
        else:
            repro.cli.run_campaign = self.campaign_entry(repro.cli.run_campaign)


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def verdict_facts(capture: Capture) -> dict:
    """The correctness surface the driver compares with the pins."""
    facts = {
        "cells": sum(len(r.results) for result in capture.results
                     for r in result),
        "quarantined": sum(len(r.quarantine) for r in capture.results),
        "cache_hits": sum(r.cache.hits for r in capture.results
                          if r.cache is not None),
    }
    if capture.report is not None:
        report = capture.report
        facts["digest"] = _sha([json.dumps(
            report.to_dict(include_timing=False), sort_keys=True)])
        subset = report.expected_subset
        facts["recall"] = [sum(o.status == "caught" for o in subset),
                           len(subset)]
        facts["mutant_seconds"] = [
            seconds for o in report.outcomes for seconds in o.seconds.values()
        ]
        return facts
    from repro.mutation.recall import campaign_fingerprint

    result = capture.campaign
    facts["digest"] = _sha(campaign_fingerprint(result))
    if result.triage is not None:
        causes = list(result.triage.causes) + list(result.triage.crash_causes)
        facts["cause_digest"] = _sha(sorted(c.signature.digest
                                            for c in causes))
        facts["verified"] = [c.verified is True for c in result.triage.causes]
        mutants = capture.config.mutants
        found = {c.signature.cause.rsplit(":", 1)[-1] for c in causes}
        facts["recall"] = [sum(m in found for m in mutants), len(mutants)]
    return facts


def layer_metrics(tracer, capture: Capture, wall: float, setup: float,
                  parent_self: float) -> dict:
    """The per-layer figures of one traced run (see README.md)."""
    from repro.perf import merge_snapshots
    from spans import LAYERS, median, tail

    calls, seconds, counts = tracer.calls, tracer.seconds, tracer.counts
    profile = merge_snapshots([r.perf for r in capture.results if r.perf])
    counters, timers = profile.get("counters", {}), profile.get("timers", {})
    memo = counters.get("solver.memo_hits", 0) + counters.get(
        "solver.memo_misses", 0)
    snapshots = counters.get("snapshot.reuse", 0) + counters.get(
        "snapshot.create", 0)
    cell_ms = [s * 1000.0 for s in tracer.samples["runner.cell"]]
    pool_s = seconds.get("pool", 0.0)
    busy = timers.get("explore", 0.0) + timers.get("test", 0.0)
    cells_cached = sum(r.cached_cells + r.resumed_cells
                       for r in capture.results)
    metrics = {
        "solve.s": seconds.get("solve", 0.0),
        "solve.calls": calls.get("solve", 0),
        "solver.witness_nodes": counts.get("solver.witness_nodes", 0),
        "solver.memo_hit_rate":
            counters.get("solver.memo_hits", 0) / memo if memo else 0.0,
        "solver.memo_lookups": memo,
        "explore.s": seconds.get("explore", 0.0),
        "explore.calls": calls.get("explore", 0),
        "explore.paths": counts.get("explore.paths", 0),
        "pathtree.subsumed": counters.get("pathtree.subsumed", 0),
        "snapshot.reuse_rate":
            counters.get("snapshot.reuse", 0) / snapshots if snapshots
            else 0.0,
        "snapshot.requests": snapshots,
        "harness.setup_s": seconds.get("harness.setup", 0.0),
        "harness.setups": calls.get("harness.setup", 0),
        "harness.materialize_s": seconds.get("harness.materialize", 0.0),
        "harness.reference_s": tracer.exclusive.get("harness.run_path", 0.0),
        "harness.compare_s": seconds.get("harness.compare", 0.0),
        "harness.paths": calls.get("harness.run_path", 0),
        "jit.compile_s": seconds.get("jit.compile", 0.0),
        "jit.compiles": calls.get("jit.compile", 0),
        "jit.code_bytes": counts.get("jit.code_bytes", 0),
        "sim.s": seconds.get("sim.run", 0.0),
        "sim.runs": calls.get("sim.run", 0),
        "sim.steps": counts.get("sim.steps", 0),
        "runner.plan_s": seconds.get("runner.plan", 0.0),
        "runner.cell_ms_p50": median(cell_ms),
        "runner.cell_ms_tail": tail(cell_ms)[0],
        "runner.cell_samples": len(cell_ms),
        "runner.cells_executed":
            sum(len(r.results) for res in capture.results for r in res)
            - cells_cached,
        "runner.cells_cached": cells_cached,
        "fingerprint.s": seconds.get("fingerprint", 0.0),
        "fingerprint.cells": counts.get("fingerprint.cells", 0),
        "store.load_s": seconds.get("store.load", 0.0),
        "store.loads": calls.get("store.load", 0),
        "store.get_s": seconds.get("store.get", 0.0),
        "store.hits": counts.get("store.hits", 0),
        "store.put_s": seconds.get("store.put", 0.0),
        "store.puts": calls.get("store.put", 0),
        "journal.append_s": seconds.get("journal.append", 0.0),
        "journal.appends": calls.get("journal.append", 0),
        "pool.s": pool_s,
        "pool.busy_ratio":
            busy / (capture.jobs * pool_s) if pool_s and capture.jobs > 1
            else 0.0,
        "merge.s": seconds.get("merge", 0.0),
        "pool.respawns": sum(r.respawned_workers for r in capture.results),
        "triage.s": seconds.get("triage", 0.0),
        "triage.causes": counts.get("triage.causes", 0),
        "triage.emit_s": seconds.get("triage.emit", 0.0)
        + seconds.get("triage.verify", 0.0),
        "triage.emits": calls.get("triage.emit", 0),
        "recall.baseline_s": seconds.get("recall.baseline", 0.0),
        "recall.mutant_s": seconds.get("recall.mutant", 0.0),
        "stitch.corpus_s": seconds.get("stitch.corpus", 0.0),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - setup - parent_self,
    }
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = tracer.self_s[layer]
    metrics["self.setup_s"] = setup
    return metrics


def run_command(args) -> int:
    command = args.argv[0]
    tracer = None
    capture = Capture(profile=args.trace_dir is not None)
    if args.trace_dir is not None:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, args.trace_dir)
    capture.install(command)
    from repro.cli import main as cli_main

    code = cli_main(args.argv)
    t_end = time.monotonic()
    payload = {"exit_code": code, "t_entry": capture.t_entry, "t_end": t_end}
    payload.update(verdict_facts(capture))
    if tracer is not None:
        import spans

        parent_self = sum(tracer.self_s.values())
        payload["workers_traced"] = spans.merge_workers(tracer,
                                                        args.trace_dir)
        payload["layers"] = layer_metrics(
            tracer, capture, t_end - args.t0, capture.t_entry - args.t0,
            parent_self)
    payload["gate_s"] = time.monotonic() - t_end
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return code


def selftest(args) -> int:
    """Plan fingerprints of the whole mutant sweep, untraced vs traced."""
    import repro.difftest.runner as runner
    import repro.incremental as incremental
    import spans
    from repro.difftest.runner import CampaignConfig
    from repro.mutation import registry

    plans = [("main", ()), ("stitched", ())] + [
        (registry.get(mid).corpus, (mid,)) for mid in registry.all_ids()
    ]

    def fingerprints() -> list:
        out = []
        for corpus, mutants in plans:
            config = CampaignConfig(max_paths_per_instruction=64,
                                    mutants=mutants)
            rows = (runner.stitched_campaign_rows(config)
                    if corpus == "stitched" else runner.campaign_rows(config))
            out.append(incremental.plan_fingerprints(rows, config))
        return out

    before = fingerprints()
    patches = spans.install(spans.Tracer(), args.out + ".workers")
    try:
        after = fingerprints()
    finally:
        spans.uninstall(patches)
    payload = {"fingerprints_equal": before == after,
               "cells": sum(len(plan) for plan in before)}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return 0 if payload["fingerprints_equal"] else 1


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, default=0.0)
    parser.add_argument("--trace-dir")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    if args.selftest:
        return selftest(args)
    return run_command(args)


if __name__ == "__main__":
    sys.exit(main())
