"""The campaign benchmark: four workloads through the public entry points.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every timed run is a fresh ``python`` process running one ``repro`` CLI
command (see ``child.py``), with the result-store directory pinned to a
fresh per-run directory inside ``perfbench/_work``.  Runs repeat until
``--seconds`` have passed.  The last line of stdout is one JSON object:
``correct``, ``attempted`` (runs made), ``failed`` (runs whose exit
code, quarantine count or verdict digest differs from ``pins.json``)
and ``metrics`` — the end-to-end metrics as medians over the passing
runs with ``--trace 0``, scaled to a reference host speed by the
probes of ``calibrate.py`` that bracket every run, and the per-layer
metrics of the traced runs with ``--trace 1``.  The line before it records the host, the workload's
purpose, every sample and every check.  README.md has the workloads,
the metrics and the layer -> metric -> workload map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from calibrate import REFERENCE_S
from spans import median, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
PINS = HERE / "pins.json"

#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0

#: Counts that must repeat exactly between two traced runs.
DETERMINISTIC = ("solve.calls", "solver.witness_nodes", "sim.steps",
                 "jit.code_bytes", "store.hits", "fingerprint.cells")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Cells the plan resolves in one run (the base of ``cells_per_s``).
    cells: int
    #: Processes the workload keeps busy at once; as many host-speed
    #: probes run side by side.
    jobs: int = 1

    def argv(self, run_dir: Path, draw: list) -> list:
        if self.name == "cold-j2":
            return ["campaign", "-j", "2",
                    "--journal", str(run_dir / "journal.jsonl"),
                    "--cache-dir", str(run_dir / "cache")]
        if self.name == "warm-sweep":
            return ["mutate", "--budgets", "64", "--no-triage",
                    "--cache-dir", str(run_dir / "cache")]
        argv = ["campaign", "--no-cache", "--triage", "--confirm-runs", "2",
                "--repro-dir", str(run_dir / "repros"),
                "--mutant", "R10", "--mutant", "R11"]
        for name in draw:
            argv += ["--only", name]
        return argv


WORKLOADS = {w.name: w for w in (
    Workload("cold-j2", "the paper's headline run, the full Table 2 plan, "
             "as operators run it: -j 2 with a journal and a fresh store, "
             "so explore, solve, harness, jit and sim plus pool, merge and "
             "1,370 durable writes", 685, jobs=2),
    Workload("warm-sweep", "CI re-running the recall gate on unchanged "
             "semantics: all 5,624 cells served from the store, so "
             "fingerprinting and store reads dominate", 5624),
    Workload("triage", "confirm, shrink, dedup and self-verified "
             "reproducers for R10/R11 over a seeded draw of 40 "
             "instructions", 92),
)}


# ----------------------------------------------------------------------
# one run


def child_env(run_dir: Path, traced: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    env["TMPDIR"] = str(run_dir / "tmp")
    if traced:
        # solver.witness_nodes moves with the interpreter's string hash
        # seed (295,547 or 296,307 nodes on the cold plan; the verdicts
        # do not move), so traced runs fix it to compare counts exactly.
        env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list, run_dir: Path, traced: bool = False,
          timeout: float = CHILD_TIMEOUT_S):
    """Run one child process; ``(t0, t_exit, exit code, rusage)``.

    The child gets its own session so a timeout kills it together with
    every worker or verifier it started; ``wait4`` gives the resource
    use of the child and of the descendants it waited for.
    """
    (run_dir / "tmp").mkdir(parents=True, exist_ok=True)
    with open(run_dir / "stdout.txt", "wb") as out, \
            open(run_dir / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable] + [a.replace("{t0}", repr(t0)) for a in argv],
            cwd=run_dir, env=child_env(run_dir, traced), stdout=out,
            stderr=err,
            stdin=subprocess.DEVNULL, start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # nothing the child started may outlive it
    return t0, t_exit, proc.returncode, usage


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except OSError:
        pass


def run_once(workload: Workload, index: int, draw: list, traced: bool,
             seed_store: Path | None) -> dict:
    """One fresh process of *workload*; its facts plus measured times."""
    run_dir = WORK / f"{workload.name}-{index}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    if seed_store is not None:
        shutil.copytree(seed_store, run_dir / "cache")
    out = run_dir / "facts.json"
    argv = [str(HERE / "child.py"), "--out", str(out), "--t0", "{t0}"]
    if traced:
        (run_dir / "trace").mkdir()
        argv += ["--trace-dir", str(run_dir / "trace")]
    argv += ["--"] + workload.argv(run_dir, draw)
    t0, t_exit, code, usage = spawn(argv, run_dir, traced)
    facts = json.loads(out.read_text()) if out.exists() else {}
    facts["traced"] = traced
    facts["child_exit"] = code
    if facts.get("t_entry") is not None:
        gate = facts["gate_s"]
        wall = t_exit - t0 - gate
        facts["measured"] = {
            "wall_s": wall,
            "setup_s": facts["t_entry"] - t0,
            "cpu_s": usage.ru_utime + usage.ru_stime - gate,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "cells_per_s": facts["cells"] / wall,
        }
    shutil.rmtree(run_dir, ignore_errors=True)
    return facts


def problems(workload: Workload, facts: dict, pin: dict) -> list:
    """Why this run does not count; empty when every check passes."""
    found = []
    if facts.get("child_exit") != 0 or "measured" not in facts:
        return [f"child exited {facts.get('child_exit')} without a result"]
    if facts["quarantined"]:
        found.append(f"{facts['quarantined']} quarantined cells")
    if facts["cells"] != workload.cells:
        found.append(f"{facts['cells']} cells, expected {workload.cells}")
    if facts["digest"] != pin["digest"]:
        found.append("verdict digest differs from the pin")
    if workload.name == "warm-sweep":
        if facts["recall"] != [8, 8]:
            found.append(f"recall {facts['recall']}, expected 8/8")
        if facts["cache_hits"] != workload.cells:
            found.append(f"{facts['cache_hits']} store hits, expected "
                         f"{workload.cells}")
    if workload.name == "triage":
        if facts["cause_digest"] != pin["cause_digest"]:
            found.append("cause digest differs from the pin")
        if not facts["verified"] or not all(facts["verified"]):
            found.append("a reproducer failed its self-check")
        if facts["recall"] != [2, 2]:
            found.append(f"recall {facts['recall']}, expected 2/2")
    return found


def pin_for(pins: dict, name: str, seed: int) -> dict:
    """The pinned verdicts of one run; the seed picks the triage draw.
    ``cold-j2`` runs the whole plan cold; its pin is ``cold``."""
    if name == "triage":
        return pins["triage"][seed % len(pins["triage"])]
    return pins["cold" if name.startswith("cold") else name]


# ----------------------------------------------------------------------
# set-up


def build_seed_store() -> Path:
    """The warm-sweep store, built once per invocation on this code,
    since fingerprints hash the code under test."""
    store = WORK / "seed-store"
    run_dir = WORK / "seed-build"
    shutil.rmtree(store, ignore_errors=True)
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    argv = ["-m", "repro", "mutate", "--budgets", "64", "--no-triage",
            "-j", "2", "--cache-dir", str(store)]
    _t0, _t1, code, _usage = spawn(argv, run_dir)
    if code != 0:
        raise SystemExit(f"perfbench: building the seed store failed "
                         f"(exit {code}); see {run_dir}")
    shutil.rmtree(run_dir, ignore_errors=True)
    return store


def prepare() -> None:
    """Byte-compile the sources and warm the page cache, so the first
    timed run pays no more set-up than the later ones."""
    WORK.mkdir(parents=True, exist_ok=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   check=True, stdout=subprocess.DEVNULL)
    warm = WORK / "warm-up"
    spawn(["-c", "import repro.cli, repro.mutation.recall"], warm)
    shutil.rmtree(warm, ignore_errors=True)


def host(cpu_before: list, cpu_after: list) -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "machine": platform.machine(), "system": platform.system()}
    if cpu_before and cpu_after:
        # The share of the guest's CPU time the hypervisor gave to
        # other tenants while this invocation measured.
        delta = [b - a for a, b in zip(cpu_before, cpu_after)]
        facts["steal_share"] = delta[7] / sum(delta) if sum(delta) else 0.0
    return facts


def cpu_times() -> list:
    """The aggregate ``cpu`` line of ``/proc/stat`` (empty elsewhere)."""
    try:
        with open("/proc/stat") as stat:
            return [int(field) for field in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return []


# ----------------------------------------------------------------------
# measuring


def probe(width: int) -> tuple:
    """One host-speed probe: the mean ``(wall, cpu)`` seconds of *width*
    ``calibrate.py`` processes run side by side, each in its own
    session like the timed children."""
    procs = []
    try:
        for _ in range(width):
            procs.append(subprocess.Popen(
                [sys.executable, str(HERE / "calibrate.py")], cwd=WORK,
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                start_new_session=True))
        samples = [proc.communicate(timeout=CHILD_TIMEOUT_S)[0].split()
                   for proc in procs]
    finally:
        for proc in procs:
            _kill_group(proc.pid)
            proc.wait()
    if any(proc.returncode != 0 for proc in procs):
        raise SystemExit("perfbench: the host-speed probe failed")
    return (sum(float(wall) for wall, _cpu in samples) / width,
            sum(float(cpu) for _wall, cpu in samples) / width)


def measure(workload: Workload, seconds: float, trace: bool, draw: list,
            seed_store) -> tuple:
    """``(runs, probes)``: untraced runs, each followed by a host-speed
    probe (and the first preceded by one), until the next run would end
    nearer past *seconds* than the last one ended before it; with
    *trace*, every third run untraced and the others traced, three runs
    at least.  Each run's ``probe`` is the mean of the two probes that
    bracket it."""
    start = time.monotonic()
    runs, probes = [], [probe(workload.jobs)]
    while True:
        traced = trace and len(runs) % 3 != 0
        run = run_once(workload, len(runs), draw, traced, seed_store)
        probes.append(probe(workload.jobs))
        run["probe"] = [(before + after) / 2
                        for before, after in zip(*probes[-2:])]
        runs.append(run)
        elapsed = time.monotonic() - start
        if (len(runs) >= (3 if trace else 1)
                and elapsed + elapsed / len(runs) / 2 >= seconds):
            return runs, probes


def summarize(values: list) -> dict:
    value, percentile, count = tail(values)
    return {"p50": median(values), "tail": value,
            "tail_percentile": percentile, "samples": count}


def scaled(run: dict) -> dict:
    """A run's end-to-end figures at the reference host speed: wall
    times scaled by its probes' wall time, CPU time by theirs."""
    wall = REFERENCE_S / run["probe"][0]
    cpu = REFERENCE_S / run["probe"][1]
    measured = run["measured"]
    return {"wall_s": measured["wall_s"] * wall,
            "setup_s": measured["setup_s"] * wall,
            "cpu_s": measured["cpu_s"] * cpu,
            "peak_rss_mb": measured["peak_rss_mb"],
            "cells_per_s": measured["cells_per_s"] / wall}


def end_to_end(passing: list) -> dict:
    """Medians over *passing* runs of their scaled figures."""
    units = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
             "peak_rss_mb": "MB", "cells_per_s": "1/s"}
    figures = [scaled(r) for r in passing]
    return {name: {"value": median([f[name] for f in figures]),
                   "unit": unit} for name, unit in units.items()}


def per_layer(traced: list, untraced: list) -> dict:
    metrics = {}
    for name in traced[0]["layers"]:
        metrics[name] = {"value": median([r["layers"][name] for r in traced]),
                         "unit": layer_unit(name)}
    overhead = (median([r["measured"]["wall_s"] for r in traced])
                - median([r["measured"]["wall_s"] for r in untraced]))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_rate") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def selftest_failures(checks: list, traced: list, untraced: list) -> int:
    """Tracing must leave fingerprints, and so the warm hit count, alone."""
    run_dir = WORK / "selftest"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    out = run_dir / "selftest.json"
    _t0, _t1, code, _usage = spawn(
        [str(HERE / "child.py"), "--out", str(out), "--selftest"], run_dir)
    failures = 0
    if code != 0 or not json.loads(out.read_text())["fingerprints_equal"]:
        checks.append("selftest: plan fingerprints change under tracing")
        failures += 1
    hits = {r["layers"]["store.hits"] for r in traced} | {
        r["cache_hits"] for r in untraced}
    if len(hits) != 1:
        checks.append(f"selftest: traced and untraced hit counts differ: "
                      f"{sorted(hits)}")
        failures += 1
    shutil.rmtree(run_dir, ignore_errors=True)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    pins = json.loads(PINS.read_text())
    pin = pin_for(pins, workload.name, args.seed)
    prepare()
    cpu_before = cpu_times()
    seed_store = build_seed_store() if workload.name == "warm-sweep" else None
    runs, probes = measure(workload, args.seconds, bool(args.trace),
                           pin.get("only", []), seed_store)

    checks = []
    for index, run in enumerate(runs):
        run["problems"] = problems(workload, run, pin)
        checks += [f"run {index}: {problem}" for problem in run["problems"]]
    passing = [r for r in runs if not r["problems"]]
    failed = len(runs) - len(passing)
    attempted = len(runs)
    traced = [r for r in passing if r["traced"]]
    untraced = [r for r in passing if not r["traced"]]
    info = {"workload": workload.name, "why": workload.why, "host": host(cpu_before, cpu_times()),
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "cells": workload.cells, "runs": attempted}
    if workload.name == "triage":
        info["draw"] = {"index": args.seed % len(pins["triage"]),
                        "only": pin["only"]}
    if args.trace:
        if len(traced) < 2 or not untraced:
            checks.append("fewer than two passing traced runs or no "
                          "passing untraced run")
            failed = max(failed, 1)
            metrics = {}
        else:
            metrics = per_layer(traced, untraced)
            for name in DETERMINISTIC:
                seen = sorted({r["layers"][name] for r in traced})
                if len(seen) > 1:
                    checks.append(f"{name} differs between traced runs: "
                                  f"{seen}")
                    failed += 1
            if workload.name == "warm-sweep":
                failed += selftest_failures(checks, traced, untraced)
        info["trace_runs"] = len(traced)
    else:
        measured = passing or runs
        metrics = end_to_end([r for r in measured if "measured" in r])
        info["samples"] = {name: [r["measured"][name] for r in measured
                                  if "measured" in r]
                           for name in metrics}
        info["scaled_samples"] = {
            name: [scaled(r)[name] for r in measured if "measured" in r]
            for name in metrics}
        info["probes"] = {"reference_s": REFERENCE_S,
                          "wall_s": [wall for wall, _cpu in probes],
                          "cpu_s": [cpu for _wall, cpu in probes]}
        verdict_s = [s for r in passing for s in r.get("mutant_seconds", [])]
        if verdict_s:
            info["mutant_verdict_s"] = summarize(verdict_s)
        recalls = {tuple(r["recall"]) for r in passing if "recall" in r}
        if recalls:
            info["recall"] = [list(v) for v in sorted(recalls)]
    info["failed_ratio"] = failed / attempted
    info["checks"] = checks
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
