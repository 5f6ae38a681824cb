"""Regenerate ``pins.json``: the verdicts every benchmark run must match.

Run from the root of a checkout whose verdicts are known to be right::

    python3 perfbench/pin.py [--new-draws]

It pins, each from runs through ``run.py``'s own child process:

* ``cold``: the sha256 of ``campaign_fingerprint`` of the full plan
  (``cold-j2``);
* ``warm-sweep``: the sha256 of ``RecallReport.to_dict(include_timing=
  False)``, with recall 8/8 and every cell a store hit;
* ``triage``: 6 draws of 40 instructions (``--seed`` mod 6 picks
  one), each with its campaign digest and the sha256 of its sorted
  cause-signature digests, every reproducer self-verified.

A draw holds the two instructions whose verdicts carry the seeded
R10/R11 defects, 12 more native methods and 26 byte-codes, drawn again
until they carry as many cause buckets as the mean draw, so every draw
emits and self-verifies the same number of reproducers.  Shrinking
cost is far from additive over instructions (it shares the solver
memo), so ``--new-draws`` (implied when there is no ``pins.json``)
times 48 such candidates and halves them three times, keeping the
draws whose mean wall clock is nearest the median: every seed then
asks for the same amount of work, and the spread over seeds is the
spread of the program.  Without it the pinned draws are kept and only
their digests are pinned again.
"""

from __future__ import annotations

import json
import random
import sys

import run
from spans import median

CANDIDATES = 48
NATIVES = 12
BYTECODES = 26
MUTANTS = ("R10", "R11")


def inventory() -> tuple:
    """(instructions whose R10/R11 verdicts carry a seeded cause, other
    native methods, byte-codes, instruction -> cause buckets), from one
    in-process campaign; buckets are per instruction, so they add up."""
    sys.path.insert(0, str(run.SRC))
    from repro.difftest.runner import CampaignConfig, run_campaign
    from repro.triage.candidates import bucket_candidates, collect_divergences

    result = run_campaign(CampaignConfig(mutants=MUTANTS))
    kinds = {cell.instruction: cell.kind
             for report in result for cell in report.results}
    causes = dict.fromkeys(kinds, 0)
    seeded = set()
    for sig, _group in bucket_candidates(collect_divergences(result)).values():
        causes[sig.instruction] += 1
        if sig.cause.rsplit(":", 1)[-1] in MUTANTS:
            seeded.add(sig.instruction)
    natives = sorted(n for n, k in kinds.items()
                     if k == "native" and n not in seeded)
    bytecodes = sorted(n for n, k in kinds.items() if k == "bytecode")
    return sorted(seeded), natives, bytecodes, causes


def candidate(index: int, seeded, natives, bytecodes, causes) -> list:
    """A random draw carrying the cause-bucket count of the mean draw."""
    def mean(names):
        return sum(causes[n] for n in names) / len(names)

    target = round(NATIVES * mean(natives) + BYTECODES * mean(bytecodes))
    rng = random.Random(index)
    while True:
        pick = rng.sample(natives, NATIVES) + rng.sample(bytecodes, BYTECODES)
        if sum(causes[n] for n in pick) == target:
            return sorted(seeded + pick)


def pin_run(name: str, draw: list, seed_store=None) -> tuple:
    """``(pin, wall_s)`` of one clean run of *name*."""
    workload = run.WORKLOADS[name]
    facts = run.run_once(workload, 0, draw, False, seed_store)
    pin = {key: facts[key] for key in ("digest", "cause_digest")
           if key in facts}
    found = run.problems(workload, facts, pin)
    if found:
        raise SystemExit(f"pin: {name} run is not clean: {found}")
    return pin, facts["measured"]["wall_s"]


def new_draws() -> list:
    """Halve 48 candidates three times, timing the survivors 1, 2 and 3
    more times and keeping the half whose mean wall clock is nearest
    the median of their means."""
    pool = inventory()
    draws = [candidate(index, *pool) for index in range(CANDIDATES)]
    pins, walls = {}, {index: [] for index in range(CANDIDATES)}
    alive = list(range(CANDIDATES))
    for repeats in (1, 2, 3):
        for _ in range(repeats):
            for index in alive:
                pin, wall = pin_run("triage", draws[index])
                if pins.setdefault(index, pin) != pin:
                    raise SystemExit(f"pin: candidate {index} is not "
                                     "deterministic")
                walls[index].append(wall)
        means = {i: sum(walls[i]) / len(walls[i]) for i in alive}
        middle = median(means.values())
        alive = sorted(alive, key=lambda i: abs(means[i] - middle))
        alive = alive[:len(alive) // 2]
    print(f"pin: kept {sorted(alive)}", file=sys.stderr)
    return [{"only": draws[index], **pins[index]} for index in sorted(alive)]


def main() -> int:
    run.prepare()
    cold, _wall = pin_run("cold-j2", [])
    warm, _wall = pin_run("warm-sweep", [], run.build_seed_store())
    if "--new-draws" in sys.argv or not run.PINS.exists():
        triage = new_draws()
    else:
        triage = [{"only": entry["only"],
                   **pin_run("triage", entry["only"])[0]}
                  for entry in json.loads(run.PINS.read_text())["triage"]]
    pins = {"cold": cold, "warm-sweep": warm, "triage": triage}
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
