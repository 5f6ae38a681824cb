"""Reproducer emission: one standalone, self-verified script per cause.

Each emitted file embeds only literal data (cell identity, expected
classification, shrunken constraints, minimal model) plus a call into
:mod:`repro.triage.replay`.  Rendering is fully deterministic — sorted
dict keys, fixed layout — so re-emitting the same cause (for example
after ``--resume``) writes byte-identical files.

Self-verification runs the freshly written file once in a fresh
``python`` process with the ``repro`` package on ``PYTHONPATH`` and
requires the script's divergence-asserted exit status (1).  A
reproducer that does not fail standalone is reported with
``self-check: NOT asserted`` rather than silently trusted.  It is split
into :func:`spawn_verifier`, which starts the process and returns at
once, and :func:`self_verify`, which collects its verdict, so the
triage engine confirms and shrinks the next cause while earlier
reproducers are checked (see :mod:`repro.triage.engine`).  The timeout
runs from spawn; a verifier that exceeds it is killed and reaped, and
it counts as not asserted, like one that cannot be started.  The check
is always the file as written, run in a new interpreter — never in
process or in a fork of the (possibly mutant-activated) parent that
skips the ``exec``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from repro.robustness import chaos


def _literal(value, indent: int = 0) -> str:
    """Deterministic Python literal rendering (sorted dict keys)."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        pad = " " * (indent + 4)
        items = ",\n".join(
            f"{pad}{_literal(key)}: {_literal(value[key], indent + 4)}"
            for key in sorted(value)
        )
        return "{\n" + items + ",\n" + " " * indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "()"
        items = ", ".join(_literal(entry) for entry in value)
        if len(value) == 1:
            items += ","
        return f"({items})"
    return repr(value)


def reproducer_filename(signature) -> str:
    return f"{signature.slug()}-{signature.digest}.py"


def reproducer_source(cause, config) -> str:
    """The full source text of one cause's standalone reproducer."""
    signature = cause.signature
    expect = dict(signature.to_dict(), backend=cause.exemplar_backend)
    lines = [
        "#!/usr/bin/env python3",
        '"""Standalone reproducer emitted by `repro campaign --triage`.',
        "",
        f"signature: {signature.canonical()}",
        f"digest:    {signature.digest}",
        f"shrunken:  {cause.shrunken_shape or '(not shrunk)'}",
        "",
        "Rebuilds the frame from the minimal model below and runs the",
        "interpreter and the JIT side by side — no campaign machinery.",
        "Exits 1 when the divergence reproduces, 0 when it has vanished.",
        "",
        "Run with:  PYTHONPATH=src python " + reproducer_filename(signature),
        '"""',
        "",
        "import sys",
        "",
        "from repro.triage.replay import replay",
        "",
        f"EXPECT = {_literal(expect)}",
        f"CONSTRAINTS = {_literal(tuple(cause.constraints))}",
        f"MODEL = {_literal(cause.model or {})}",
        f"MAX_SIM_STEPS = {config.max_sim_steps}",
        f"FAULT_DESCRIBER_GAPS = {_literal(tuple(config.fault_describer_gaps))}",
        f"MUTANTS = {_literal(tuple(getattr(config, 'mutants', ())))}",
        "",
        "",
        "def main() -> int:",
        "    verdict = replay(EXPECT, MODEL, CONSTRAINTS,",
        "                     max_sim_steps=MAX_SIM_STEPS,",
        "                     fault_describer_gaps=FAULT_DESCRIBER_GAPS,",
        "                     mutants=MUTANTS)",
        "    print(verdict.describe())",
        "    return 1 if verdict.reproduced else 0",
        "",
        "",
        'if __name__ == "__main__":',
        "    sys.exit(main())",
    ]
    return "\n".join(lines) + "\n"


def emit_reproducer(cause, repro_dir, config) -> Path:
    """Write (or deterministically re-write) one cause's reproducer."""
    path = Path(repro_dir) / reproducer_filename(cause.signature)
    path.parent.mkdir(parents=True, exist_ok=True)
    source = reproducer_source(cause, config)
    if not path.exists() or path.read_text(encoding="utf-8") != source:
        chaos.write_point("triage", path, source.encode("utf-8"))
        path.write_text(source, encoding="utf-8")
    return path


class Verifier(NamedTuple):
    """One reproducer's self-check in flight."""

    #: The running ``python`` process; None when it could not start.
    process: subprocess.Popen | None
    #: ``time.monotonic()`` after which the check counts as failed.
    deadline: float


def spawn_verifier(path, timeout: float = 300.0) -> Verifier:
    """Start running an emitted reproducer in a fresh process.

    The subprocess gets the currently imported ``repro`` package on
    ``PYTHONPATH``, so verification works regardless of how the parent
    was launched.  *timeout* counts from now, not from collection.
    """
    import repro

    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing else src_dir + os.pathsep + existing
    )
    deadline = time.monotonic() + timeout
    try:
        process = subprocess.Popen(
            [sys.executable, str(path)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
    except OSError:
        return Verifier(None, deadline)
    return Verifier(process, deadline)


def self_verify(verifier: Verifier) -> bool:
    """Wait for a spawned reproducer; True iff it asserts the divergence."""
    process = verifier.process
    if process is None:
        return False
    try:
        returncode = process.wait(
            timeout=max(0.0, verifier.deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        abandon(verifier)
        return False
    return returncode == 1


def abandon(verifier: Verifier) -> None:
    """Kill a verifier that is still running and reap it."""
    process = verifier.process
    if process is None:
        return
    process.kill()  # a no-op once the process has been reaped
    process.wait()
