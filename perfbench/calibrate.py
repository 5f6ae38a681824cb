"""Host-speed calibration for the campaign benchmark.

The benchmark shares a few cores of a host with other tenants, and the
speed those cores give moves by up to a factor of two over minutes:
identical ``campaign --no-cache -j 1`` runs of one commit have taken
2.7 s and 5.5 s on the same machine an hour apart.  A median over one
run's repeats cannot remove a drift that slow, so ``run.py`` brackets
every timed run with :func:`probe` — a fixed pure-Python workload that
no code of the repository touches — and scales the run's times by
``REFERENCE_S`` over the mean time of the two probes around it.  A
change to the program moves the scaled times as it moves the raw ones;
a change in host speed moves the probe with the run and largely
cancels out.

The probe is a small stack-machine interpreter over a fixed program:
attribute and dict look-ups, calls, small-object allocation and list
traffic, the same kind of work the concolic explorer and the reference
interpreter do.
"""

from __future__ import annotations

import time

#: Probe wall seconds that the scaled times are expressed against.
REFERENCE_S = 0.75

#: Interpreter passes of one probe: about REFERENCE_S on an idle 2-vCPU
#: Xeon guest with CPython 3.11.  A probe much shorter than a timed run
#: samples the host's second-to-second swings instead of its level.
PASSES = 6000


class _Frame:
    __slots__ = ("stack", "pc", "temps")

    def __init__(self, temps: int) -> None:
        self.stack: list = []
        self.pc = 0
        self.temps = [0] * temps


class _Box:
    __slots__ = ("value", "tag")

    def __init__(self, value: int, tag: str) -> None:
        self.value = value
        self.tag = tag


def _program() -> list:
    """A loop that boxes, adds, compares and stores 60 times."""
    code = [("push", 0), ("store", 0)]
    loop = len(code)
    code += [
        ("load", 0), ("push", 3), ("add", None), ("box", "int"),
        ("unbox", None), ("dup", None), ("store", 1),
        ("load", 1), ("push", 7), ("mul", None), ("push", 1023),
        ("band", None), ("store", 2),
        ("load", 0), ("push", 1), ("add", None), ("store", 0),
        ("load", 0), ("push", 60), ("lt", None), ("jumpif", loop),
        ("load", 2), ("ret", None),
    ]
    return code


def _run(code: list, table: dict) -> int:
    frame = _Frame(4)
    while True:
        op, arg = code[frame.pc]
        frame.pc += 1
        result = table[op](frame, arg)
        if result is not None:
            return result


def _table() -> dict:
    def push(f, a):
        f.stack.append(a)

    def load(f, a):
        f.stack.append(f.temps[a])

    def store(f, a):
        f.temps[a] = f.stack.pop()

    def dup(f, a):
        f.stack.append(f.stack[-1])

    def binary(fn):
        def op(f, a):
            right = f.stack.pop()
            f.stack.append(fn(f.stack.pop(), right))
        return op

    def box(f, a):
        f.stack.append(_Box(f.stack.pop(), a))

    def unbox(f, a):
        f.stack.append(f.stack.pop().value)

    def jumpif(f, a):
        if f.stack.pop():
            f.pc = a

    def ret(f, a):
        return f.stack.pop()

    return {"push": push, "load": load, "store": store, "dup": dup,
            "add": binary(lambda x, y: x + y),
            "mul": binary(lambda x, y: x * y),
            "band": binary(lambda x, y: x & y),
            "lt": binary(lambda x, y: x < y),
            "box": box, "unbox": unbox, "jumpif": jumpif, "ret": ret}


def probe() -> tuple:
    """One probe: ``(wall seconds, cpu seconds)`` of a fixed workload."""
    code, table = _program(), _table()
    seen = {}
    w0, c0 = time.perf_counter(), time.process_time()
    for index in range(PASSES):
        result = _run(code, table)
        seen[f"pass-{index % 17}"] = result
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if len(seen) != 17 or set(seen.values()) != {_run(code, table)}:
        raise RuntimeError("calibration probe computed a wrong result")
    return wall, cpu


if __name__ == "__main__":
    print("%r %r" % probe())
