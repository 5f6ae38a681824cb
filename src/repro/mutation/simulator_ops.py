"""Simulator-family mutants: the historical fault-describer gaps.

The paper's "Simulation Error" Table 3 family came from two real
defects: the CPU simulator's reflective fault describer had no getter
for ``R10`` and ``R11``, so any machine fault whose description needed
one of those registers crashed the *simulation* instead of producing a
comparable outcome.  The shipped simulator derives its getter table,
:attr:`MachineSimulator.describable_registers`, from the register file
(the fix).

These two mutants are the one way to re-seed that defect: ``R10`` and
``R11`` each remove their own register from the live table and put it
back on undo, so they compose in any order and any nesting, and the
fully undone table equals the shipped one.  The paper-fidelity
benchmarks run under both (``tests/mutation/test_fidelity.py`` pins
the Table 2/Table 3 rows they reproduce).
"""

from __future__ import annotations

from repro.jit.machine.simulator import MachineSimulator
from repro.mutation.registry import Mutant, register


#: The shipped table.  Once every gap is undone the exact object goes
#: back, as the registry's reversal contract (checked by identity)
#: requires.
_SHIPPED = MachineSimulator.describable_registers


def _set_table(table: frozenset) -> None:
    MachineSimulator.describable_registers = (
        _SHIPPED if table == _SHIPPED else table
    )


def _install_describer_gap(register_name: str):
    def install():
        _set_table(MachineSimulator.describable_registers - {register_name})

        def undo():
            _set_table(
                MachineSimulator.describable_registers | {register_name}
            )

        return undo

    return install


for _register_name in ("R10", "R11"):
    register(Mutant(
        id=_register_name,
        family="simulator",
        target="repro.jit.machine.simulator.MachineSimulator"
               ".describable_registers",
        description=(
            f"remove the fault describer's reflective getter for "
            f"{_register_name} (the historical defect behind "
            f"--fault-describer-gaps)"
        ),
        install=_install_describer_gap(_register_name),
        # A describer gap only fires when a machine fault's base
        # register *is* the gapped register.  R11 was long annotated
        # as latent, but the main corpus does reach it:
        # primitiveFloatTruncated faults with base R10 and
        # primitiveFloatFractionPart with base R11
        # ("FLOAD at address 0xb (base R11=0x3)"), at every default
        # budget on both backends, so both halves of the historical
        # defect now sit inside the CI recall gate.  The stitched
        # corpus reaches neither: no stitched method faults with R10
        # or R11 as base (measured in docs/MUTATION.md §R11).
    ))
