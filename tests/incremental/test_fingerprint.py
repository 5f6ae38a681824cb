"""Semantic fingerprints: determinism and sensitivity.

A fingerprint must be stable across processes (the store is persistent)
and must move exactly when a cell's semantics could move: budget knobs
that change results, the spec's operand shape, the backend set.  Scope
knobs that merely select cells must *not* move it — or narrowing a
campaign would needlessly invalidate the cache.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import replace

import pytest

from repro.concolic.explorer import BytecodeInstructionSpec, NativeMethodSpec
from repro.bytecode.opcodes import bytecode_named
from repro.difftest.runner import CampaignConfig, campaign_rows
from repro.incremental import cell_fingerprint, plan_fingerprints
from repro.interpreter.primitives import primitive_named
from repro.jit.machine.arm32 import Arm32Backend
from repro.jit.machine.x86 import X86Backend
from repro.jit.stack_to_register import StackToRegisterCogit
from repro.mutation import activated

CONFIG = CampaignConfig(backends=(X86Backend,))
SPEC = BytecodeInstructionSpec(bytecode_named("bytecodePrimAdd"))


def fingerprint(config=CONFIG, spec=SPEC, compiler=StackToRegisterCogit):
    return cell_fingerprint(spec, compiler, config)


class TestDeterminism:
    def test_stable_within_process(self):
        assert fingerprint() == fingerprint()

    def test_stable_across_processes(self):
        """The store is persistent: a fresh interpreter re-deriving the
        same cell must land on the same hash (no id()/repr addresses,
        no hash randomization leaking in)."""
        script = (
            "from repro.concolic.explorer import BytecodeInstructionSpec\n"
            "from repro.bytecode.opcodes import bytecode_named\n"
            "from repro.difftest.runner import CampaignConfig\n"
            "from repro.incremental import cell_fingerprint\n"
            "from repro.jit.machine.x86 import X86Backend\n"
            "from repro.jit.stack_to_register import StackToRegisterCogit\n"
            "spec = BytecodeInstructionSpec(bytecode_named('bytecodePrimAdd'))\n"
            "config = CampaignConfig(backends=(X86Backend,))\n"
            "print(cell_fingerprint(spec, StackToRegisterCogit, config))\n"
        )
        import os
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        runs = set()
        for seed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True, env=env,
            )
            runs.add(proc.stdout.strip())
        assert runs == {fingerprint()}

    def test_gapped_describer_table_stable_across_processes(self):
        """The describer defect leaves a ``frozenset`` on the simulator
        class, whose iteration order follows the string hash seed; the
        fingerprint must render it order-free or a warm store would
        miss every seeded cell in the next process."""
        script = (
            "from repro.concolic.explorer import BytecodeInstructionSpec\n"
            "from repro.bytecode.opcodes import bytecode_named\n"
            "from repro.difftest.runner import CampaignConfig\n"
            "from repro.incremental import cell_fingerprint\n"
            "from repro.jit.machine.x86 import X86Backend\n"
            "from repro.jit.stack_to_register import StackToRegisterCogit\n"
            "from repro.mutation import activated\n"
            "spec = BytecodeInstructionSpec(bytecode_named('bytecodePrimAdd'))\n"
            "config = CampaignConfig(backends=(X86Backend,))\n"
            "with activated(('R10', 'R11')):\n"
            "    print(cell_fingerprint(spec, StackToRegisterCogit, config))\n"
        )
        import os
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        runs = set()
        for seed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True, env=env,
            )
            runs.add(proc.stdout.strip())
        with activated(("R10", "R11")):
            assert runs == {fingerprint()}

    def test_plan_fingerprints_cover_every_cell(self):
        from repro.parallel.shard import plan_cells

        rows = campaign_rows(CONFIG)
        fps = plan_fingerprints(rows, CONFIG)
        assert set(fps) == {cell.key for cell in plan_cells(rows)}
        assert all(len(fp) == 64 for fp in fps.values())


class TestSensitivity:
    def test_distinct_cells_distinct_fingerprints(self):
        rows = campaign_rows(CONFIG)
        fps = plan_fingerprints(rows, CONFIG)
        assert len(set(fps.values())) == len(fps)

    @pytest.mark.parametrize("knob", [
        dict(max_paths_per_instruction=8),
        dict(max_iterations=7),
        dict(max_sim_steps=123),
        dict(boundary_witnesses=True),
        dict(backends=(X86Backend, Arm32Backend)),
    ])
    def test_budget_knobs_invalidate(self, knob):
        assert fingerprint(replace(CONFIG, **knob)) != fingerprint()

    @pytest.mark.parametrize("gaps", [("R10",), ("R11",)])
    def test_describer_gaps_invalidate(self, gaps):
        """Seeding the describer defect moves every fingerprint, each
        gap set to its own hash, and undoing it moves them back."""
        base = fingerprint()
        with activated(gaps):
            gapped = fingerprint()
            with activated(("R10", "R11")):
                both = fingerprint()
        assert len({base, gapped, both}) == 3
        assert fingerprint() == base

    @pytest.mark.parametrize("knob", [
        dict(max_bytecodes=3),
        dict(max_natives=1),
        dict(only=("bytecodePrimAdd",)),
        dict(deadline_seconds=30.0),
        dict(fail_fast=True),
        dict(profile=True),
    ])
    def test_scope_knobs_do_not_invalidate(self, knob):
        """Narrowing or instrumenting a campaign selects cells; it never
        changes what one cell computes."""
        assert fingerprint(replace(CONFIG, **knob)) == fingerprint()

    def test_spec_shape_matters(self):
        add = fingerprint(spec=BytecodeInstructionSpec(
            bytecode_named("bytecodePrimAdd")))
        push = fingerprint(spec=BytecodeInstructionSpec(
            bytecode_named("pushTrue")))
        native = fingerprint(spec=NativeMethodSpec(
            primitive_named("primitiveAdd")))
        assert len({add, push, native}) == 3

    def test_same_family_different_operator_differs(self):
        """primitiveAdd and primitiveSubtract share one factory-made
        code object and differ only in the captured operator — the
        closure-cell hashing must tell them apart."""
        add = fingerprint(spec=NativeMethodSpec(primitive_named("primitiveAdd")))
        sub = fingerprint(spec=NativeMethodSpec(
            primitive_named("primitiveSubtract")))
        assert add != sub

    def test_compiler_matters(self):
        from repro.jit.simple_stack import SimpleStackBasedCogit

        assert fingerprint(compiler=SimpleStackBasedCogit) != fingerprint()
