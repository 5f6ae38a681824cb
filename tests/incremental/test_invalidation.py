"""The exact-invalidation property, over the whole mutant registry.

For every registered mutant, a cell's fingerprint must change **iff**
the mutant's patched attribute is in that cell's semantic closure:

* *no under-invalidation* — a cell whose closure contains the patched
  member must change fingerprint (or a mutated result could be served
  to a baseline run, silently masking the defect the mutant seeds);
* *no over-invalidation* — a cell whose closure does not contain it
  must keep its baseline fingerprint (or `repro mutate` would re-run
  the whole grid per mutant and the cache would be pointless).

The expected set is derived independently of the fingerprint recipe:
the test diffs the live class/module namespaces around
``mutant.install()`` to find what was actually patched, then checks
each cell's :func:`fingerprint_members` closure for the *original*
object by identity.  Nothing here hard-codes which cells a mutant
should touch — the property holds for future mutants automatically.
"""

from __future__ import annotations

import sys

import pytest

from repro.difftest.runner import (
    CampaignConfig,
    campaign_rows,
    stitched_campaign_rows,
)
from repro.incremental import fingerprint_members, plan_fingerprints
from repro.jit.machine.x86 import X86Backend
from repro.mutation import MUTANTS, activated

CONFIG = CampaignConfig(backends=(X86Backend,))
STITCH_CONFIG = CampaignConfig(backends=(X86Backend,), stitch_fragments=6,
                               stitch_max_methods=6)


def _candidate_namespaces():
    """Every namespace a mutant could patch (superset of the ones the
    fingerprint walks)."""
    from repro.interpreter import exits, ffi_primitives, primitives
    from repro.interpreter.frame import Frame
    from repro.interpreter.interpreter import Interpreter
    from repro.jit.compiler import BytecodeCogit
    from repro.jit.machine.simulator import MachineSimulator
    from repro.jit.native_templates import NativeMethodCompiler
    from repro.jit.register_allocating import RegisterAllocatingCogit
    from repro.jit.simple_stack import SimpleStackBasedCogit
    from repro.jit.stack_to_register import StackToRegisterCogit
    from repro.memory.object_memory import ObjectMemory

    namespaces = [Interpreter, ObjectMemory, Frame, primitives, exits,
                  ffi_primitives, MachineSimulator, NativeMethodCompiler]
    for compiler in (SimpleStackBasedCogit, StackToRegisterCogit,
                     RegisterAllocatingCogit, BytecodeCogit):
        for base in compiler.__mro__:
            if base is not object and base not in namespaces:
                namespaces.append(base)
    # The walk also resolves names on each function's defining module.
    for namespace in list(namespaces):
        module = sys.modules.get(getattr(namespace, "__module__", ""))
        if module is not None and module not in namespaces:
            namespaces.append(module)
    return namespaces


def patched_members(mutant) -> dict:
    """``{(namespace, attr name): original object}`` the mutant swaps,
    found by diffing live namespaces around ``install()``."""
    namespaces = _candidate_namespaces()
    before = [dict(vars(ns)) for ns in namespaces]
    patched: dict = {}
    with activated((mutant.id,)):
        for ns, old in zip(namespaces, before):
            new = vars(ns)
            for name in set(old) | set(new):
                if old.get(name) is not new.get(name):
                    patched[(ns, name)] = old.get(name)
    return patched


def _is_patched(label, name, value, patched, originals) -> bool:
    """Whether closure member ``(label, name) = value`` is a patched
    original.  A member resolved on a function's defining module is
    labelled with the module's dotted name and is patched only if that
    module's attribute was: an equal interned constant elsewhere
    (``native_templates.TMP_B`` vs ``BytecodeCogit.TMP_B``) is not."""
    if (name, id(value)) not in originals:
        return False
    module = sys.modules.get(label) if "." in label else None
    return module is None or patched.get((module, name), None) is value


def expected_invalidations(rows, patched) -> set:
    """Cell keys whose baseline closure contains a patched original."""
    from repro.parallel.shard import plan_cells

    originals = {(name, id(value)) for (_ns, name), value in patched.items()}
    expected = set()
    memo: dict = {}
    for cell in plan_cells(rows):
        row = rows[cell.row_index]
        spec = row.specs[cell.spec_index]
        memo_key = (cell.kind, cell.instruction, cell.compiler)
        if memo_key not in memo:
            members = fingerprint_members(spec, row.compiler_class)
            hit = False
            for (label, name), value in members.items():
                if label == "root":
                    # Root entries are keyed "index:funcname" so two
                    # same-named roots cannot collide.
                    name = name.split(":", 1)[1]
                if _is_patched(label, name, value, patched, originals):
                    hit = True
                    break
            memo[memo_key] = hit
        if memo[memo_key]:
            expected.add(cell.key)
    return expected


def rows_for(mutant):
    if mutant.corpus == "stitched":
        return stitched_campaign_rows(STITCH_CONFIG), STITCH_CONFIG
    return campaign_rows(CONFIG), CONFIG


@pytest.mark.parametrize("mutant_id", sorted(MUTANTS))
def test_exact_invalidation(mutant_id):
    mutant = MUTANTS[mutant_id]
    rows, config = rows_for(mutant)

    patched = patched_members(mutant)
    assert patched, f"{mutant_id} patched nothing the test can observe"

    baseline = plan_fingerprints(rows, config)
    mutated = plan_fingerprints(
        rows, type(config)(**{**config.__dict__, "mutants": (mutant_id,)})
    )
    assert set(baseline) == set(mutated)

    changed = {key for key in baseline if baseline[key] != mutated[key]}
    expected = expected_invalidations(rows, patched)

    # A mutant that invalidates nothing can never be detected
    # incrementally — guard against a vacuous pass.
    assert expected, f"{mutant_id} would invalidate no cell in its corpus"
    under = expected - changed
    over = changed - expected
    assert not under, f"{mutant_id} under-invalidates: {sorted(under)[:5]}"
    assert not over, f"{mutant_id} over-invalidates: {sorted(over)[:5]}"


def test_baseline_fingerprints_recover_after_revert():
    """Activation is balanced: once the mutant is reverted, the plan's
    fingerprints are bit-identical to the untouched baseline."""
    rows = campaign_rows(CONFIG)
    baseline = plan_fingerprints(rows, CONFIG)
    mutated_config = type(CONFIG)(**{**CONFIG.__dict__, "mutants": ("I2",)})
    plan_fingerprints(rows, mutated_config)
    assert plan_fingerprints(rows, CONFIG) == baseline
