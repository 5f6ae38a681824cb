"""Registry unit tests: inventory, refcounting, byte-exact reversal.

Every registered operator patches live class/module attributes; these
tests assert the activation contract from
:mod:`repro.mutation.registry` — apply on the 0→1 transition, revert
on 1→0, and the *exact original objects* back in place afterwards.
"""

from __future__ import annotations

import pytest

from repro.interpreter import primitives as _primitives
from repro.interpreter.interpreter import Interpreter
from repro.jit.compiler import BytecodeCogit
from repro.jit.machine.simulator import MachineSimulator
from repro.jit.stack_to_register import StackToRegisterCogit
from repro.memory.object_memory import ObjectMemory
from repro.mutation import (
    FAMILIES,
    MUTANTS,
    Mutant,
    activated,
    active_ids,
    all_ids,
    by_family,
    get,
    parse_mutants,
    register,
)
from repro.mutation.registry import _apply, _revert

#: Every attribute any registered operator touches.  Snapshots of
#: these are compared *by identity* around an apply/revert cycle.
PATCH_POINTS = (
    (Interpreter, "_arith_binary"),
    (ObjectMemory, "is_integer_object"),
    (ObjectMemory, "are_integers"),
    (_primitives, "_fail"),
    (BytecodeCogit, "gen_bytecodePrimLessThan"),
    (BytecodeCogit, "TMP_B"),
    (StackToRegisterCogit, "gen_flush"),
    (MachineSimulator, "describable_registers"),
)


def snapshot():
    return tuple(getattr(obj, name) for obj, name in PATCH_POINTS)


class TestInventory:
    def test_all_ids(self):
        assert all_ids() == (
            "C1", "C2", "C3", "I1", "I2", "I3", "R10", "R11",
        )

    def test_families(self):
        assert {m.family for m in MUTANTS.values()} == set(FAMILIES)
        assert [m.id for m in by_family("interpreter")] == ["I1", "I2", "I3"]
        assert [m.id for m in by_family("compiler")] == ["C1", "C2", "C3"]
        assert [m.id for m in by_family("simulator")] == ["R10", "R11"]

    def test_expected_caught_subset(self):
        # Every mutant now sits inside the CI recall gate: C3 is
        # caught through the stitched-method corpus and R11 through
        # primitiveFloatFractionPart's FLOAD fault (docs/MUTATION.md).
        outside_gate = [
            m.id for m in MUTANTS.values() if not m.expected_caught
        ]
        assert outside_gate == []

    def test_corpus_assignments(self):
        # C3 is the only mutant swept through the stitched corpus;
        # everything else runs the main single-instruction campaign.
        stitched = [
            m.id for m in MUTANTS.values() if m.corpus == "stitched"
        ]
        assert stitched == ["C3"]
        assert all(
            m.corpus in ("main", "stitched") for m in MUTANTS.values()
        )

    def test_convergence_bounds(self):
        # The register clobber is the one mutant whose phenotype spans
        # generators, so it alone carries no convergence bound.
        assert get("C2").convergence_bound is None
        assert all(
            m.convergence_bound == 2
            for m in MUTANTS.values() if m.id != "C2"
        )

    def test_get_unknown_lists_inventory(self):
        with pytest.raises(KeyError, match="R10"):
            get("Z9")

    def test_register_rejects_duplicate_id(self):
        with pytest.raises(ValueError, match="duplicate"):
            register(Mutant(
                id="I1", family="interpreter", target="x",
                description="dup", install=lambda: (lambda: None),
            ))

    def test_register_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            register(Mutant(
                id="Z9", family="oracle", target="x",
                description="bad family", install=lambda: (lambda: None),
            ))


class TestParseMutants:
    def test_comma_split_and_dedupe(self):
        assert parse_mutants(["R10,C1", "R10", "C1,I1"]) == (
            "R10", "C1", "I1",
        )

    def test_empty(self):
        assert parse_mutants(None) == ()
        assert parse_mutants(["", " , "]) == ()

    def test_unknown_id_exits_with_inventory(self):
        with pytest.raises(SystemExit) as excinfo:
            parse_mutants(["R10,RR11"])
        message = str(excinfo.value)
        assert "RR11" in message
        assert "R10" in message  # the registered inventory is listed


class TestActivation:
    @pytest.mark.parametrize("mutant_id", all_ids())
    def test_apply_then_revert_restores_originals(self, mutant_id):
        before = snapshot()
        with activated((mutant_id,)):
            assert active_ids() == (mutant_id,)
            during = snapshot()
            assert any(a is not b for a, b in zip(before, during)), (
                f"mutant {mutant_id} patched nothing"
            )
        assert active_ids() == ()
        after = snapshot()
        assert all(a is b for a, b in zip(before, after)), (
            f"mutant {mutant_id} did not restore the original attributes"
        )

    def test_nesting_is_reference_counted(self):
        original = Interpreter._arith_binary
        with activated(("I1",)):
            patched = Interpreter._arith_binary
            assert patched is not original
            with activated(("I1", "C1")):
                # Inner activation must not re-patch (same object)...
                assert Interpreter._arith_binary is patched
                assert set(active_ids()) == {"I1", "C1"}
            # ...and the inner exit must not revert the outer hold.
            assert Interpreter._arith_binary is patched
            assert active_ids() == ("I1",)
        assert Interpreter._arith_binary is original

    def test_reverts_on_exception(self):
        before = snapshot()
        with pytest.raises(RuntimeError, match="boom"):
            with activated(("I2", "C2")):
                raise RuntimeError("boom")
        assert all(a is b for a, b in zip(before, snapshot()))
        assert active_ids() == ()

    def test_empty_activation_is_noop(self):
        before = snapshot()
        with activated(()):
            assert snapshot() == before
            assert active_ids() == ()

    def test_describer_gaps_revert_in_any_order(self):
        """R10 and R11 each edit the one describer table: reverting
        them out of nesting order still restores the shipped table."""
        shipped = MachineSimulator.describable_registers
        _apply("R10")
        _apply("R11")
        assert not {"R10", "R11"} & MachineSimulator.describable_registers
        _revert("R10")
        assert MachineSimulator.describable_registers == shipped - {"R11"}
        _revert("R11")
        assert MachineSimulator.describable_registers is shipped

    def test_unbalanced_revert_raises(self):
        with pytest.raises(RuntimeError, match="not active"):
            _revert("I1")

    def test_unknown_id_raises_before_patching(self):
        before = snapshot()
        with pytest.raises(KeyError):
            with activated(("Z9",)):
                pass  # pragma: no cover - never reached
        assert all(a is b for a, b in zip(before, snapshot()))
