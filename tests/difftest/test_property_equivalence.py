"""Property-based differential equivalence on defect-free instructions.

The strongest invariant in the system: for every instruction *without* a
seeded defect, the interpreter and the compiled code must agree on
*arbitrary* inputs — not only on the solver's witnesses.  Hypothesis
drives the random-input generator through the full differential harness.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bytecode.opcodes import bytecode_named
from repro.concolic.explorer import BytecodeInstructionSpec, NativeMethodSpec
from repro.difftest.fuzz import RandomInputGenerator
from repro.difftest.harness import DifferentialTester, Status
from repro.interpreter.primitives import primitive_named
from repro.jit.machine.arm32 import Arm32Backend
from repro.jit.machine.x86 import X86Backend
from repro.jit.native_templates import NativeMethodCompiler
from repro.jit.stack_to_register import StackToRegisterCogit
from repro.concolic.solver.model import Kind, KindTag, Model, SolverContext

#: Instructions with no seeded defect on the given compiler: any
#: disagreement here is a genuine bug in this reproduction.
CLEAN_BYTECODES = (
    "pushTrue", "pushReceiver", "duplicateTop", "popStackTop",
    "storeTemporaryVariable1", "popIntoTemporaryVariable0", "returnTop",
    "shortJumpIfFalse2", "bytecodePrimIdenticalTo", "sendAt",
)
CLEAN_NATIVES = (
    "primitiveAdd", "primitiveSubtract", "primitiveLessThan",
    "primitiveMultiply", "primitiveDiv", "primitiveAt", "primitiveSize",
    "primitiveIdentical", "primitiveClass", "primitiveNegated",
)


class _Path:
    """Minimal stand-in for a PathResult: the harness needs .model."""

    def __init__(self, model):
        self.model = model
        self.constraints = []


def run_random_inputs(spec, compiler_class, seed, count=6):
    tester = DifferentialTester(spec, X86Backend(), compiler_class)
    context = SolverContext.from_memory(tester.memory)
    generator = RandomInputGenerator(context, seed=seed)
    outcomes = []
    for _ in range(count):
        model = generator.random_model()
        outcomes.append(tester.run_path(_Path(model)))
    return outcomes


class TestRandomisedEquivalence:
    @pytest.mark.parametrize("name", CLEAN_BYTECODES)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_clean_bytecodes_never_differ(self, name, seed):
        spec = BytecodeInstructionSpec(bytecode_named(name))
        for outcome in run_random_inputs(spec, StackToRegisterCogit, seed):
            assert outcome.status != Status.DIFFERENCE, outcome.describe()

    @pytest.mark.parametrize("name", CLEAN_NATIVES)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_clean_natives_never_differ(self, name, seed):
        spec = NativeMethodSpec(primitive_named(name))
        for outcome in run_random_inputs(spec, NativeMethodCompiler, seed):
            assert outcome.status != Status.DIFFERENCE, outcome.describe()


class TestRawWordRegression:
    """A raw word of 2^31 or more loads into a signed register as a
    negative number; ``primitiveAt`` must still fail it, as the
    interpreter does, instead of answering a negative SmallInteger."""

    def test_hypothesis_seed_524287(self):
        spec = NativeMethodSpec(primitive_named("primitiveAt"))
        for outcome in run_random_inputs(spec, NativeMethodCompiler, 524287):
            assert outcome.status != Status.DIFFERENCE, outcome.describe()

    @pytest.mark.parametrize("backend", [X86Backend, Arm32Backend],
                             ids=["x86", "arm32"])
    def test_boxed_float_high_word_fails(self, backend):
        # The high word of a boxed -1e10 is 0xC202A05F.
        spec = NativeMethodSpec(primitive_named("primitiveAt"))
        tester = DifferentialTester(spec, backend(), NativeMethodCompiler)
        model = Model(
            SolverContext.from_memory(tester.memory),
            kinds={"stack1": Kind(KindTag.FLOAT),
                   "stack0": Kind(KindTag.SMALL_INT, value=1)},
            float_values={"stack1": -1e10},
            int_values={"stack_size": 2},
        )
        outcome = tester.run_path(_Path(model))
        # Both sides fail the primitive: a match, not a difference.
        assert outcome.status == Status.MATCH, outcome.describe()
