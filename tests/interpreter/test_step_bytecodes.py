"""Single-instruction interpreter tests: one scenario per family.

Each test builds a tiny method around the instruction under test and
checks the exit condition plus the operand-stack/frame effects.  These
are the hand-written analogues of what the concolic tester generates.
"""

from __future__ import annotations

import pytest

from repro.bytecode.assembler import assemble
from repro.interpreter.exits import ExitCondition
from repro.interpreter.frame import Frame
from repro.memory.layout import MAX_SMALL_INT, MIN_SMALL_INT


def make_frame(vm, instructions, receiver=None, stack=(), literals=(), args=()):
    """Build a one-off method and a frame poised at its first byte-code."""
    builder = vm.builder().args(len(args)).temps(max(len(args), 4))
    for literal in literals:
        builder.literal(literal)
    code = assemble(instructions)
    for byte in code:
        builder.emit(byte)
    method = builder.build()
    frame = Frame(
        receiver if receiver is not None else vm.memory.nil_object,
        method,
        list(args),
    )
    for value in stack:
        frame.push(value)
    return frame


class TestPushes:
    def test_push_receiver(self, vm):
        receiver = vm.int_oop(5)
        frame = make_frame(vm, ["pushReceiver"], receiver=receiver)
        result = vm.interpreter.step(frame)
        assert result.condition == ExitCondition.SUCCESS
        assert frame.stack == [receiver]

    def test_push_constants(self, vm):
        frame = make_frame(vm, ["pushTrue", "pushFalse", "pushNil", "pushTwo"])
        for _ in range(4):
            assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        memory = vm.memory
        assert frame.stack == [
            memory.true_object,
            memory.false_object,
            memory.nil_object,
            vm.int_oop(2),
        ]

    def test_push_literal(self, vm):
        literal = vm.int_oop(42)
        frame = make_frame(vm, ["pushLiteralConstant0"], literals=[literal])
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert frame.stack == [literal]

    def test_push_missing_literal_is_invalid_memory(self, vm):
        frame = make_frame(vm, ["pushLiteralConstant3"], literals=[])
        result = vm.interpreter.step(frame)
        assert result.condition == ExitCondition.INVALID_MEMORY_ACCESS

    def test_push_temp(self, vm):
        argument = vm.int_oop(9)
        frame = make_frame(vm, ["pushTemporaryVariable0"], args=[argument])
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert frame.stack == [argument]

    def test_push_uninitialized_temp_is_invalid_frame(self, vm):
        frame = make_frame(vm, ["pushTemporaryVariable2"])
        assert vm.interpreter.step(frame).condition == ExitCondition.INVALID_FRAME

    def test_push_receiver_variable(self, vm):
        receiver = vm.memory.instantiate(vm.known.plain_object)
        vm.memory.store_pointer(1, receiver, vm.int_oop(7))
        frame = make_frame(vm, ["pushReceiverVariable1"], receiver=receiver)
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert frame.stack == [vm.int_oop(7)]

    def test_push_receiver_variable_of_smallint_is_invalid_memory(self, vm):
        frame = make_frame(vm, ["pushReceiverVariable0"], receiver=vm.int_oop(3))
        result = vm.interpreter.step(frame)
        assert result.condition == ExitCondition.INVALID_MEMORY_ACCESS


class TestStackManipulation:
    def test_dup(self, vm):
        frame = make_frame(vm, ["duplicateTop"], stack=[vm.int_oop(1)])
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert frame.stack == [vm.int_oop(1), vm.int_oop(1)]

    def test_dup_empty_stack_is_invalid_frame(self, vm):
        frame = make_frame(vm, ["duplicateTop"])
        assert vm.interpreter.step(frame).condition == ExitCondition.INVALID_FRAME

    def test_pop(self, vm):
        frame = make_frame(vm, ["popStackTop"], stack=[vm.int_oop(1)])
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert frame.stack == []

    def test_store_temp_keeps_stack(self, vm):
        frame = make_frame(vm, ["storeTemporaryVariable1"], stack=[vm.int_oop(8)])
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert frame.stack == [vm.int_oop(8)]
        assert frame.temps[1] == vm.int_oop(8)

    def test_pop_into_temp(self, vm):
        frame = make_frame(vm, ["popIntoTemporaryVariable0"], stack=[vm.int_oop(8)])
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert frame.stack == []
        assert frame.temps[0] == vm.int_oop(8)

    def test_store_receiver_variable(self, vm):
        receiver = vm.memory.instantiate(vm.known.plain_object)
        frame = make_frame(
            vm, ["storeReceiverVariable2"], receiver=receiver, stack=[vm.int_oop(3)]
        )
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert vm.memory.fetch_pointer(2, receiver) == vm.int_oop(3)
        assert frame.stack == [vm.int_oop(3)]

    def test_pop_into_receiver_variable(self, vm):
        receiver = vm.memory.instantiate(vm.known.plain_object)
        frame = make_frame(
            vm, ["popIntoReceiverVariable0"], receiver=receiver, stack=[vm.int_oop(4)]
        )
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert vm.memory.fetch_pointer(0, receiver) == vm.int_oop(4)
        assert frame.stack == []


class TestReturns:
    def test_return_top(self, vm):
        frame = make_frame(vm, ["returnTop"], stack=[vm.int_oop(5)])
        result = vm.interpreter.step(frame)
        assert result.condition == ExitCondition.METHOD_RETURN
        assert result.returned_value == vm.int_oop(5)

    def test_return_receiver(self, vm):
        receiver = vm.int_oop(1)
        frame = make_frame(vm, ["returnReceiver"], receiver=receiver)
        result = vm.interpreter.step(frame)
        assert result.condition == ExitCondition.METHOD_RETURN
        assert result.returned_value == receiver

    def test_return_constants(self, vm):
        for name, expected in [
            ("returnNil", vm.memory.nil_object),
            ("returnTrue", vm.memory.true_object),
            ("returnFalse", vm.memory.false_object),
        ]:
            frame = make_frame(vm, [name])
            result = vm.interpreter.step(frame)
            assert result.condition == ExitCondition.METHOD_RETURN
            assert result.returned_value == expected

    def test_return_top_empty_stack_is_invalid_frame(self, vm):
        frame = make_frame(vm, ["returnTop"])
        assert vm.interpreter.step(frame).condition == ExitCondition.INVALID_FRAME


class TestJumps:
    def test_short_jump_skips(self, vm):
        frame = make_frame(vm, ["shortJump0", "pushTrue", "pushFalse"])
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert frame.pc == 2  # skipped pushTrue (displacement k+1 = 1)
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert frame.stack == [vm.memory.false_object]

    def test_jump_if_true_taken(self, vm):
        frame = make_frame(
            vm, ["shortJumpIfTrue0", "pushNil"], stack=[vm.memory.true_object]
        )
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert frame.pc == 2
        assert frame.stack == []

    def test_jump_if_true_not_taken(self, vm):
        frame = make_frame(
            vm, ["shortJumpIfTrue0", "pushNil"], stack=[vm.memory.false_object]
        )
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert frame.pc == 1

    def test_jump_if_false_taken(self, vm):
        frame = make_frame(
            vm, ["shortJumpIfFalse3"], stack=[vm.memory.false_object]
        )
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert frame.pc == 5

    def test_conditional_jump_on_non_boolean_sends_must_be_boolean(self, vm):
        frame = make_frame(vm, ["shortJumpIfTrue0"], stack=[vm.int_oop(1)])
        result = vm.interpreter.step(frame)
        assert result.condition == ExitCondition.MESSAGE_SEND
        assert result.selector == "mustBeBoolean"
        assert frame.stack == [vm.int_oop(1)]  # value stays as receiver

    def test_long_jump_backward(self, vm):
        frame = make_frame(vm, ["nop", ("longJump", -2)])
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert frame.pc == 1

    def test_long_jump_if_false(self, vm):
        frame = make_frame(vm, [("longJumpIfFalse", 4)], stack=[vm.memory.false_object])
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert frame.pc == 6


class TestArithmetic:
    def add_frame(self, vm, rcvr, arg):
        return make_frame(vm, ["bytecodePrimAdd"], stack=[rcvr, arg])

    def test_integer_add_success(self, vm):
        frame = self.add_frame(vm, vm.int_oop(3), vm.int_oop(4))
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert frame.stack == [vm.int_oop(7)]

    def test_integer_add_overflow_sends(self, vm):
        frame = self.add_frame(vm, vm.int_oop(MAX_SMALL_INT), vm.int_oop(1))
        result = vm.interpreter.step(frame)
        assert result.condition == ExitCondition.MESSAGE_SEND
        assert result.selector == "+"
        # Operands stay on the stack for the send.
        assert len(frame.stack) == 2

    def test_add_with_non_integer_sends(self, vm):
        frame = self.add_frame(vm, vm.int_oop(1), vm.memory.nil_object)
        assert vm.interpreter.step(frame).condition == ExitCondition.MESSAGE_SEND

    def test_float_add_is_inlined(self, vm):
        frame = self.add_frame(vm, vm.float_oop(1.5), vm.float_oop(2.0))
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert vm.memory.float_value_of(frame.stack[0]) == 3.5

    def test_subtract_underflow_sends(self, vm):
        frame = make_frame(
            vm,
            ["bytecodePrimSubtract"],
            stack=[vm.int_oop(MIN_SMALL_INT), vm.int_oop(1)],
        )
        assert vm.interpreter.step(frame).condition == ExitCondition.MESSAGE_SEND

    def test_multiply(self, vm):
        frame = make_frame(
            vm, ["bytecodePrimMultiply"], stack=[vm.int_oop(-6), vm.int_oop(7)]
        )
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert frame.stack == [vm.int_oop(-42)]

    def test_divide_exact(self, vm):
        frame = make_frame(
            vm, ["bytecodePrimDivide"], stack=[vm.int_oop(12), vm.int_oop(4)]
        )
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert frame.stack == [vm.int_oop(3)]

    def test_divide_inexact_sends(self, vm):
        frame = make_frame(
            vm, ["bytecodePrimDivide"], stack=[vm.int_oop(7), vm.int_oop(2)]
        )
        assert vm.interpreter.step(frame).condition == ExitCondition.MESSAGE_SEND

    def test_divide_by_zero_sends(self, vm):
        frame = make_frame(
            vm, ["bytecodePrimDivide"], stack=[vm.int_oop(7), vm.int_oop(0)]
        )
        assert vm.interpreter.step(frame).condition == ExitCondition.MESSAGE_SEND

    def test_modulo_floors(self, vm):
        frame = make_frame(
            vm, ["bytecodePrimModulo"], stack=[vm.int_oop(-7), vm.int_oop(2)]
        )
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert frame.stack == [vm.int_oop(1)]

    def test_integer_divide_floors(self, vm):
        frame = make_frame(
            vm, ["bytecodePrimIntegerDivide"], stack=[vm.int_oop(-7), vm.int_oop(2)]
        )
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert frame.stack == [vm.int_oop(-4)]

    def test_comparison_pushes_boolean(self, vm):
        frame = make_frame(
            vm, ["bytecodePrimLessThan"], stack=[vm.int_oop(1), vm.int_oop(2)]
        )
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert frame.stack == [vm.memory.true_object]

    def test_float_comparison_inlined(self, vm):
        frame = make_frame(
            vm,
            ["bytecodePrimGreaterOrEqual"],
            stack=[vm.float_oop(2.5), vm.float_oop(2.5)],
        )
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert frame.stack == [vm.memory.true_object]

    def test_identity_comparison_never_sends(self, vm):
        frame = make_frame(
            vm,
            ["bytecodePrimIdenticalTo"],
            stack=[vm.memory.nil_object, vm.memory.nil_object],
        )
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert frame.stack == [vm.memory.true_object]

    def test_bitand_non_negative(self, vm):
        frame = make_frame(
            vm, ["bytecodePrimBitAnd"], stack=[vm.int_oop(12), vm.int_oop(10)]
        )
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert frame.stack == [vm.int_oop(8)]

    def test_bitand_negative_takes_slow_path(self, vm):
        """Interpreter bit-ops send for negatives (behavioural difference)."""
        frame = make_frame(
            vm, ["bytecodePrimBitAnd"], stack=[vm.int_oop(-1), vm.int_oop(3)]
        )
        result = vm.interpreter.step(frame)
        assert result.condition == ExitCondition.MESSAGE_SEND
        assert result.selector == "bitAnd:"

    def test_bitshift_left(self, vm):
        frame = make_frame(
            vm, ["bytecodePrimBitShift"], stack=[vm.int_oop(3), vm.int_oop(4)]
        )
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert frame.stack == [vm.int_oop(48)]

    def test_bitshift_overflow_sends(self, vm):
        frame = make_frame(
            vm,
            ["bytecodePrimBitShift"],
            stack=[vm.int_oop(MAX_SMALL_INT), vm.int_oop(8)],
        )
        assert vm.interpreter.step(frame).condition == ExitCondition.MESSAGE_SEND

    def test_arithmetic_on_empty_stack_is_invalid_frame(self, vm):
        frame = make_frame(vm, ["bytecodePrimAdd"])
        assert vm.interpreter.step(frame).condition == ExitCondition.INVALID_FRAME

    def test_arithmetic_on_one_element_stack_is_invalid_frame(self, vm):
        frame = make_frame(vm, ["bytecodePrimAdd"], stack=[vm.int_oop(1)])
        assert vm.interpreter.step(frame).condition == ExitCondition.INVALID_FRAME


class TestSends:
    def test_common_selector_send(self, vm):
        array = vm.memory.new_array([vm.int_oop(1)])
        frame = make_frame(vm, ["sendAt"], stack=[array, vm.int_oop(1)])
        result = vm.interpreter.step(frame)
        assert result.condition == ExitCondition.MESSAGE_SEND
        assert (result.selector, result.argument_count) == ("at:", 1)

    def test_send_is_nil_is_inlined(self, vm):
        frame = make_frame(vm, ["sendIsNil"], stack=[vm.memory.nil_object])
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert frame.stack == [vm.memory.true_object]

    def test_literal_selector_send(self, vm):
        selector = vm.symbols.intern("foo:")
        frame = make_frame(
            vm,
            ["sendLiteralSelector1Arg0"],
            literals=[selector],
            stack=[vm.int_oop(1), vm.int_oop(2)],
        )
        result = vm.interpreter.step(frame)
        assert result.condition == ExitCondition.MESSAGE_SEND
        assert (result.selector, result.argument_count) == ("foo:", 1)

    def test_send_without_receiver_is_invalid_frame(self, vm):
        selector = vm.symbols.intern("bar")
        frame = make_frame(vm, ["sendLiteralSelector0Args0"], literals=[selector])
        assert vm.interpreter.step(frame).condition == ExitCondition.INVALID_FRAME


class TestNop:
    def test_nop_changes_nothing_but_pc(self, vm):
        frame = make_frame(vm, ["nop"], stack=[vm.int_oop(1)])
        assert vm.interpreter.step(frame).condition == ExitCondition.SUCCESS
        assert frame.stack == [vm.int_oop(1)]
        assert frame.pc == 1


class TestDispatch:
    def test_every_opcode_has_a_handler(self):
        from repro.bytecode.opcodes import BYTECODE_TABLE
        from repro.interpreter.interpreter import Interpreter

        for bytecode in BYTECODE_TABLE.values():
            assert callable(getattr(Interpreter, "bc_" + bytecode.family.name))

    def test_class_patch_reaches_a_live_interpreter(self, vm, monkeypatch):
        from repro.interpreter.exits import ExitResult
        from repro.interpreter.interpreter import Interpreter

        frame = make_frame(vm, ["pushTrue"])
        monkeypatch.setattr(
            Interpreter, "bc_pushTrue",
            lambda self, frame, bytecode, operands: ExitResult.failure("patched"),
        )
        assert vm.interpreter.step(frame).condition == ExitCondition.FAILURE
