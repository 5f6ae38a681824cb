"""Slot programs are exactly the reference evaluator.

:func:`repro.concolic.terms.slot_program` compiles a term into one flat
function over a slot table; :func:`repro.concolic.terms.evaluate` is the
tree-walking reference.  For random well-sorted terms over every
operator (undefined arithmetic included) and random environments, both
must answer the same value, or raise the same kind of error.
"""

from __future__ import annotations

import math
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concolic.terms import (
    COMPARISON_OPS,
    INT_BINARY_OPS,
    KIND_PREDICATES,
    EvaluationError,
    Sort,
    Term,
    compare,
    const,
    evaluate,
    fill_slots,
    float_binary,
    identical,
    int_binary,
    int_to_float,
    kind_predicate,
    neg,
    not_,
    oop_attribute,
    slot_program,
    var,
)

INT_VARS = ("x", "y", "z")
OOP_VARS = ("v", "w")
INT_ATTRIBUTES = ("int_value_of", "class_index_of", "format_of",
                  "slot_count_of")

#: Integer constants around every guard: zero divisors, shift counts
#: just inside and outside ``[0, 64]``, and large magnitudes.
INT_GRID = (0, 1, -1, 2, -7, 63, 64, 65, -64, 255, 1 << 30, -(1 << 30),
            (1 << 55) - 1, 1 << 70, -(1 << 70))
FLOAT_GRID = (0.0, -0.0, 1.0, -2.5, 0.5, 1e300, -1e-300, math.inf,
              -math.inf, math.nan)
INT_CONSTANTS = st.sampled_from(INT_GRID)
FLOAT_CONSTANTS = st.sampled_from(FLOAT_GRID)


def int_leaves():
    return st.one_of(
        st.sampled_from(INT_VARS).map(lambda name: var(name, Sort.INT)),
        INT_CONSTANTS.map(const),
        st.tuples(st.sampled_from(INT_ATTRIBUTES), st.sampled_from(OOP_VARS))
        .map(lambda pair: oop_attribute(pair[0], var(pair[1], Sort.OOP))),
    )


def int_terms():
    return st.recursive(
        int_leaves(),
        lambda inner: st.one_of(
            st.tuples(st.sampled_from(sorted(INT_BINARY_OPS)), inner, inner)
            .map(lambda t: int_binary(*t)),
            inner.map(neg),
        ),
        max_leaves=6,
    )


def float_terms():
    leaves = st.one_of(
        FLOAT_CONSTANTS.map(const),
        st.sampled_from(OOP_VARS).map(
            lambda name: oop_attribute("float_value_of", var(name, Sort.OOP))),
        int_terms().map(int_to_float),
    )
    return st.recursive(
        leaves,
        lambda inner: st.tuples(
            st.sampled_from(["add", "sub", "mul", "div"]), inner, inner
        ).map(lambda t: float_binary(*t)),
        max_leaves=4,
    )


def _bad_oop_terms():
    """Predicates and identity over non-variables: evaluation errors."""
    non_vars = int_terms().filter(lambda term: not term.is_var)
    return st.one_of(
        st.tuples(st.sampled_from(sorted(KIND_PREDICATES)), non_vars)
        .map(lambda t: Term(t[0], (t[1],), Sort.BOOL)),
        non_vars.map(lambda t: Term("int_value_of", (t,), Sort.INT))
        .map(lambda t: compare("eq", t, 0)),
        st.sampled_from(OOP_VARS).map(
            lambda name: identical(var(name, Sort.OOP), const(1))),
    )


def bool_terms():
    oop = st.sampled_from(OOP_VARS).map(lambda name: var(name, Sort.OOP))
    leaves = st.one_of(
        st.tuples(st.sampled_from(sorted(COMPARISON_OPS)), int_terms(),
                  int_terms()).map(lambda t: compare(*t)),
        st.tuples(st.sampled_from(sorted(COMPARISON_OPS)), float_terms(),
                  float_terms()).map(lambda t: compare(*t, Sort.FLOAT)),
        st.tuples(st.sampled_from(sorted(KIND_PREDICATES)), oop)
        .map(lambda t: kind_predicate(*t)),
        st.tuples(oop, oop).map(lambda t: identical(*t)),
        st.booleans().map(const),
        _bad_oop_terms(),
    )
    return st.recursive(leaves, lambda inner: inner.map(not_), max_leaves=3)


@st.composite
def environments(draw):
    """An env over every leaf the strategies above can produce."""
    values = {}
    for name in INT_VARS:
        values[("var", name)] = draw(st.one_of(
            INT_CONSTANTS, st.integers(-(1 << 40), 1 << 40)))
    for name in OOP_VARS:
        for attribute in INT_ATTRIBUTES:
            values[(attribute, name)] = draw(st.one_of(
                INT_CONSTANTS, st.integers(-1000, 1000)))
        values[("float_value_of", name)] = draw(st.one_of(
            FLOAT_CONSTANTS, st.floats(allow_nan=True, allow_infinity=True)))
        for predicate in KIND_PREDICATES:
            values[(predicate, name)] = draw(st.booleans())
        for other in OOP_VARS:
            values[("identical", (name, other))] = (
                True if name == other else draw(st.booleans()))

    def env(op, payload):
        return values[(op, payload)]

    return env


def run_program(term, env):
    """``evaluate(term, env)`` as the solver computes it."""
    program = slot_program(term)
    return program(fill_slots((program,), env))


def outcome(function, *args):
    """``("value", type, value)`` or ``("error", exception type)``."""
    try:
        value = function(*args)
    except (EvaluationError, ZeroDivisionError, OverflowError) as error:
        return ("error", type(error))
    if isinstance(value, float):
        return ("value", float, repr(value))  # nan-safe, keeps -0.0
    return ("value", type(value), value)


class TestSlotProgramEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(term=st.one_of(bool_terms(), int_terms(), float_terms()),
           env=environments())
    def test_program_matches_evaluate(self, term, env):
        assert outcome(run_program, term, env) == outcome(evaluate, term, env)

    @settings(max_examples=50, deadline=None)
    @given(term=bool_terms(), env=environments())
    def test_leaves_are_exactly_what_evaluate_may_read(self, term, env):
        reads = []

        def recording(op, payload):
            reads.append((op, payload))
            return env(op, payload)

        outcome(evaluate, term, recording)
        program = slot_program(term)
        assert set(reads) <= set(program.leaves)
        assert len(set(program.leaves)) == len(program.leaves)


class TestEdgeCases:
    def _env(self, **values):
        return lambda op, payload: values[payload]

    def test_undefined_arithmetic_raises_where_evaluate_does(self):
        x = var("x", Sort.INT)
        for op, divisor in (("floordiv", 0), ("mod", 0), ("quo", 0),
                            ("shl", 65), ("shr", -1)):
            term = compare("lt", int_binary(op, x, divisor), 3)
            env = self._env(x=7)
            assert outcome(run_program, term, env) == ("error", EvaluationError)
            assert outcome(evaluate, term, env) == ("error", EvaluationError)
        fdiv = compare("lt", float_binary("div", 1.0, 0.0), 3.0, Sort.FLOAT)
        assert outcome(run_program, fdiv, None) == ("error", EvaluationError)

    def test_every_binary_operator_on_the_guard_grid(self):
        x, y = var("x", Sort.INT), var("y", Sort.INT)
        for op in sorted(INT_BINARY_OPS):
            term = int_binary(op, x, y)
            for left in (-7, 0, 5, 1 << 40):
                for right in INT_GRID:
                    env = lambda _op, name: {"x": left, "y": right}[name]  # noqa: E731
                    assert outcome(run_program, term, env) == outcome(
                        evaluate, term, env), (op, left, right)
        a, b = (oop_attribute("float_value_of", var(n, Sort.OOP))
                for n in ("a", "b"))
        for op in ("add", "sub", "mul", "div"):
            term = float_binary(op, a, b)
            for left in FLOAT_GRID:
                for right in FLOAT_GRID:
                    env = lambda _op, name: {"a": left, "b": right}[name]  # noqa: E731
                    assert outcome(run_program, term, env) == outcome(
                        evaluate, term, env), (op, left, right)

    def test_quo_truncates_toward_zero(self):
        x = var("x", Sort.INT)
        term = int_binary("quo", x, 2)
        assert run_program(term, self._env(x=-7)) == -3
        assert evaluate(term, self._env(x=-7)) == -3

    def test_shape_shares_code_but_not_leaves(self):
        a = compare("lt", var("a", Sort.INT), 5)
        b = compare("lt", var("b", Sort.INT), 5)
        assert slot_program(a).__code__ is slot_program(b).__code__
        assert slot_program(a).leaves == (("var", "a"),)
        assert slot_program(b).leaves == (("var", "b"),)
        assert slot_program(a) is slot_program(a)

    def test_cached_program_does_not_block_pickling(self):
        term = compare(
            "le", oop_attribute("int_value_of", var("v", Sort.OOP)), 9)
        slot_program(term)
        assert "_program" in term.__dict__
        clone = pickle.loads(pickle.dumps(term))
        assert clone == term
        assert "_program" not in clone.__dict__
        env = lambda op, payload: 4  # noqa: E731
        assert run_program(clone, env) is True
        assert "_program" in clone.__dict__
