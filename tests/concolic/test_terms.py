"""Unit tests for the symbolic term language and its evaluator."""

from __future__ import annotations

import pytest

from repro.concolic.terms import (
    EvaluationError,
    Sort,
    compare,
    const,
    evaluate,
    float_binary,
    int_binary,
    int_to_float,
    kind_predicate,
    not_,
    oop_attribute,
    var,
)


def make_env(values):
    def env(op, payload):
        return values[(op, payload)]

    return env


class TestConstruction:
    def test_const_sort_inference(self):
        assert const(1).sort == Sort.INT
        assert const(1.5).sort == Sort.FLOAT
        assert const(True).sort == Sort.BOOL

    def test_const_rejects_unknown(self):
        with pytest.raises(TypeError):
            const("hello")

    def test_lifting_in_binary(self):
        term = int_binary("add", var("x", Sort.INT), 3)
        assert term.args[1].is_const

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            int_binary("pow", 1, 2)
        with pytest.raises(ValueError):
            compare("spaceship", 1, 2)

    def test_double_negation_cancels(self):
        term = kind_predicate("is_nil", var("v", Sort.OOP))
        assert not_(not_(term)) is term

    def test_str_rendering(self):
        term = compare("lt", var("x", Sort.INT), 5)
        assert str(term) == "lt(x, 5)"

    def test_variables_iteration(self):
        term = int_binary("add", var("x", Sort.INT), var("y", Sort.INT))
        assert {v.args[0] for v in term.variables()} == {"x", "y"}


class TestEvaluation:
    def test_arithmetic(self):
        term = int_binary("add", var("x", Sort.INT), 3)
        assert evaluate(term, make_env({("var", "x"): 4})) == 7

    def test_comparison(self):
        term = compare("le", var("x", Sort.INT), 3)
        assert evaluate(term, make_env({("var", "x"): 3})) is True
        assert evaluate(term, make_env({("var", "x"): 4})) is False

    def test_not(self):
        term = not_(compare("eq", var("x", Sort.INT), 0))
        assert evaluate(term, make_env({("var", "x"): 1})) is True

    def test_kind_predicate(self):
        term = kind_predicate("is_small_int", var("v", Sort.OOP))
        assert evaluate(term, make_env({("is_small_int", "v"): True})) is True

    def test_oop_attribute(self):
        term = oop_attribute("int_value_of", var("v", Sort.OOP))
        assert evaluate(term, make_env({("int_value_of", "v"): 42})) == 42

    def test_float_ops(self):
        term = float_binary("mul", var("f", Sort.FLOAT), 2.0)
        assert evaluate(term, make_env({("var", "f"): 1.5})) == 3.0

    def test_int_to_float(self):
        term = int_to_float(var("x", Sort.INT))
        assert evaluate(term, make_env({("var", "x"): 3})) == 3.0

    def test_division_by_zero_is_evaluation_error(self):
        term = int_binary("floordiv", 1, var("x", Sort.INT))
        with pytest.raises(EvaluationError):
            evaluate(term, make_env({("var", "x"): 0}))

    def test_shift_semantics(self):
        term = int_binary("shl", 3, 4)
        assert evaluate(term, make_env({})) == 48

    def test_quo_truncates_toward_zero(self):
        term = int_binary("quo", -7, 2)
        assert evaluate(term, make_env({})) == -3


class TestInterning:
    """Hash-consing: structurally equal terms are the same object."""

    def test_structural_equality_implies_identity(self):
        first = int_binary("add", var("x", Sort.INT), 3)
        second = int_binary("add", var("x", Sort.INT), 3)
        assert first is second

    def test_distinct_terms_are_distinct_objects(self):
        assert var("x", Sort.INT) is not var("y", Sort.INT)
        assert var("x", Sort.INT) is not var("x", Sort.OOP)

    def test_nested_sharing(self):
        inner = oop_attribute("int_value_of", var("v", Sort.OOP))
        first = compare("lt", inner, 5)
        second = compare("lt", oop_attribute("int_value_of", var("v", Sort.OOP)), 5)
        assert first is second
        assert first.args[0] is inner

    def test_hash_is_stable_and_structural(self):
        term = compare("eq", var("x", Sort.INT), 0)
        again = compare("eq", var("x", Sort.INT), 0)
        assert hash(term) == hash(again)
        # Interned terms work as dict keys across reconstructions.
        table = {term: "hit"}
        assert table[again] == "hit"

    def test_equality_survives_interning(self):
        term = not_(kind_predicate("is_nil", var("v", Sort.OOP)))
        assert term == not_(kind_predicate("is_nil", var("v", Sort.OOP)))
        assert term != kind_predicate("is_nil", var("v", Sort.OOP))

    def test_intern_stats_count_hits(self):
        from repro.concolic.terms import intern_stats, intern_table_size

        var("fresh_interning_probe", Sort.INT)  # ensure the key exists
        size_before = intern_table_size()
        hits_before, misses_before = intern_stats()
        var("fresh_interning_probe", Sort.INT)
        hits_after, misses_after = intern_stats()
        assert hits_after == hits_before + 1
        assert misses_after == misses_before
        assert intern_table_size() == size_before

    def test_equal_constant_does_not_reinitialise_the_interned_term(self):
        from repro.concolic.terms import fill_slots, slot_program

        # const 2 and const 2.0 of one sort are one term (as are 0.0
        # and -0.0): the equal but distinguishable value must not
        # overwrite the fields its str and slot program were built from.
        first = compare("lt", var("x", Sort.FLOAT), const(2, Sort.FLOAT),
                        Sort.FLOAT)
        rendered, program = str(first), slot_program(first)
        again = compare("lt", var("x", Sort.FLOAT), 2.0, Sort.FLOAT)
        assert again is first
        assert first.args[1].args == (2,) and str(first) == rendered
        env = make_env({("var", "x"): 1.5})
        assert program(fill_slots((program,), env)) == evaluate(first, env)

    def test_pickle_round_trip_stays_structural(self):
        import pickle

        term = compare("le", oop_attribute("int_value_of", var("v", Sort.OOP)), 9)
        clone = pickle.loads(pickle.dumps(term))
        # Unpickled terms bypass the intern table but still compare and
        # hash structurally.
        assert clone == term
        assert hash(clone) == hash(term)
