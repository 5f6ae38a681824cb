"""The symbolic term language.

Terms model *VM semantics*, not raw memory manipulation (paper Section
3.3): instead of tag-bit arithmetic we have semantic predicates such as
``is_small_int(v)`` and ``class_index_of(v)``.  This keeps condition
negation meaningful (the negation of "is a tagged integer" is "is not a
tagged integer", with range information living in the solver's kind
domains) and keeps the constraint language free of bit-wise pointer
operations the paper's solver could not handle either.

A term is an immutable tree: leaves are variables and constants, inner
nodes apply an operator.  Boolean terms appear in path constraints;
integer and float terms appear inside comparisons.

Terms are **hash-consed**: constructing a term that is structurally
equal to one built earlier in this process returns the *same* object
(``Term("add", ...) is Term("add", ...)``), so set/dict operations over
terms hit an identity fast path, the structural hash is computed once
per distinct term, and the canonical string key used by the explorer's
prefix bookkeeping is rendered once and cached.  The frozen-dataclass
API is unchanged; equality remains *structural* (terms that cross a
process boundary via pickle are equal to, but not identical with,
their interned counterparts).

Evaluation has two forms with one semantics.  :func:`evaluate` walks the
tree against an environment callable; it is the reference oracle.  The
solver's hot path runs *slot programs* instead (:func:`slot_program`):
each interned term is compiled once into one flat Python function that
reads its leaves from a dict (the *slot table*) and inlines every
operator, raising :class:`EvaluationError` exactly where
:func:`evaluate` raises it.
"""

from __future__ import annotations

import builtins
import enum
import types
from dataclasses import dataclass
from typing import Iterator


class Sort(enum.Enum):
    """The type of a term."""

    OOP = "oop"  # an abstract VM value (tagged int or object reference)
    INT = "int"
    FLOAT = "float"
    BOOL = "bool"


#: Operators grouped by shape; the solver dispatches on these names.
INT_BINARY_OPS = frozenset(
    {"add", "sub", "mul", "floordiv", "mod", "quo", "shl", "shr",
     "bitand", "bitor", "bitxor"}
)
COMPARISON_OPS = frozenset({"lt", "le", "gt", "ge", "eq", "ne"})
KIND_PREDICATES = frozenset(
    {"is_small_int", "is_float", "is_nil", "is_true", "is_false"}
)
OOP_ATTRIBUTES = frozenset(
    {"int_value_of", "float_value_of", "class_index_of", "format_of",
     "slot_count_of"}
)


#: The hash-consing table: (op, args, sort) -> the canonical Term.
_INTERN_TABLE: dict = {}
_INTERN_HITS = 0
_INTERN_MISSES = 0


def intern_table_size() -> int:
    """Number of distinct terms interned in this process."""
    return len(_INTERN_TABLE)


def intern_stats() -> tuple[int, int]:
    """(hits, misses) of the hash-consing table since process start."""
    return _INTERN_HITS, _INTERN_MISSES


@dataclass(frozen=True, eq=False, init=False)
class Term:
    """One node of a symbolic expression tree (interned; see module doc)."""

    op: str
    args: tuple
    sort: Sort

    def __new__(cls, op=None, args=None, sort=None):
        global _INTERN_HITS, _INTERN_MISSES
        if op is None:
            # Unpickling path: fields arrive via __setstate__, the
            # instance stays outside the intern table (structural
            # equality still holds).
            return object.__new__(cls)
        cached = _INTERN_TABLE.get((op, args, sort))
        if cached is not None:
            # Returned as interned, never re-initialised: equal is not
            # identical (0.0 and -0.0, 1 and 1.0), and new fields would
            # disagree with the str, shape and slot program cached from
            # the old ones.
            _INTERN_HITS += 1
            return cached
        _INTERN_MISSES += 1
        self = object.__new__(cls)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "sort", sort)
        object.__setattr__(self, "_hash", hash((op, args, sort)))
        _INTERN_TABLE[(op, args, sort)] = self
        return self

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.op == other.op
            and self.sort is other.sort
            and self.args == other.args
        )

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self):
        # Slot programs are functions and cannot cross process
        # boundaries; the receiver rebuilds one on first evaluation.
        state = dict(self.__dict__)
        state.pop("_program", None)
        return state

    def __str__(self) -> str:
        cached = self.__dict__.get("_str")
        if cached is not None:
            return cached
        if self.op == "var":
            rendered = str(self.args[0])
        elif self.op == "const":
            rendered = repr(self.args[0])
        else:
            rendered = (
                f"{self.op}({', '.join(str(arg) for arg in self.args)})"
            )
        object.__setattr__(self, "_str", rendered)
        return rendered

    @property
    def is_var(self) -> bool:
        return self.op == "var"

    @property
    def is_const(self) -> bool:
        return self.op == "const"

    def variables(self) -> Iterator["Term"]:
        """Yield every variable leaf (possibly repeatedly)."""
        if self.is_var:
            yield self
            return
        for arg in self.args:
            if isinstance(arg, Term):
                yield from arg.variables()

    def var_names(self) -> frozenset:
        """The set of variable names in this term, cached per term."""
        cached = self.__dict__.get("_vars")
        if cached is not None:
            return cached
        if self.is_var:
            names = frozenset((self.args[0],))
        else:
            names = frozenset()
            for arg in self.args:
                if isinstance(arg, Term):
                    names |= arg.var_names()
        object.__setattr__(self, "_vars", names)
        return names


# ----------------------------------------------------------------------
# constructors


def var(name: str, sort: Sort) -> Term:
    return Term("var", (name,), sort)


def const(value, sort: Sort | None = None) -> Term:
    if sort is None:
        if isinstance(value, bool):
            sort = Sort.BOOL
        elif isinstance(value, int):
            sort = Sort.INT
        elif isinstance(value, float):
            sort = Sort.FLOAT
        else:
            raise TypeError(f"cannot infer sort of {value!r}")
    return Term("const", (value,), sort)


def _lift(value, sort: Sort) -> Term:
    if isinstance(value, Term):
        return value
    return const(value, sort)


def int_binary(op: str, left, right) -> Term:
    if op not in INT_BINARY_OPS:
        raise ValueError(f"unknown integer operator {op}")
    return Term(op, (_lift(left, Sort.INT), _lift(right, Sort.INT)), Sort.INT)


def neg(operand) -> Term:
    return Term("neg", (_lift(operand, Sort.INT),), Sort.INT)


def float_binary(op: str, left, right) -> Term:
    if op not in {"add", "sub", "mul", "div"}:
        raise ValueError(f"unknown float operator {op}")
    return Term(
        "f" + op, (_lift(left, Sort.FLOAT), _lift(right, Sort.FLOAT)), Sort.FLOAT
    )


def compare(op: str, left, right, operand_sort: Sort = Sort.INT) -> Term:
    if op not in COMPARISON_OPS:
        raise ValueError(f"unknown comparison {op}")
    return Term(
        op, (_lift(left, operand_sort), _lift(right, operand_sort)), Sort.BOOL
    )


def kind_predicate(op: str, oop_term: Term) -> Term:
    if op not in KIND_PREDICATES:
        raise ValueError(f"unknown kind predicate {op}")
    return Term(op, (oop_term,), Sort.BOOL)


def oop_attribute(op: str, oop_term: Term) -> Term:
    if op not in OOP_ATTRIBUTES:
        raise ValueError(f"unknown oop attribute {op}")
    sort = Sort.FLOAT if op == "float_value_of" else Sort.INT
    return Term(op, (oop_term,), sort)


def int_to_float(operand) -> Term:
    return Term("int_to_float", (_lift(operand, Sort.INT),), Sort.FLOAT)


def identical(left: Term, right: Term) -> Term:
    return Term("identical", (left, right), Sort.BOOL)


def not_(operand: Term) -> Term:
    """Logical negation; double negations cancel."""
    if operand.op == "not":
        return operand.args[0]
    return Term("not", (operand,), Sort.BOOL)


# ----------------------------------------------------------------------
# evaluation


_COMPARISONS = {
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
}

_INT_BINARIES = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "floordiv": lambda a, b: a // b if b != 0 else None,
    "mod": lambda a, b: a % b if b != 0 else None,
    "quo": lambda a, b: None
    if b == 0
    else (-(-a // b) if (a < 0) != (b < 0) else a // b),
    "shl": lambda a, b: a << b if 0 <= b <= 64 else None,
    "shr": lambda a, b: a >> b if 0 <= b <= 64 else None,
    "bitand": lambda a, b: a & b,
    "bitor": lambda a, b: a | b,
    "bitxor": lambda a, b: a ^ b,
}

_FLOAT_BINARIES = {
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
    "fdiv": lambda a, b: a / b if b != 0.0 else None,
}


class EvaluationError(Exception):
    """The term cannot be evaluated under the given environment."""


#: Infix spelling of the operators a slot program inlines unchecked.
_INFIX = {
    "add": "+", "sub": "-", "mul": "*", "bitand": "&", "bitor": "|",
    "bitxor": "^", "fadd": "+", "fsub": "-", "fmul": "*",
    "lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "==", "ne": "!=",
}

#: Checked operators: (guard that must hold, expression) over operands
#: ``a``/``b``; a failed guard is where :func:`evaluate` raises.
_CHECKED = {
    "floordiv": ("{b} != 0", "{a} // {b}"),
    "mod": ("{b} != 0", "{a} % {b}"),
    "quo": ("not ({b} == 0)",
            "(-(-{a} // {b}) if ({a} < 0) != ({b} < 0) else {a} // {b})"),
    "shl": ("0 <= {b} <= 64", "{a} << {b}"),
    "shr": ("0 <= {b} <= 64", "{a} >> {b}"),
    "fdiv": ("{b} != 0.0", "{a} / {b}"),
}

#: Program source -> code object: terms of the same shape (alpha-renamed
#: components differ only in their leaves) share one compile().
_CODE_CACHE: dict = {}


class _ProgramBuilder:
    """Emits the straight-line body of one slot program.

    Every inner node gets its own local, assigned in the post-order in
    which :func:`evaluate` computes it, so values and the point where an
    :class:`EvaluationError` is raised are exactly :func:`evaluate`'s.
    Leaves are read from the slot table ``S`` where they are used (a
    read cannot fail), constants are inlined when their ``repr`` is a
    literal, and everything term-specific (leaf keys, messages, other
    constants) is bound as a global so the source depends only on the
    term's shape.
    """

    def __init__(self):
        self.lines: list = []
        self.bindings: dict = {}
        self.leaves: dict = {}  # leaf -> global name, in first-read order
        self.temps = 0

    def bind(self, value) -> str:
        name = f"g{len(self.bindings)}"
        self.bindings[name] = value
        return name

    def leaf(self, key) -> str:
        name = self.leaves.get(key)
        if name is None:
            name = self.leaves[key] = self.bind(key)
        return f"S[{name}]"

    def constant(self, value) -> str:
        if type(value) is bool or (
                type(value) is int and abs(value) < 1 << 64) or (
                type(value) is float and value - value == 0.0):
            return f"({value!r})"  # finite: repr is an exact literal
        return self.bind(value)

    def fail(self, message: str) -> str:
        self.lines.append(f"raise EvaluationError({self.bind(message)})")
        return "None"

    def local(self, expression: str) -> str:
        name = f"t{self.temps}"
        self.temps += 1
        self.lines.append(f"{name} = {expression}")
        return name

    def emit(self, term: Term) -> str:
        """Emit *term*; returns the atom (local, leaf read or literal)
        holding its value."""
        op = term.op
        if op == "const":
            return self.constant(term.args[0])
        if op == "var":
            return self.leaf(("var", term.args[0]))
        if op in KIND_PREDICATES or op in OOP_ATTRIBUTES:
            inner = term.args[0]
            if not inner.is_var:
                return self.fail(f"oop predicate over non-variable: {term}")
            return self.leaf((op, inner.args[0]))
        if op == "identical":
            left, right = term.args
            if not (left.is_var and right.is_var):
                return self.fail(f"identity over non-variables: {term}")
            return self.leaf(("identical", (left.args[0], right.args[0])))
        operands = [self.emit(arg) for arg in term.args]
        if op == "not":
            return self.local(f"not {operands[0]}")
        if op == "neg":
            return self.local(f"-{operands[0]}")
        if op == "int_to_float":
            return self.local(f"float({operands[0]})")
        if op in _INFIX:
            left, right = operands
            return self.local(f"{left} {_INFIX[op]} {right}")
        if op in _CHECKED:
            # Both operands are used twice: read each leaf once.
            left, right = (
                self.local(operand) if operand.startswith("S[") else operand
                for operand in operands
            )
            guard, expression = _CHECKED[op]
            message = (
                f"undefined float arithmetic in {term}"
                if op == "fdiv"
                else f"undefined arithmetic in {term}"
            )
            self.lines.append(
                f"if not ({guard.format(a=left, b=right)}): "
                f"raise EvaluationError({self.bind(message)})"
            )
            return self.local(expression.format(a=left, b=right))
        return self.fail(f"unknown operator {op}")


def _build_program(term: Term):
    builder = _ProgramBuilder()
    result = builder.emit(term)
    source = "\n    ".join(
        ["def program(S):", *builder.lines, f"return {result}"]
    )
    code = _CODE_CACHE.get(source)
    if code is None:
        namespace: dict = {}
        exec(compile(source, "<slot program>", "exec"), namespace)
        code = _CODE_CACHE[source] = namespace["program"].__code__
    namespace = {"__builtins__": builtins, "EvaluationError": EvaluationError,
                 **builder.bindings}
    program = types.FunctionType(code, namespace, "program")
    program.leaves = tuple(builder.leaves)
    return program


def slot_program(term: Term):
    """The slot program of *term*, built once and cached on the term.

    A slot program is one flat function ``program(S)`` computing
    ``evaluate(term, env)`` from a *slot table* ``S``: a dict mapping
    each leaf the term reads — ``("var", name)``, ``(oop attribute or
    kind predicate, name)`` or ``("identical", (a, b))`` — to the value
    ``env(*leaf)`` would answer.  ``program.leaves`` lists those keys.
    Terms are hash-consed, so one program serves every conjunction that
    contains the term.
    """
    program = term.__dict__.get("_program")
    if program is None:
        program = _build_program(term)
        object.__setattr__(term, "_program", program)
    return program


def fill_slots(programs, env) -> dict:
    """The slot table of *programs*, each leaf read through *env*."""
    slots: dict = {}
    for program in programs:
        for leaf in program.leaves:
            if leaf not in slots:
                slots[leaf] = env(*leaf)
    return slots


def evaluate(term: Term, env) -> object:
    """Evaluate *term* under *env*.

    ``env`` is a callable mapping ``(op, var_name)`` to a value, where
    *op* is ``"var"`` for plain variables or an oop attribute / kind
    predicate name for terms like ``int_value_of(v)``.  The solver's
    :class:`~repro.concolic.solver.model.Model` provides this callable.
    """
    if term.is_const:
        return term.args[0]
    if term.is_var:
        return env("var", term.args[0])
    if term.op in KIND_PREDICATES or term.op in OOP_ATTRIBUTES:
        inner = term.args[0]
        if not inner.is_var:
            raise EvaluationError(f"oop predicate over non-variable: {term}")
        return env(term.op, inner.args[0])
    if term.op == "identical":
        left, right = term.args
        if not (left.is_var and right.is_var):
            raise EvaluationError(f"identity over non-variables: {term}")
        return env("identical", (left.args[0], right.args[0]))
    if term.op == "not":
        return not evaluate(term.args[0], env)
    if term.op == "neg":
        return -evaluate(term.args[0], env)
    if term.op == "int_to_float":
        return float(evaluate(term.args[0], env))
    values = [evaluate(arg, env) for arg in term.args]
    if term.op in _COMPARISONS:
        return _COMPARISONS[term.op](*values)
    if term.op in _INT_BINARIES:
        result = _INT_BINARIES[term.op](*values)
        if result is None:
            raise EvaluationError(f"undefined arithmetic in {term}")
        return result
    if term.op in _FLOAT_BINARIES:
        result = _FLOAT_BINARIES[term.op](*values)
        if result is None:
            raise EvaluationError(f"undefined float arithmetic in {term}")
        return result
    raise EvaluationError(f"unknown operator {term.op}")
