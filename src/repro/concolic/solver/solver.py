"""The conjunction solver.

``solve(literals, context)`` returns a satisfying :class:`Model` or
``None`` (UNSAT / unknown).  The decision procedure:

1. split literals into kind predicates, identity literals, and numeric
   comparisons (negations are rewritten into complementary comparisons);
2. merge identity aliases (union-find) and intersect kind domains;
3. enumerate kind assignments per abstract value (domains are tiny) and,
   for OBJECT kinds, candidate classes from the class table;
4. find witnesses for the residual numeric constraints by candidate-pool
   search seeded from the constants occurring in the constraints;
5. verify the assembled model by evaluating every literal.

Soundness comes from step 5: no unverified model is ever returned.
Completeness is deliberately bounded (search caps), mirroring the
paper's curation of paths its prototype cannot handle.

Budget exhaustion is a first-class verdict: :func:`solve_status`
returns the model together with :class:`SolveStats`, whose ``status``
distinguishes a decisive ``"unsat"`` from an ``"unknown"`` caused by a
truncated search — the campaign engine and the strategy-agreement
property tests rely on that distinction.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from repro.concolic.solver.model import ALL_KINDS, Kind, KindTag, Model, SolverContext
from repro.concolic.terms import (
    COMPARISON_OPS,
    KIND_PREDICATES,
    OOP_ATTRIBUTES,
    EvaluationError,
    Sort,
    Term,
    fill_slots,
    slot_program,
)
from repro.memory.layout import MAX_SMALL_INT, MIN_SMALL_INT

#: Returned (as None) when no model is found.
UNSAT = None


@dataclass
class SolveStats:
    """How one solve() call ended — the budget-accounting sidecar.

    ``status`` is ``"sat"`` (model returned), ``"unsat"`` (search space
    exhausted without truncation), or ``"unknown"`` (a node/assignment
    budget truncated the search, or the conjunction uses an unsupported
    shape — no verdict can be trusted as complete).
    """

    status: str = "unsat"
    nodes: int = 0
    #: True when any witness search or the assignment enumeration was
    #: cut short by a budget.
    truncated: bool = False
    #: True when the model was found by the random-repair fallback
    #: rather than the systematic search.
    repair_used: bool = False

_NEGATED_COMPARISON = {
    "lt": "ge",
    "le": "gt",
    "gt": "le",
    "ge": "lt",
    "eq": "ne",
    "ne": "eq",
}

_KIND_FOR_PREDICATE = {
    "is_small_int": KindTag.SMALL_INT,
    "is_float": KindTag.FLOAT,
    "is_nil": KindTag.NIL,
    "is_true": KindTag.TRUE,
    "is_false": KindTag.FALSE,
}

#: Preference order when several kinds satisfy a domain: integers first
#: (the paper's first concolic iteration pushes integers), then objects.
_KIND_PREFERENCE = [
    KindTag.SMALL_INT,
    KindTag.OBJECT,
    KindTag.FLOAT,
    KindTag.NIL,
    KindTag.TRUE,
    KindTag.FALSE,
]

_MAX_KIND_ASSIGNMENTS = 6000
_MAX_WITNESS_COMBOS = 20000
_MAX_REPAIR_ITERATIONS = 800
#: Total witness-search nodes across one solve() call: pathological
#: conjunctions (many unconstrained object variables) bail out as
#: unknown/UNSAT instead of exploring every kind x class assignment at
#: full witness budget.
_MAX_TOTAL_NODES = 150_000


@dataclass
class _Problem:
    """Normalized view of one path condition."""

    context: SolverContext
    kind_literals: list = field(default_factory=list)  # (var, tag, positive)
    identity_literals: list = field(default_factory=list)  # (a, b, positive)
    numeric_literals: list = field(default_factory=list)  # Term (comparison)
    oop_vars: set = field(default_factory=set)
    int_vars: set = field(default_factory=set)
    class_constrained: set = field(default_factory=set)
    # What every kind assignment's witness search shares, filled once
    # per solve by :meth:`prepare` (after the identity aliases merge).
    #: Constants seeding the candidate pools.
    constants: set = field(default_factory=set)
    #: Per numeric literal: (slot program, dependency candidates).
    literal_plans: list = field(default_factory=list)
    #: Variable bounds -> candidate pool, values converted to the sort.
    pools: dict = field(default_factory=dict)

    def prepare(self, uf: "_UnionFind", extra_constants) -> None:
        self.constants = set(extra_constants)
        for literal in self.numeric_literals:
            _collect_constants(literal, self.constants)
        self.literal_plans = [
            (slot_program(literal), _dependency_candidates(literal, uf))
            for literal in self.numeric_literals
        ]

    def pool(self, bounds) -> list:
        pool = self.pools.get(bounds)
        if pool is None:
            convert = float if bounds[0] == "float" else int
            pool = self.pools[bounds] = [
                convert(value)
                for value in _candidate_pool(bounds, self.constants)
            ]
        return pool


def _scan_vars(term: Term, problem: _Problem) -> None:
    if term.op in KIND_PREDICATES or term.op in OOP_ATTRIBUTES:
        name = term.args[0].args[0]
        problem.oop_vars.add(name)
        if term.op in ("class_index_of", "format_of", "slot_count_of"):
            problem.class_constrained.add(name)
        return
    if term.op == "identical":
        for arg in term.args:
            problem.oop_vars.add(arg.args[0])
        return
    if term.is_var:
        if term.sort == Sort.OOP:
            problem.oop_vars.add(term.args[0])
        else:
            problem.int_vars.add(term.args[0])
        return
    for arg in term.args:
        if isinstance(arg, Term):
            _scan_vars(arg, problem)


def _normalize(literals: list[Term], context: SolverContext):
    """(problem, None) on success, (None, verdict) when undecidable here.

    The verdict distinguishes a trivially-false literal (``"unsat"``,
    decisive) from an unsupported literal shape (``"unknown"``).
    """
    problem = _Problem(context)
    for literal in literals:
        positive = True
        term = literal
        while term.op == "not":
            positive = not positive
            term = term.args[0]
        if term.op in KIND_PREDICATES:
            name = term.args[0].args[0]
            problem.kind_literals.append((name, _KIND_FOR_PREDICATE[term.op], positive))
            problem.oop_vars.add(name)
        elif term.op == "identical":
            left = term.args[0].args[0]
            right = term.args[1].args[0]
            problem.identity_literals.append((left, right, positive))
            problem.oop_vars.update((left, right))
        elif term.op in COMPARISON_OPS:
            if not positive:
                term = Term(_NEGATED_COMPARISON[term.op], term.args, Sort.BOOL)
            problem.numeric_literals.append(term)
            _scan_vars(term, problem)
        elif term.is_const:
            if bool(term.args[0]) != positive:
                return None, "unsat"  # trivially false literal
        else:
            # Bare boolean var or unsupported shape — no verdict.
            return None, "unknown"
    return problem, None


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, item):
        parent = self.parent.setdefault(item, item)
        if parent != item:
            root = self.find(parent)
            self.parent[item] = root
            return root
        return item

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _collect_constants(term: Term, pool: set) -> None:
    if term.is_const and isinstance(term.args[0], (int, float)):
        pool.add(term.args[0])
    for arg in term.args:
        if isinstance(arg, Term):
            _collect_constants(arg, pool)


@dataclass
class _Assignment:
    """Working state while searching for witnesses."""

    kinds: dict  # var -> KindTag
    classes: dict  # var -> class index (OBJECT kinds)
    int_values: dict  # synthetic & plain int var -> value
    float_values: dict  # var -> float


class _SearchEnv:
    """Evaluation environment over a working assignment."""

    def __init__(self, problem: _Problem, assignment: _Assignment, uf: _UnionFind):
        self.problem = problem
        self.a = assignment
        self.uf = uf

    def _rep(self, name):
        return self.uf.find(name)

    def __call__(self, op, payload):
        context = self.problem.context
        a = self.a
        if op == "var":
            return a.int_values.get(payload, 0)
        if op in _KIND_FOR_PREDICATE:
            return a.kinds.get(self._rep(payload)) == _KIND_FOR_PREDICATE[op]
        name = self._rep(payload) if isinstance(payload, str) else payload
        if op == "int_value_of":
            if a.kinds.get(name) == KindTag.SMALL_INT:
                return a.int_values.get(f"IV::{name}", 0)
            return 0
        if op == "float_value_of":
            return a.float_values.get(name, 1.0)
        if op == "class_index_of":
            return self._class_index(name)
        if op == "format_of":
            kind = a.kinds.get(name)
            if kind == KindTag.OBJECT:
                return context.class_formats[a.classes[name]]
            if kind == KindTag.FLOAT:
                return 5  # ObjectFormat.BOXED_FLOAT
            return 1
        if op == "slot_count_of":
            kind = a.kinds.get(name)
            if kind == KindTag.OBJECT:
                return a.int_values.get(f"SC::{name}", 0)
            if kind == KindTag.FLOAT:
                return 2
            return 0
        if op == "identical":
            left, right = (self._rep(payload[0]), self._rep(payload[1]))
            if left == right:
                return True
            lk, rk = self.a.kinds.get(left), self.a.kinds.get(right)
            if lk != rk:
                return False
            if lk == KindTag.SMALL_INT:
                return self.a.int_values.get(f"IV::{left}", 0) == self.a.int_values.get(
                    f"IV::{right}", 0
                )
            return lk in (KindTag.NIL, KindTag.TRUE, KindTag.FALSE)
        raise KeyError(op)

    def _class_index(self, name):
        kind = self.a.kinds.get(name)
        context = self.problem.context
        if kind == KindTag.OBJECT:
            return self.a.classes[name]
        return context.class_index_for_kind(Kind(kind or KindTag.SMALL_INT))


def _free_numeric_vars(problem: _Problem, assignment: _Assignment):
    """Free variable names with their bounds and sorts for the search."""
    context = problem.context
    free: dict = {}
    # Sorted, not set order: insertion order here breaks ties in the
    # most-constrained-first variable order, so a set walk would make
    # the search (and its node count) depend on PYTHONHASHSEED.
    for name in sorted(problem.int_vars):
        if name == "stack_size":
            free[name] = ("int", 0, context.max_stack)
        elif name == "temp_count":
            free[name] = ("int", 0, context.max_temps)
        elif ".raw" in name:
            free[name] = ("int", 0, (1 << 32) - 1)
        else:
            free[name] = ("int", context.int_min, context.int_max)
    for name, tag in assignment.kinds.items():
        if tag == KindTag.SMALL_INT:
            free[f"IV::{name}"] = ("int", MIN_SMALL_INT, MAX_SMALL_INT)
        elif tag == KindTag.FLOAT:
            free[f"FV::{name}"] = ("float", None, None)
        elif tag == KindTag.OBJECT:
            class_index = assignment.classes[name]
            fixed = context.fixed_slot_counts.get(class_index, 0)
            if context.class_is_variable.get(class_index, False):
                free[f"SC::{name}"] = ("int", fixed, context.max_slots)
            else:
                # Fixed-size class: slot count is determined.
                assignment.int_values[f"SC::{name}"] = fixed
    return free


def _candidate_pool(bounds, constants):
    sort, low, high = bounds
    if sort == "float":
        pool = [0.0, 1.0, -1.0, 0.5, 2.0, -2.5, 100.0]
        for value in constants:
            value = float(value)
            pool += [value, value + 1.0, value - 1.0, value / 2.0]
        return _dedupe(pool)
    pool = [0, 1, 2, -1, -2, 3, 10]
    pool += [MIN_SMALL_INT, MAX_SMALL_INT, MIN_SMALL_INT + 1, MAX_SMALL_INT - 1]
    for value in constants:
        if isinstance(value, int):
            pool += [value, value + 1, value - 1, value * 2]
    clipped = []
    for value in pool:
        if low is not None and value < low:
            continue
        if high is not None and value > high:
            continue
        clipped.append(value)
    if low is not None and low not in clipped:
        clipped.append(low)
    if high is not None and high not in clipped:
        clipped.append(high)
    return _dedupe(clipped)


def _dedupe(pool):
    seen, unique = set(), []
    for value in pool:
        if value not in seen:
            seen.add(value)
            unique.append(value)
    # Prefer simple witnesses: smallest magnitude first.
    unique.sort(key=lambda v: (abs(v), v < 0))
    return unique


#: Evaluation failures that make a literal false rather than an error.
_FALSE_ON = (EvaluationError, ZeroDivisionError, OverflowError)


def _holds(programs, slots) -> bool:
    """True iff every slot program is truthy over *slots* (in order)."""
    try:
        for program in programs:
            if not program(slots):
                return False
    except _FALSE_ON:
        return False
    return True


#: Leaf ops whose slot value *is* the stored witness of the variable
#: feeding them (``var`` / IV / FV / SC): the search writes the value
#: into the slot table directly instead of asking the environment.
_DIRECT_LEAVES = frozenset(
    {"var", "int_value_of", "float_value_of", "slot_count_of"}
)


def _leaf_feeders(leaf, free: dict, uf: _UnionFind) -> tuple:
    """The free witness names whose value *leaf*'s slot depends on."""
    op, payload = leaf
    if op == "var":
        names = (payload,)
    elif op == "int_value_of":
        names = (f"IV::{uf.find(payload)}",)
    elif op == "float_value_of":
        names = (f"FV::{uf.find(payload)}",)
    elif op == "slot_count_of":
        names = (f"SC::{uf.find(payload)}",)
    elif op == "identical":
        names = tuple(f"IV::{uf.find(name)}" for name in payload)
    else:
        names = ()
    return tuple(name for name in names if name in free)


def _dependency_candidates(term: Term, uf: _UnionFind) -> tuple:
    """Every witness name *term*'s evaluation may read.

    A plain variable reads itself; every OOP attribute is taken to read
    all three synthetic witnesses of its representative (IV, FV and SC,
    an over-approximation); an identity reads both sides' IV.  Filtered
    by the free names of one assignment, these are the literal's
    dependencies, which fix the variable order and where it is checked.
    """
    names: list = []

    def walk(node: Term) -> None:
        if node.is_var:
            names.append(node.args[0])
            return
        if node.op in OOP_ATTRIBUTES:
            name = uf.find(node.args[0].args[0])
            names.extend((f"IV::{name}", f"FV::{name}", f"SC::{name}"))
            return
        if node.op == "identical":
            for arg in node.args:
                names.append(f"IV::{uf.find(arg.args[0])}")
            return
        for arg in node.args:
            if isinstance(arg, Term):
                walk(arg)

    walk(term)
    return tuple(dict.fromkeys(names))


def _search_witnesses(problem, assignment, uf, rng, strategy="backtracking",
                      budget=None, stats=None):
    """Witness search over the numeric residual.

    ``strategy="backtracking"`` (the default) assigns variables one at
    a time from candidate pools and checks every literal as soon as all
    its dependencies are assigned, pruning dead branches immediately.
    ``strategy="product"`` is the naive cartesian-product baseline kept
    for the ablation benchmark: it only checks complete assignments.

    Everything that does not depend on the kind assignment (candidate
    pools, slot programs, dependency candidates) comes prepared on
    *problem* (:meth:`_Problem.prepare`).
    """
    free = _free_numeric_vars(problem, assignment)
    env = _SearchEnv(problem, assignment, uf)
    dependencies = [
        (program, {name for name in candidates if name in free})
        for program, candidates in problem.literal_plans
    ]
    # The slot table: every leaf any literal reads, filled once from the
    # fixed parts of this assignment; witness stores then keep it
    # current (see ``assign``).
    slots = fill_slots((program for program, _deps in dependencies), env)
    # Ground literals (no free deps) must hold under the fixed parts.
    for program, deps in dependencies:
        if not deps and not _holds((program,), slots):
            return False
    if not free:
        return True
    # Assign most-constrained variables first.
    names = sorted(
        free, key=lambda n: -sum(1 for _, deps in dependencies if n in deps)
    )
    pools = {name: problem.pool(free[name]) for name in names}
    # Per free name: where its witness is stored and which slots it
    # feeds — written directly, or (identity) re-read through the
    # environment after the store.
    feeds = {}
    for name in names:
        if free[name][0] == "float":
            target = name[4:] if name.startswith("FV::") else name
            feeds[name] = (assignment.float_values, target, [], [])
        else:
            feeds[name] = (assignment.int_values, name, [], [])
    for leaf in slots:
        for name in _leaf_feeders(leaf, free, uf):
            feeds[name][2 if leaf[0] in _DIRECT_LEAVES else 3].append(leaf)

    def assign(name, value) -> None:
        store, key, direct, reread = feeds[name]
        store[key] = value
        for leaf in direct:
            slots[leaf] = value
        for leaf in reread:
            slots[leaf] = env(*leaf)

    checked = [program for program, deps in dependencies if deps]
    limit = _MAX_WITNESS_COMBOS
    if budget is not None:
        limit = min(limit, max(0, budget[0]))
    if strategy == "product":
        # Ablation baseline: full cartesian product, checked only when
        # every variable has a value.
        nodes = 0
        for combination in itertools.product(*(pools[name] for name in names)):
            nodes += 1
            if nodes > limit:
                if budget is not None:
                    budget[0] -= nodes
                if stats is not None:
                    stats.truncated = True
                return False
            for name, value in zip(names, combination):
                assign(name, value)
            if _holds(checked, slots):
                if budget is not None:
                    budget[0] -= nodes
                return True
        if budget is not None:
            budget[0] -= nodes
        return False

    position = {name: index for index, name in enumerate(names)}
    # literal -> index of the last variable it depends on.
    check_at: dict[int, list] = {index: [] for index in range(len(names))}
    for program, deps in dependencies:
        if deps:
            check_at[max(position[name] for name in deps)].append(program)
    # One precomputed plan per level: the pool, the store, the slots
    # the variable feeds and the programs checked at that level.
    levels = []
    for index, name in enumerate(names):
        store, key, direct, reread = feeds[name]
        levels.append((pools[name], store, key, tuple(direct),
                       tuple(reread), tuple(check_at[index])))
    depth = len(levels)
    nodes = 0

    def backtrack(level: int) -> bool:
        nonlocal nodes
        if nodes > limit:
            return False
        if level == depth:
            return True
        pool, store, key, direct, reread, checks = levels[level]
        for value in pool:
            nodes += 1
            if nodes > limit:
                return False
            store[key] = value
            for leaf in direct:
                slots[leaf] = value
            for leaf in reread:
                slots[leaf] = env(*leaf)
            holds = True  # _holds(checks, slots), inlined: the hot loop
            try:
                for program in checks:
                    if not program(slots):
                        holds = False
                        break
            except _FALSE_ON:
                holds = False
            if holds and backtrack(level + 1):
                return True
        return False

    found = backtrack(0)
    if budget is not None:
        budget[0] -= nodes
    if found:
        return True
    if nodes <= limit:
        # Exhaustive failure: backtracking visited the entire candidate
        # pool product (its pruning is sound — a literal false under a
        # partial assignment stays false under every extension), and the
        # repair loop below samples values from those same pools, so it
        # cannot succeed where the exhaustive search failed.
        return False
    if stats is not None:
        stats.truncated = True
    # Last resort: random repair for pathological pools.
    for name in names:
        assign(name, pools[name][0])
    for _ in range(_MAX_REPAIR_ITERATIONS):
        if _holds(checked, slots):
            if stats is not None:
                stats.repair_used = True
            return True
        name = rng.choice(names)
        assign(name, rng.choice(pools[name]))
    if _holds(checked, slots):
        if stats is not None:
            stats.repair_used = True
        return True
    return False


def solve(
    literals: list[Term],
    context: SolverContext,
    seed: int = 0xC0FFEE,
    strategy: str = "backtracking",
    max_nodes: int | None = None,
    extra_constants: tuple = (),
) -> Model | None:
    """Find a model of the conjunction *literals*, or None.

    ``strategy`` selects the witness search: ``"backtracking"`` (default)
    or the naive ``"product"`` baseline (ablation only).  ``max_nodes``
    caps the total witness-search nodes (the solver's fuel budget).
    """
    model, _stats = solve_status(
        literals, context, seed, strategy, max_nodes, extra_constants
    )
    return model


def solve_status(
    literals: list[Term],
    context: SolverContext,
    seed: int = 0xC0FFEE,
    strategy: str = "backtracking",
    max_nodes: int | None = None,
    extra_constants: tuple = (),
) -> tuple:
    """Like :func:`solve`, but returns ``(model, SolveStats)``.

    The stats make budget exhaustion observable: ``status`` is
    ``"unknown"`` (not ``"unsat"``) when a search cap truncated the
    decision procedure, so callers can distinguish "no model exists"
    from "ran out of fuel looking".

    ``extra_constants`` seeds the candidate pools beyond the constants
    occurring in this conjunction — the incremental layer passes the
    whole path condition's constants when solving an independent slice,
    so a component solved in isolation sees the same pool it would have
    seen inside the joint conjunction.
    """
    from repro.robustness.faults import maybe_inject

    maybe_inject("solve")
    stats = SolveStats()
    problem, verdict = _normalize(list(literals), context)
    if problem is None:
        stats.status = verdict
        stats.truncated = verdict == "unknown"
        return None, stats
    rng = random.Random(seed)
    total = _MAX_TOTAL_NODES if max_nodes is None else max_nodes
    node_budget = [total]

    # --- identity theory -------------------------------------------------
    uf = _UnionFind()
    for left, right, positive in problem.identity_literals:
        if positive:
            uf.union(left, right)
    distinct_pairs = [
        (uf.find(a), uf.find(b))
        for a, b, positive in problem.identity_literals
        if not positive
    ]
    if any(a == b for a, b in distinct_pairs):
        return None, stats

    # --- kind domains -----------------------------------------------------
    representatives = sorted({uf.find(name) for name in problem.oop_vars})
    domains = {name: set(ALL_KINDS) for name in representatives}
    for name, tag, positive in problem.kind_literals:
        rep = uf.find(name)
        if positive:
            domains[rep] &= {tag}
        else:
            domains[rep] -= {tag}
        if not domains[rep]:
            return None, stats

    class_constrained = {uf.find(name) for name in problem.class_constrained}

    # --- enumerate kind (and class) assignments ---------------------------
    ordered_kinds = {
        name: [k for k in _KIND_PREFERENCE if k in domains[name]]
        for name in representatives
    }

    def class_choices(name: str, tag: KindTag):
        if tag != KindTag.OBJECT:
            return [None]
        if name in class_constrained:
            return list(context.default_object_classes)
        return [context.default_object_classes[0]]

    problem.prepare(uf, extra_constants)
    assignments_tried = 0
    for kind_combo in itertools.product(
        *(ordered_kinds[name] for name in representatives)
    ):
        kind_map = dict(zip(representatives, kind_combo))
        # Distinct immediates of the same kind are handled in witness
        # search (integers) or impossible (nil/true/false singletons).
        bad = False
        for a, b in distinct_pairs:
            if kind_map.get(a) == kind_map.get(b) and kind_map.get(a) in (
                KindTag.NIL,
                KindTag.TRUE,
                KindTag.FALSE,
            ):
                bad = True
                break
        if bad:
            continue
        object_vars = [n for n, t in kind_map.items() if t == KindTag.OBJECT]
        for class_combo in itertools.product(
            *(class_choices(name, kind_map[name]) for name in object_vars)
        ):
            assignments_tried += 1
            if assignments_tried > _MAX_KIND_ASSIGNMENTS:
                stats.status = "unknown"
                stats.truncated = True
                stats.nodes = total - node_budget[0]
                return None, stats
            assignment = _Assignment(
                kinds=dict(kind_map),
                classes=dict(zip(object_vars, class_combo)),
                int_values={},
                float_values={},
            )
            if node_budget[0] <= 0:
                # Solve budget exhausted: unknown, not UNSAT.
                stats.status = "unknown"
                stats.truncated = True
                stats.nodes = total - node_budget[0]
                return None, stats
            if not _search_witnesses(problem, assignment, uf, rng, strategy,
                                     node_budget, stats):
                continue
            model = _finalize(problem, assignment, uf)
            if model is not None and model.satisfies(list(literals)):
                stats.status = "sat"
                stats.nodes = total - node_budget[0]
                return model, stats
    stats.nodes = total - node_budget[0]
    if stats.truncated:
        stats.status = "unknown"
    return None, stats


def _finalize(problem: _Problem, assignment: _Assignment, uf: _UnionFind):
    """Assemble a Model from a successful assignment."""
    context = problem.context
    model = Model(context=context)
    for name in sorted(set(assignment.kinds) | problem.oop_vars):
        rep = uf.find(name)
        if rep != name:
            model.aliases[name] = rep
    for name, tag in assignment.kinds.items():
        if tag == KindTag.SMALL_INT:
            model.kinds[name] = Kind(
                KindTag.SMALL_INT, value=assignment.int_values.get(f"IV::{name}", 0)
            )
        elif tag == KindTag.FLOAT:
            model.kinds[name] = Kind(KindTag.FLOAT)
            model.float_values[name] = assignment.float_values.get(name, 1.0)
        elif tag == KindTag.OBJECT:
            model.kinds[name] = Kind(
                KindTag.OBJECT,
                class_index=assignment.classes[name],
                num_slots=assignment.int_values.get(f"SC::{name}", 0),
            )
        else:
            model.kinds[name] = Kind(tag)
    for name, value in assignment.int_values.items():
        if "::" not in name:
            model.int_values[name] = value
    return model
