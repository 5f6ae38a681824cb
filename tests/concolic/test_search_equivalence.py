"""Search-equivalence regression: the witness search is node-for-node fixed.

``search_corpus.json`` holds raw ``solve_status`` calls captured while
exploring a few instructions (byte- and word-access primitives, FFI
reads and writes, integer/float arithmetic, identity), together with
what each call answered when the corpus was recorded:
``(status, nodes, truncated, model.to_dict())``.  Every call is also
replayed under a tiny node budget (truncation plus the random-repair
fallback) and with the ``product`` ablation strategy.

The search's node count depends on its variable order, on where each
literal is checked and on where a node is counted, so an optimisation
of the evaluator or of the search loop that moves any of them fails
here even when every verdict stays the same.

Re-record (only for an intended change of search behaviour)::

    PYTHONPATH=src python tests/concolic/test_search_equivalence.py
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.concolic.solver.model import SolverContext
from repro.concolic.solver.solver import solve_status
from repro.concolic.terms import Sort, Term
from repro.memory.bootstrap import bootstrap_memory

CORPUS = pathlib.Path(__file__).with_name("search_corpus.json")

#: Instructions whose exploration supplies the corpus.  The FFI reads
#: carry the heaviest searches: UNSAT byte-extraction conjunctions of
#: the ``lt(bitand(shr(v.raw, k), 255), -2^30)`` shape.
INSTRUCTIONS = (
    "primitiveFFIReadInt16", "primitiveFFIReadUint8", "primitiveFFIReadInt64",
    "primitiveFFIWriteInt16", "primitiveAt", "primitiveStringAt",
    "primitiveNewWithArg", "primitiveBitShift", "primitiveFloatDivide",
    "bytecodePrimAdd", "primitiveNotIdentical",
)

#: (strategy, max_nodes) variants replayed for every captured call.
VARIANTS = (("backtracking", None), ("backtracking", 20), ("product", 400))


def term_to_json(term: Term):
    if term.op in ("var", "const"):
        return [term.op, term.sort.value, term.args[0]]
    return [term.op, term.sort.value, [term_to_json(arg) for arg in term.args]]


def term_from_json(data) -> Term:
    op, sort, payload = data
    if op in ("var", "const"):
        return Term(op, (payload,), Sort(sort))
    return Term(op, tuple(term_from_json(arg) for arg in payload), Sort(sort))


def _context() -> SolverContext:
    memory, _known = bootstrap_memory(heap_words=8 * 1024)
    return SolverContext.from_memory(memory)


def _outcome(literals, context, seed, constants, strategy, max_nodes):
    model, stats = solve_status(
        literals, context, seed, strategy, max_nodes, constants
    )
    return json.loads(json.dumps([
        stats.status, stats.nodes, stats.truncated,
        model.to_dict() if model is not None else None,
    ]))


def record() -> None:
    """Capture the corpus by exploring INSTRUCTIONS with a cold memo."""
    from repro.cli import resolve_spec
    from repro.concolic.explorer import ConcolicExplorer
    from repro.concolic.solver import incremental

    captured = []
    raw = incremental.raw_solve_status

    def capture(literals, context, seed=0xC0FFEE, strategy="backtracking",
                max_nodes=None, extra_constants=()):
        captured.append((list(literals), context, seed, tuple(extra_constants)))
        return raw(literals, context, seed, strategy, max_nodes,
                   extra_constants)

    incremental.raw_solve_status = capture
    try:
        for name in INSTRUCTIONS:
            incremental.clear_default_cache()
            ConcolicExplorer(resolve_spec(name)).explore()
    finally:
        incremental.raw_solve_status = raw
    context = _context()
    entries = []
    for literals, call_context, seed, constants in captured:
        assert call_context == context
        entries.append({
            "literals": [term_to_json(literal) for literal in literals],
            "seed": seed,
            "constants": list(constants),
            "expected": [
                _outcome(literals, context, seed, constants, strategy, nodes)
                for strategy, nodes in VARIANTS
            ],
        })
    CORPUS.write_text(json.dumps(entries, separators=(",", ":")) + "\n")
    print(f"recorded {len(entries)} calls to {CORPUS}")


def _corpus():
    return json.loads(CORPUS.read_text())


@pytest.fixture(scope="module")
def context():
    return _context()


def test_corpus_has_heavy_searches():
    nodes = [entry["expected"][0][1] for entry in _corpus()]
    assert len(nodes) >= 100
    assert max(nodes) > 4000
    statuses = {entry["expected"][0][0] for entry in _corpus()}
    assert {"sat", "unsat"} <= statuses
    # The tiny budget truncates some searches, and the repair loop then
    # finds a model for some of those.
    truncated = [entry["expected"][1] for entry in _corpus()]
    assert any(status == "unknown" for status, *_ in truncated)
    assert any(status == "sat" and cut for status, _n, cut, _m in truncated)


def test_json_terms_round_trip():
    for entry in _corpus()[:20]:
        for data in entry["literals"]:
            assert term_to_json(term_from_json(data)) == data


@pytest.mark.parametrize("variant", range(len(VARIANTS)),
                         ids=[f"{s}-{n}" for s, n in VARIANTS])
def test_search_is_node_for_node_identical(context, variant):
    strategy, max_nodes = VARIANTS[variant]
    mismatches = []
    for index, entry in enumerate(_corpus()):
        literals = [term_from_json(data) for data in entry["literals"]]
        got = _outcome(literals, context, entry["seed"],
                       tuple(entry["constants"]), strategy, max_nodes)
        if got != entry["expected"][variant]:
            mismatches.append((index, got[:3], entry["expected"][variant][:3]))
    assert not mismatches, mismatches[:5]


if __name__ == "__main__":
    record()
