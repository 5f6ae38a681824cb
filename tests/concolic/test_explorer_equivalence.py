"""Equivalence suite: the path-tree explorer is exactly ``explore_raw``.

The prefix-sharing tree and the snapshot store are pure optimizations;
the contract (asserted here, property-based over the instruction
corpus) is that ``ConcolicExplorer.explore`` and
``ConcolicExplorer.explore_raw`` agree on everything except wall-clock:
path signatures *in order*, input models, exit conditions, every
iteration-independent :class:`ExplorationResult` counter, and the
curated path sets the differential tester ultimately consumes.  The
campaign-level tests extend the same guarantee through the campaign:
with ``ConcolicExplorer.explore`` patched to ``explore_raw``, reports
are byte-identical to the default, at any worker count and across a
journal resume (the pool forks, so its workers inherit the patch).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bytecode.opcodes import testable_bytecodes
from repro.concolic.explorer import (
    BytecodeInstructionSpec,
    ConcolicExplorer,
    NativeMethodSpec,
)
from repro.difftest.curation import curate_paths
from repro.difftest.report import format_table2, format_table3
from repro.difftest.runner import CampaignConfig, run_campaign
from repro.interpreter.primitives import testable_primitives
from repro.jit.machine.x86 import X86Backend

BYTECODES = testable_bytecodes()
NATIVES = testable_primitives()

CONFIG = CampaignConfig(max_bytecodes=2, max_natives=1, backends=(X86Backend,))


def assert_equivalent(spec, **kwargs):
    tree = ConcolicExplorer(spec, **kwargs).explore()
    raw = ConcolicExplorer(spec, **kwargs).explore_raw()
    assert [p.signature for p in tree.paths] == [p.signature for p in raw.paths]
    assert [p.model.to_dict() for p in tree.paths] == [
        p.model.to_dict() for p in raw.paths
    ]
    assert [p.exit.condition for p in tree.paths] == [
        p.exit.condition for p in raw.paths
    ]
    assert [p.output.heap_writes for p in tree.paths] == [
        p.output.heap_writes for p in raw.paths
    ]
    assert tree.iterations == raw.iterations
    assert tree.unsat_prefixes == raw.unsat_prefixes
    assert tree.duplicate_paths == raw.duplicate_paths
    assert tree.budget_exhausted == raw.budget_exhausted
    assert [p.signature for p in curate_paths(tree.paths)] == [
        p.signature for p in curate_paths(raw.paths)
    ]
    return tree, raw


class TestInstructionEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(index=st.integers(0, len(BYTECODES) - 1))
    def test_bytecodes(self, index):
        assert_equivalent(BytecodeInstructionSpec(BYTECODES[index]))

    @settings(max_examples=10, deadline=None)
    @given(index=st.integers(0, len(NATIVES) - 1))
    def test_natives(self, index):
        assert_equivalent(NativeMethodSpec(NATIVES[index]))

    @settings(max_examples=10, deadline=None)
    @given(
        index=st.integers(0, len(NATIVES) - 1),
        max_iterations=st.integers(1, 60),
        max_paths=st.integers(1, 16),
    )
    def test_natives_under_truncated_budgets(self, index, max_iterations, max_paths):
        """Budget caps cut both loops at the same iteration.

        Subsumed prefixes consume an iteration exactly like the solver
        call they replace, so a ``max_iterations``/``max_paths`` cap
        lands on the same worklist entry in both explorers.
        """
        assert_equivalent(
            NativeMethodSpec(NATIVES[index]),
            max_iterations=max_iterations,
            max_paths=max_paths,
        )


class TestCampaignEquivalence:
    @pytest.fixture(scope="class")
    def baseline(self):
        """The default (path-tree) sequential campaign."""
        return run_campaign(CONFIG)

    @pytest.fixture
    def root_loop(self, monkeypatch):
        """Explore with the from-the-root loop for one test; returns the
        calls made in this process."""
        calls = []
        explore_raw = ConcolicExplorer.explore_raw

        def explore(explorer):
            calls.append(explorer)
            return explore_raw(explorer)

        monkeypatch.setattr(ConcolicExplorer, "explore", explore)
        return calls

    def test_explore_raw_sequential_matches(self, baseline, root_loop):
        raw = run_campaign(CONFIG)
        assert root_loop  # the patched loop really ran
        assert format_table2(raw) == format_table2(baseline)
        assert format_table3(raw) == format_table3(baseline)

    def test_explore_raw_parallel_matches(self, baseline, root_loop):
        raw = run_campaign(CONFIG, jobs=2)
        assert format_table2(raw) == format_table2(baseline)
        assert format_table3(raw) == format_table3(baseline)

    def test_explore_raw_resume_matches(self, baseline, root_loop, tmp_path):
        journal = tmp_path / "journal.jsonl"
        run_campaign(CONFIG, journal_path=journal)
        resumed = run_campaign(CONFIG, jobs=2, journal_path=journal,
                               resume=True)
        assert format_table2(resumed) == format_table2(baseline)
