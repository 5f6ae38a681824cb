"""Campaign driver: explore, curate, differentially test, aggregate.

Reproduces the paper's evaluation methodology (Section 5.1): four main
experiments — the native-method template compiler plus the three
byte-code compilers — with every test-case scenario executed on two
architectures (x86 and ARM32).

The concolic exploration of each instruction is performed once and its
paths are reused across compilers and back-ends, matching the paper's
note that "the results of the concolic exploration can be cached and
reused multiple times".

The driver is fault tolerant: every (instruction, compiler) cell runs
behind the robustness layer's :func:`~repro.robustness.errors.guard`.
A crashing cell is retried once with reduced budgets, then quarantined
— recorded as a ``CRASHED`` comparison while the campaign continues.
With a journal attached, completed cells are checkpointed to JSONL and
``resume=True`` replays them, so an interrupted campaign (crash, ^C,
expired deadline) picks up where it left off with identical aggregate
counts.

Every campaign executes one canonical plan (:func:`campaign_rows`)
through one cell loop, :func:`repro.parallel.worker.run_shard`, over
per-instruction shards of the plan: in this process at ``-j 1``, in
OS worker processes at ``-j N`` (:mod:`repro.parallel`).  Either way
the cells' serialized records are folded into reports by one merge in
plan order, so aggregate reports are byte-identical across ``-j``
values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro import perf
from repro.bytecode.opcodes import testable_bytecodes
from repro.concolic.explorer import (
    BytecodeInstructionSpec,
    ConcolicExplorer,
    ExplorationCache,
    ExplorationResult,
    NativeMethodSpec,
)
from repro.difftest.curation import curate_paths
from repro.difftest.harness import ComparisonResult, DifferentialTester, Status
from repro.interpreter.primitives import testable_primitives
from repro.jit.machine.arm32 import Arm32Backend
from repro.jit.machine.x86 import X86Backend
from repro.jit.native_templates import NativeMethodCompiler
from repro.jit.register_allocating import RegisterAllocatingCogit
from repro.jit.simple_stack import SimpleStackBasedCogit
from repro.jit.stack_to_register import StackToRegisterCogit
from repro.robustness.budgets import Deadline
from repro.robustness.checkpoint import CampaignJournal
from repro.robustness.errors import (
    BudgetExhausted,
    CampaignError,
    classify_crash,
    guard,
)
from repro.robustness.quarantine import Quarantine

BYTECODE_COMPILERS = (
    SimpleStackBasedCogit,
    StackToRegisterCogit,
    RegisterAllocatingCogit,
)
BACKENDS = (X86Backend, Arm32Backend)


@dataclass
class InstructionTestResult:
    """All comparisons for one instruction on one compiler."""

    instruction: str
    kind: str
    compiler: str
    exploration: ExplorationResult
    curated_path_count: int = 0
    comparisons: list = field(default_factory=list)
    test_seconds: float = 0.0
    #: Reduced-budget retries the robustness layer spent on this cell
    #: (0 = clean first attempt); surfaced in the report summary so
    #: operators can cross-check flaky-confirmation counts.
    retries: int = 0

    @property
    def differing_paths(self) -> int:
        """Paths that differ on at least one backend."""
        by_path: dict[int, bool] = {}
        for comparison in self.comparisons:
            key = id(comparison.path)
            by_path[key] = by_path.get(key, False) or comparison.is_difference
        return sum(1 for differs in by_path.values() if differs)

    def differences(self) -> list:
        return [c for c in self.comparisons if c.is_difference]


@dataclass
class CompilerReport:
    """One row of the paper's Table 2."""

    compiler: str
    tested_instructions: int = 0
    interpreter_paths: int = 0
    curated_paths: int = 0
    differing_paths: int = 0
    results: list = field(default_factory=list)

    @property
    def difference_percentage(self) -> float:
        if not self.curated_paths:
            return 0.0
        return 100.0 * self.differing_paths / self.curated_paths

    def row(self) -> tuple:
        return (
            self.compiler,
            self.tested_instructions,
            self.interpreter_paths,
            self.curated_paths,
            f"{self.differing_paths} ({self.difference_percentage:.2f}%)",
        )


@dataclass
class CampaignConfig:
    """Scope and budget controls for a campaign run."""

    #: Limit instruction counts (None = all); used by tests/benchmarks.
    max_bytecodes: int | None = None
    max_natives: int | None = None
    #: Restrict the plan to these instruction names (empty = no filter).
    #: Applied after ``max_bytecodes``/``max_natives`` slicing; used to
    #: scope seeded-defect campaigns (CI triage smoke, acceptance runs)
    #: to the instructions that actually exhibit the defect.
    only: tuple = ()
    backends: tuple = BACKENDS
    max_paths_per_instruction: int = 64
    max_iterations: int = 200
    #: Run extra boundary witnesses per path (extension beyond the
    #: paper; see repro.difftest.boundary).
    boundary_witnesses: bool = False
    #: Hard fuel limit for each simulated machine execution; exceeding
    #: it is a DIVERGED outcome, not a hang.
    max_sim_steps: int = 20_000
    #: Wall-clock budget for the whole campaign (None = unbounded).
    deadline_seconds: float | None = None
    #: Per-cell wall-clock budget enforced by the parallel engine's
    #: supervisor (``--cell-timeout``): a worker whose current cell
    #: outlives it is SIGKILLed, the cell is quarantined as
    #: ``BudgetExhausted`` and the rest of its shard re-queued.  None
    #: derives a default from ``deadline_seconds`` (a quarter, floored
    #: at 1s); with neither set, supervision is off.  At ``-j 1`` cells
    #: run in-process and rely on cooperative deadline checks instead.
    cell_timeout_seconds: float | None = None
    #: Worker resource limits, applied via ``setrlimit`` in each forked
    #: child (``--worker-memory-mb`` -> RLIMIT_AS,
    #: ``--worker-cpu-seconds`` -> RLIMIT_CPU); breaches classify as
    #: ``WorkerResourceExceeded``, not a generic ``WorkerCrash``.
    worker_memory_mb: int | None = None
    worker_cpu_seconds: int | None = None
    #: Re-raise the first cell crash instead of quarantining (debugging).
    fail_fast: bool = False
    #: Budget multiplier applied for the single quarantine retry.
    retry_scale: float = 0.5
    #: Re-seed the historical R10/R11 fault-describer defect (paper
    #: fidelity benchmarks and fault-injection tests only).
    fault_describer_gaps: tuple = ()
    #: Active mutant ids from the semantic mutation registry
    #: (``campaign --mutant`` / ``repro mutate``; see docs/MUTATION.md).
    #: Part of the config so the mutated semantics cross the fork
    #: boundary with the pickled config and reach every execution: the
    #: in-process shard loop, pool workers, quarantine retries, triage
    #: trials and emitted reproducers all activate exactly this tuple.
    mutants: tuple = ()
    #: Collect cache/solver instrumentation (``campaign --profile``).
    #: Profiling observes counters and wall-clock only; reports stay
    #: byte-identical with it on or off.
    profile: bool = False
    #: Explore with the from-the-root loop instead of the prefix-sharing
    #: path tree; ablation only (the equivalence suites and the explorer
    #: ablation benchmark) — results are identical, the tree is just
    #: faster.
    raw_explorer: bool = False
    #: Stitched-corpus budget knobs (``campaign --stitch`` /
    #: ``repro stitch``; docs/STITCHING.md).  Part of the config so the
    #: corpus — a deterministic pure function of these four values — is
    #: re-derived identically by pool workers from the pickled config.
    stitch_fragments: int = 12
    stitch_max_methods: int = 24
    stitch_depth: int = 2
    stitch_paths_per_fragment: int = 8

    def reduced(self) -> "CampaignConfig":
        """The smaller-budget config used for the quarantine retry.

        Only the *budgets* shrink.  The semantic knobs — the seeded
        describer gaps and the active mutants — are threaded through
        explicitly: a quarantine retry must re-run the cell under the
        exact semantics the first attempt saw, or the retry would
        "fix" a seeded defect by accident (see
        tests/mutation/test_retry_semantics.py).
        """
        scale = self.retry_scale
        return replace(
            self,
            max_paths_per_instruction=max(
                1, int(self.max_paths_per_instruction * scale)
            ),
            max_iterations=max(1, int(self.max_iterations * scale)),
            max_sim_steps=max(256, int(self.max_sim_steps * scale)),
            fault_describer_gaps=self.fault_describer_gaps,
            mutants=self.mutants,
        )


def explore_instruction(spec, config: CampaignConfig,
                        deadline=None) -> ExplorationResult:
    explorer = ConcolicExplorer(
        spec,
        max_iterations=config.max_iterations,
        max_paths=config.max_paths_per_instruction,
        deadline=deadline,
    )
    if config.raw_explorer:
        return explorer.explore_raw()
    return explorer.explore()


def test_instruction(
    spec,
    compiler_class,
    config: CampaignConfig | None = None,
    exploration: ExplorationResult | None = None,
    deadline=None,
) -> InstructionTestResult:
    """Explore (or reuse an exploration) and differentially test."""
    config = config or CampaignConfig()
    if exploration is None:
        exploration = explore_instruction(spec, config, deadline)
    curated = curate_paths(exploration.paths)
    result = InstructionTestResult(
        instruction=spec.name,
        kind=spec.kind,
        compiler=compiler_class.name,
        exploration=exploration,
        curated_path_count=len(curated),
    )
    start = time.perf_counter()
    for backend_class in config.backends:
        with guard("harness"):
            tester = DifferentialTester(
                spec, backend_class(), compiler_class,
                max_sim_steps=config.max_sim_steps,
                deadline=deadline,
                fault_describer_gaps=config.fault_describer_gaps,
            )
        for path in curated:
            if deadline is not None:
                deadline.check(f"testing {spec.name}")
            result.comparisons.append(tester.run_path(path))
            if config.boundary_witnesses:
                from repro.difftest.boundary import boundary_models

                for model in boundary_models(path, tester.context):
                    result.comparisons.append(tester.run_path(path, model))
    result.test_seconds = time.perf_counter() - start
    perf.observe("test", result.test_seconds)
    perf.incr("test.cells")
    perf.incr("test.comparisons", len(result.comparisons))
    return result


def _scope_specs(specs: list, config: CampaignConfig) -> list:
    """Apply the ``only`` instruction-name filter, preserving order."""
    if not config.only:
        return specs
    wanted = set(config.only)
    return [spec for spec in specs if spec.name in wanted]


def bytecode_specs(config: CampaignConfig) -> list:
    bytecodes = testable_bytecodes()
    if config.max_bytecodes is not None:
        bytecodes = bytecodes[: config.max_bytecodes]
    return _scope_specs(
        [BytecodeInstructionSpec(bytecode) for bytecode in bytecodes], config
    )


def native_specs(config: CampaignConfig) -> list:
    natives = testable_primitives()
    if config.max_natives is not None:
        natives = natives[: config.max_natives]
    return _scope_specs(
        [NativeMethodSpec(native) for native in natives], config
    )


# ======================================================================
# the canonical campaign plan


@dataclass(frozen=True)
class ExperimentRow:
    """One report row of the campaign: a compiler over a spec list.

    The row sequence returned by :func:`campaign_rows` /
    :func:`sequence_campaign_rows` is the *canonical plan*: it is
    sharded by instruction for execution (in-process or on a pool),
    results are merged back into exactly this order, and ``--resume``
    replays against it.  Determinism across ``-j`` values holds because
    every mode reports through the same plan.
    """

    experiment: str  # journal namespace: "main" | "sequences" | "stitched"
    label: str  # report row label
    compiler_class: type
    specs: tuple


def campaign_rows(config: CampaignConfig) -> list[ExperimentRow]:
    """The four main-experiment rows, in the paper's Table 2 order."""
    rows = [
        ExperimentRow("main", "Native Methods (primitives)",
                      NativeMethodCompiler, tuple(native_specs(config)))
    ]
    bytecodes = tuple(bytecode_specs(config))
    for compiler_class in BYTECODE_COMPILERS:
        rows.append(
            ExperimentRow("main", compiler_class.name, compiler_class,
                          bytecodes)
        )
    return rows


def sequence_campaign_rows(config: CampaignConfig) -> list[ExperimentRow]:
    """The extension experiment's rows: the sequence corpus per
    byte-code compiler."""
    from repro.concolic.sequences import (
        generate_pair_sequences,
        interesting_sequences,
    )

    specs = tuple(_scope_specs(
        interesting_sequences() + generate_pair_sequences(), config
    ))
    return [
        ExperimentRow("sequences", f"{compiler_class.name} (sequences)",
                      compiler_class, specs)
        for compiler_class in BYTECODE_COMPILERS
    ]


def stitched_campaign_rows(config: CampaignConfig) -> list[ExperimentRow]:
    """The template-stitched corpus per byte-code compiler.

    The corpus is derived (memoized per budget, mutants suspended) by
    :func:`repro.stitch.corpus.build_stitched_corpus` — a deterministic
    pure function of the config's ``stitch_*`` knobs, so parent and
    pool workers independently resolve identical rows.
    """
    from repro.stitch.corpus import StitchBudget, build_stitched_corpus

    specs, _report = build_stitched_corpus(StitchBudget.from_config(config))
    specs = tuple(_scope_specs(list(specs), config))
    return [
        ExperimentRow("stitched", f"{compiler_class.name} (stitched)",
                      compiler_class, specs)
        for compiler_class in BYTECODE_COMPILERS
    ]


# ======================================================================
# the fault-tolerant campaign engine


class CampaignResult(list):
    """The campaign reports plus the resilience layer's bookkeeping.

    A list subclass so every existing consumer of
    ``list[CompilerReport]`` (tables, figures, benchmarks) keeps
    working; the extra attributes carry the quarantine, resume and
    budget state of the run.
    """

    def __init__(self, reports=()):
        super().__init__(reports)
        self.quarantine = Quarantine()
        self.budget_exhausted = False
        self.resumed_cells = 0
        self.journal_path = None
        #: Worker processes used (1 = the shard loop ran in-process).
        self.workers = 1
        #: Exploration-cache effectiveness over the whole run.
        self.cache_hits = 0
        self.cache_misses = 0
        #: Cells served from the persistent cross-run result store
        #: (docs/INCREMENTAL.md), and the store's
        #: :class:`repro.incremental.CacheStats` (None = cache off).
        self.cached_cells = 0
        self.cache = None
        #: Perf snapshot dict when the run was profiled, else None.
        self.perf = None
        #: :class:`repro.triage.TriageReport` when the run was triaged
        #: (``campaign --triage``), else None.
        self.triage = None
        #: Supervision bookkeeping (worker pool): cells preempted
        #: at --cell-timeout and replacement workers spawned.
        self.preempted_cells = 0
        self.respawned_workers = 0
        #: Unexpected (non-pipe-death) I/O errors contained on worker
        #: pipes; see ``pool.unexpected_io_errors``.
        self.unexpected_io_errors = 0
        #: :class:`repro.robustness.checkpoint.JournalReplay` stats of
        #: the --resume replay, else None (no journal / fresh run).
        self.journal_replay = None


@dataclass
class JournaledExploration:
    """Exploration counters rebuilt from a journal record."""

    instruction: str
    kind: str
    path_count: int
    elapsed_seconds: float = 0.0


@dataclass
class ResumedCellResult:
    """An :class:`InstructionTestResult` stand-in replayed from the
    journal: same counters and comparison verdicts, no live paths."""

    instruction: str
    kind: str
    compiler: str
    exploration: JournaledExploration
    curated_path_count: int
    comparisons: list
    test_seconds: float
    differing_path_count: int
    retries: int = 0

    @property
    def differing_paths(self) -> int:
        return self.differing_path_count

    def differences(self) -> list:
        return [c for c in self.comparisons if c.is_difference]


def _backend_scope(config: CampaignConfig) -> str:
    return "+".join(
        getattr(backend, "name", str(backend)) for backend in config.backends
    )


def execute_cell(config: CampaignConfig, deadline, spec, compiler_class,
                 explorations: ExplorationCache):
    """Run one cell with crash isolation: (result, None) on success,
    (None, CampaignError) after the reduced-budget retry also failed.

    The shard loop (:func:`repro.parallel.worker.run_shard`) calls it
    for every cell, in this process at ``-j 1`` or inside a worker
    process; the triage lab calls it for confirmation trials.  A
    campaign-scoped
    :class:`BudgetExhausted` (the shared deadline expiring) always
    propagates — stopping the run is the caller's decision.

    ``config.mutants`` is activated around the whole cell — both the
    full-budget attempt and the reduced-budget quarantine retry — so
    every execution path sees the same (possibly mutated) semantics
    regardless of which process called in.  Activation is
    reference-counted (:mod:`repro.mutation.registry`), so a caller
    that already holds the mutants active (a pool worker forked under
    them, a triage pass) nests safely.
    """
    # Local import: repro.mutation's operator modules patch the same
    # interpreter/jit classes this module imports, and its recall
    # driver imports this module — a top-level import would cycle.
    from repro.mutation import activated

    with activated(config.mutants):
        return _execute_cell_attempts(config, deadline, spec,
                                      compiler_class, explorations)


def _execute_cell_attempts(config: CampaignConfig, deadline, spec,
                           compiler_class, explorations: ExplorationCache):
    error = None
    for attempt, cfg in enumerate((config, config.reduced())):
        deadline.check(f"cell {spec.name}/{compiler_class.name}")
        try:
            exploration = explorations.get(spec)
            if exploration is None:
                with guard("explorer"):
                    exploration = explore_instruction(spec, cfg, deadline)
                if attempt == 0:
                    # Only full-budget explorations enter the shared
                    # cache; retries keep their reduced paths private.
                    explorations.put(spec, exploration)
            result = test_instruction(
                spec, compiler_class, cfg, exploration, deadline
            )
            result.retries = attempt
            return result, None
        except BudgetExhausted as exc:
            if exc.scope == "campaign":
                raise
            error = exc
        except CampaignError as exc:
            error = exc
        except Exception as exc:  # pragma: no cover - guards net these
            error = classify_crash(exc, "harness")
        if config.fail_fast:
            raise error
    return None, error


def _crashed_result(spec, compiler_class, config,
                    error: CampaignError) -> InstructionTestResult:
    """The visible record of a quarantined cell: one CRASHED comparison."""
    result = InstructionTestResult(
        instruction=spec.name,
        kind=spec.kind,
        compiler=compiler_class.name,
        exploration=ExplorationResult(spec.name, spec.kind),
        retries=1,  # the reduced-budget retry ran and also failed
    )
    result.comparisons.append(
        ComparisonResult(
            instruction=spec.name,
            kind=spec.kind,
            compiler=compiler_class.name,
            backend=_backend_scope(config),
            status=Status.CRASHED,
            difference_kind=error.error_class,
            detail=str(error),
        )
    )
    return result


def _serialize_cell(key: str, result, quarantine_entry=None) -> dict:
    return {
        "key": key,
        "instruction": result.instruction,
        "kind": result.kind,
        "compiler": result.compiler,
        "interpreter_paths": result.exploration.path_count,
        "explore_seconds": result.exploration.elapsed_seconds,
        "curated_paths": result.curated_path_count,
        "differing_paths": result.differing_paths,
        "test_seconds": result.test_seconds,
        "retries": getattr(result, "retries", 0),
        "comparisons": [
            comparison.to_record() for comparison in result.comparisons
        ],
        "quarantined": (
            quarantine_entry.to_dict() if quarantine_entry is not None else None
        ),
    }


def _rebuild_cell(record: dict) -> ResumedCellResult:
    comparisons = [
        ComparisonResult.from_record(
            entry,
            instruction=record["instruction"],
            kind=record["kind"],
            compiler=record["compiler"],
        )
        for entry in record["comparisons"]
    ]
    return ResumedCellResult(
        instruction=record["instruction"],
        kind=record["kind"],
        compiler=record["compiler"],
        exploration=JournaledExploration(
            instruction=record["instruction"],
            kind=record["kind"],
            path_count=record["interpreter_paths"],
            elapsed_seconds=record.get("explore_seconds", 0.0),
        ),
        curated_path_count=record["curated_paths"],
        comparisons=comparisons,
        test_seconds=record.get("test_seconds", 0.0),
        differing_path_count=record["differing_paths"],
        retries=record.get("retries", 0),
    )


def _run_in_process(config: CampaignConfig, rows, shards, records: dict,
                    result: CampaignResult, *, deadline, journal, store,
                    fingerprints: dict) -> None:
    """``-j 1``: run the shard loop over *shards* in this process."""
    from repro.parallel.worker import run_shard

    def receive(message) -> None:
        if message[0] == "cell":
            records[message[1]] = message[2]
        elif message[0] == "shard_done":
            result.cache_hits += message[1]
            result.cache_misses += message[2]

    for shard in shards:
        try:
            run_shard(shard, rows, config, deadline, journal, store,
                      fingerprints, receive)
        except BudgetExhausted:
            # The campaign deadline expired (execute_cell lets only that
            # scope through): stop cleanly; a journal makes the run
            # resumable.
            result.budget_exhausted = True
            return
    if perf.enabled():
        from repro.concolic.solver.incremental import record_solver_gauges

        record_solver_gauges()


def _run_rows(config: CampaignConfig, rows: list[ExperimentRow], *,
              journal_path, resume: bool, jobs: int,
              triage=None, cache_dir=None) -> CampaignResult:
    """Execute a canonical plan and fold it into reports.

    Every cell's record lands in one ``key -> record`` dict: first the
    journal's (``resume``), then the persistent result store's hits
    (*cache_dir*: every plan cell is fingerprinted by
    :mod:`repro.incremental.fingerprint` and looked up here), then what
    the remaining shards produce through the one cell loop,
    :func:`repro.parallel.worker.run_shard` — in this process at
    ``jobs == 1``, on a worker pool otherwise.
    :func:`~repro.parallel.merge.merge_records` folds the dict in plan
    order, so reports are byte-identical across ``-j``, ``--resume``
    and the cache, and a fully-warm campaign executes (and forks)
    nothing.
    """
    from repro.parallel.merge import merge_records
    from repro.parallel.shard import plan_cells, plan_shards

    if config.profile:
        perf.enable()
    store = None
    try:
        fingerprints: dict = {}
        cached: dict = {}
        if cache_dir:
            from repro.incremental import ResultStore, plan_fingerprints

            store = ResultStore(str(cache_dir))
            store.load()
            fingerprints = plan_fingerprints(rows, config)
            for key, fingerprint in fingerprints.items():
                record = store.get(fingerprint, key)
                if record is not None:
                    cached[key] = record
        journal = CampaignJournal(journal_path) if journal_path else None
        if journal is not None and not resume:
            # A fresh (non-resuming) run must not append to stale state.
            journal.path.unlink(missing_ok=True)
        records: dict = {}
        result = CampaignResult()
        result.journal_path = journal_path
        if journal is not None and resume:
            # Triage records share the journal under ``triage::`` keys;
            # the planned-key filter keeps them out of cell resume.
            planned = {cell.key for cell in plan_cells(rows)}
            records = {key: record for key, record in journal.load().items()
                       if key in planned}
            result.resumed_cells = len(records)
            result.journal_replay = journal.replay
        for key, record in cached.items():
            if key not in records:  # a journal replay wins over the cache
                records[key] = record
                result.cached_cells += 1
        deadline = Deadline(config.deadline_seconds)
        shards = plan_shards(rows, records)
        if jobs is None or jobs == 1:
            _run_in_process(config, rows, shards, records, result,
                            deadline=deadline, journal=journal, store=store,
                            fingerprints=fingerprints)
        else:
            from repro.parallel.pool import resolve_jobs, run_parallel_rows

            run_parallel_rows(config, rows, shards, records, result,
                              jobs=resolve_jobs(jobs), deadline=deadline,
                              journal=journal, cache_dir=cache_dir,
                              fingerprints=fingerprints)
        merge_records(rows, records, result)
        if config.profile:
            # Cache lookups (and, at -j 1, every cell) ran here; fold
            # this process's counters into the workers' snapshots.
            result.perf = perf.merge_snapshots(
                [result.perf or {}, perf.snapshot() or {}]
            )
    finally:
        if config.profile:
            perf.disable()
    if store is not None:
        result.cache = store.stats
    if triage is not None:
        # Triage always runs in the parent process, over the serialized
        # cell records every run produces, so confirmation/shrinking
        # are byte-identical across -j values.
        from repro.triage import run_triage

        result.triage = run_triage(
            result, config, triage, journal_path=journal_path, resume=resume
        )
    return result


def run_campaign(config: CampaignConfig | None = None, *,
                 journal_path=None, resume: bool = False,
                 jobs: int = 1, triage=None,
                 cache_dir=None) -> CampaignResult:
    """The full four-experiment evaluation (paper Table 2).

    Returns one report per compiler: native methods first, then the
    three byte-code compilers, mirroring the paper's table rows.  With
    ``journal_path`` set, completed cells are checkpointed to JSONL;
    ``resume=True`` replays them instead of re-running.  ``jobs > 1``
    shards the cell grid across that many worker processes
    (``jobs=0`` = one per CPU); aggregate reports are byte-identical
    to a ``-j 1`` run of the same config.  ``triage`` takes a
    :class:`repro.triage.TriageConfig` to confirm/shrink/dedup the
    run's divergences and emit standalone reproducers
    (``result.triage`` carries the :class:`~repro.triage.TriageReport`).
    ``cache_dir`` attaches the persistent cross-run result store
    (docs/INCREMENTAL.md): semantically-unchanged cells are served from
    it instead of re-run, and ``result.cache`` carries the
    :class:`~repro.incremental.CacheStats`.
    """
    config = config or CampaignConfig()
    return _run_rows(config, campaign_rows(config),
                     journal_path=journal_path, resume=resume, jobs=jobs,
                     triage=triage, cache_dir=cache_dir)


def run_sequence_campaign(
    config: CampaignConfig | None = None, *,
    journal_path=None, resume: bool = False, jobs: int = 1, triage=None,
    cache_dir=None,
) -> CampaignResult:
    """Extension experiment: the byte-code *sequence* corpus.

    Runs the curated interesting sequences plus the generated minimal
    producer/consumer pairs through the three byte-code compilers —
    the paper's future work (Section 7) as a campaign of its own.
    """
    config = config or CampaignConfig()
    return _run_rows(config, sequence_campaign_rows(config),
                     journal_path=journal_path, resume=resume, jobs=jobs,
                     triage=triage, cache_dir=cache_dir)


def run_stitched_campaign(
    config: CampaignConfig | None = None, *,
    journal_path=None, resume: bool = False, jobs: int = 1, triage=None,
    cache_dir=None,
) -> CampaignResult:
    """Extension experiment: the template-stitched method corpus.

    Runs whole-method byte-code tests stitched from
    constraint-compatible fragment paths (docs/STITCHING.md) through
    the three byte-code compilers, with the same sharding, journaling
    and triage semantics as the other campaigns.
    """
    config = config or CampaignConfig()
    return _run_rows(config, stitched_campaign_rows(config),
                     journal_path=journal_path, resume=resume, jobs=jobs,
                     triage=triage, cache_dir=cache_dir)


def _accumulate(report: CompilerReport, result: InstructionTestResult) -> None:
    report.tested_instructions += 1
    report.interpreter_paths += result.exploration.path_count
    report.curated_paths += result.curated_path_count
    report.differing_paths += result.differing_paths
    report.results.append(result)


def all_comparisons(reports) -> list[ComparisonResult]:
    return [
        comparison
        for report in reports
        for result in report.results
        for comparison in result.comparisons
    ]
