"""Acceptance tests: `campaign --triage` on a seeded defect flood.

The scenario is the paper's own: re-seed the R10/R11 fault-describer
gap (`RESILIENCE.md`), scope the campaign to the instructions that hit
it, and let the flood of differing executions pour in.  Triage must
fold the flood into a handful of confirmed cause buckets, shrink each
to a minimal input, and emit standalone reproducers that fail on their
own — byte-identically at every `-j` value and across a resume.
"""

from __future__ import annotations

import contextlib
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.triage.engine as engine
from repro.difftest.runner import CampaignConfig, run_campaign
from repro.robustness import chaos
from repro.robustness.checkpoint import (
    TRIAGE_KEY_PREFIX,
    CampaignJournal,
    triage_records,
)
from repro.triage import TriageConfig, format_causes
from repro.triage.candidates import bucket_candidates, collect_divergences
from repro.triage.lab import TriageLab
from repro.triage.replay import replay
from repro.triage.shrink import shrink_candidate

#: The seeded-flood scenario: three natives that exercise the R10/R11
#: describer gap, producing dozens of differing executions from at
#: most a handful of root causes.
SCOPE = ("primitiveFloatTruncated", "primitiveMod", "primitiveConstantFill")
CONFIG = CampaignConfig(only=SCOPE, fault_describer_gaps=("R10", "R11"))


def triage_config():
    return TriageConfig(confirm_runs=2, repro_dir="repros")


def repro_files(workdir):
    return sorted((workdir / "repros").glob("*.py"))


def journaled_causes(journal_path):
    """The journal's ``triage::`` records, parsed, in file order."""
    return [
        record
        for record, _reason in CampaignJournal(journal_path).log.read()
        if record is not None
        and str(record.get("key", "")).startswith(TRIAGE_KEY_PREFIX)
    ]


@pytest.fixture(scope="module")
def triaged(tmp_path_factory):
    """The sequential seeded campaign every other run is compared to."""
    workdir = tmp_path_factory.mktemp("triage-seq")
    with contextlib.chdir(workdir):
        result = run_campaign(
            CONFIG,
            journal_path=workdir / "run.jsonl",
            triage=triage_config(),
        )
    return result, workdir


class TestSeededFlood:
    def test_flood_dedups_into_few_buckets(self, triaged):
        triage = triaged[0].triage
        assert 1 <= len(triage.causes) <= 5
        # Dedup must actually fold something: many executions, few causes.
        assert triage.divergence_count > len(triage.causes)
        assert sum(c.count for c in triage.causes) == triage.divergence_count

    def test_seeded_describer_gap_is_a_named_cause(self, triaged):
        causes = {c.signature.cause for c in triaged[0].triage.causes}
        assert any(cause.startswith("missing-getter:R1") for cause in causes)

    def test_every_cause_is_confirmed_deterministic(self, triaged):
        for cause in triaged[0].triage.causes:
            assert cause.confirmation == "deterministic"
            assert (cause.confirmed_runs, cause.total_runs) == (2, 2)

    def test_every_cause_shrank_to_a_minimal_input(self, triaged):
        for cause in triaged[0].triage.causes:
            assert cause.shrunken_shape is not None
            assert len(cause.constraints) <= cause.original_constraints
            assert cause.model is not None

    def test_backends_fold_into_one_bucket(self, triaged):
        assert all(
            cause.backends == ("arm32", "x86")
            for cause in triaged[0].triage.causes
        )

    def test_reproducers_emitted_and_self_verified(self, triaged):
        result, workdir = triaged
        emitted = {path.name for path in repro_files(workdir)}
        for cause in result.triage.causes:
            assert cause.repro_file in emitted
            assert cause.verified is True
        assert len(emitted) == len(result.triage.causes)

    def test_reproducer_fails_standalone(self, triaged):
        """An emitted script needs nothing but PYTHONPATH: exit 1 =
        divergence asserted."""
        _result, workdir = triaged
        script = repro_files(workdir)[0]
        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src_dir, "PATH": "/usr/bin:/bin"},
            timeout=300,
        )
        assert proc.returncode == 1, proc.stderr
        assert "DIVERGENCE REPRODUCED" in proc.stdout


class TestEngineIdentity:
    def test_parallel_triage_is_byte_identical(self, triaged, tmp_path):
        """`-j 4` causes section and reproducer files match `-j 1`."""
        sequential, seq_dir = triaged
        with contextlib.chdir(tmp_path):
            parallel = run_campaign(CONFIG, jobs=4, triage=triage_config())
        assert format_causes(parallel.triage) == format_causes(
            sequential.triage
        )
        seq_repros = repro_files(seq_dir)
        par_repros = repro_files(tmp_path)
        assert [p.name for p in par_repros] == [p.name for p in seq_repros]
        for seq_file, par_file in zip(seq_repros, par_repros):
            assert par_file.read_bytes() == seq_file.read_bytes()

    @pytest.mark.parametrize("width", [1, 3])
    def test_pipelined_verification_is_byte_identical(
        self, triaged, tmp_path, monkeypatch, width
    ):
        """However many reproducer self-checks run while the next bucket
        is confirmed and shrunk, the Causes section, the reproducer
        files and the ordered journal records are the same."""
        sequential, seq_dir = triaged
        monkeypatch.setattr(engine, "verifier_width", lambda: width)
        with contextlib.chdir(tmp_path):
            pipelined = run_campaign(
                CONFIG,
                journal_path=tmp_path / "run.jsonl",
                triage=triage_config(),
            )
        assert format_causes(pipelined.triage) == format_causes(
            sequential.triage
        )
        assert [p.read_bytes() for p in repro_files(tmp_path)] == [
            p.read_bytes() for p in repro_files(seq_dir)
        ]
        records = journaled_causes(tmp_path / "run.jsonl")
        assert records == journaled_causes(seq_dir / "run.jsonl")
        assert [r["cause"]["verified"] for r in records] == (
            [True] * len(sequential.triage.causes)
        )

    def test_resume_replays_triage_without_reshrinking(
        self, triaged, monkeypatch
    ):
        """A `--resume` run reuses journaled triage state: the Causes
        section is byte-identical, nothing is re-confirmed or
        re-shrunk, and a deleted reproducer is re-emitted from the
        journal."""
        original, workdir = triaged

        def forbidden(*_args, **_kwargs):
            raise AssertionError("resume must not re-confirm or re-shrink")

        monkeypatch.setattr(
            "repro.triage.engine.shrink_candidate", forbidden
        )
        monkeypatch.setattr(TriageLab, "locate", forbidden)

        victim = repro_files(workdir)[0]
        source = victim.read_bytes()
        victim.unlink()

        with contextlib.chdir(workdir):
            resumed = run_campaign(
                CONFIG,
                journal_path=workdir / "run.jsonl",
                resume=True,
                triage=triage_config(),
            )

        assert format_causes(resumed.triage) == format_causes(
            original.triage
        )
        assert resumed.triage.reused_causes == len(resumed.triage.causes)
        assert victim.read_bytes() == source


class TestInterruptedTriage:
    def test_resume_after_interrupt_with_verifiers_in_flight(
        self, triaged, tmp_path, monkeypatch
    ):
        """Triage dies at the third reproducer write while the earlier
        causes still await their self-check: those verifiers are reaped,
        no journaled cause lacks its verdict, and ``--resume`` reports
        byte-identically to an uninterrupted run."""
        original, _workdir = triaged
        # Width 1: the first cause settles when the second's verifier
        # starts; the second is still in flight at the third write.
        monkeypatch.setattr(engine, "verifier_width", lambda: 1)
        spawned = []
        spawn = engine.spawn_verifier

        def tracked_spawn(path):
            spawned.append(spawn(path))
            return spawned[-1]

        monkeypatch.setattr(engine, "spawn_verifier", tracked_spawn)
        write_point = chaos.write_point
        reproducer_writes = []

        class Interrupted(Exception):
            pass

        def dying_write_point(site, path=None, data=None):
            if site == "triage" and str(path).endswith(".py"):
                reproducer_writes.append(path)
                if len(reproducer_writes) == 3:
                    raise Interrupted
            write_point(site, path, data)

        monkeypatch.setattr(chaos, "write_point", dying_write_point)
        journal = tmp_path / "run.jsonl"
        with contextlib.chdir(tmp_path), pytest.raises(Interrupted):
            run_campaign(CONFIG, journal_path=journal,
                         triage=triage_config())
        assert len(spawned) == 2
        assert all(v.process.returncode is not None for v in spawned)
        interrupted = journaled_causes(journal)
        assert len(interrupted) == 1
        assert interrupted[0]["cause"]["verified"] is True

        monkeypatch.setattr(chaos, "write_point", write_point)
        with contextlib.chdir(tmp_path):
            resumed = run_campaign(CONFIG, journal_path=journal,
                                   resume=True, triage=triage_config())
        text = format_causes(resumed.triage)
        assert text == format_causes(original.triage)
        assert text.count("self-check: asserted") == len(
            resumed.triage.causes
        )
        records = triage_records(CampaignJournal(journal).load())
        assert len(records) == len(resumed.triage.causes)
        assert all(r["cause"]["verified"] is True for r in records.values())


class TestShrinkProperties:
    def test_shrunken_input_reproduces_identical_signature(self, triaged):
        """The acceptance predicate by construction: replaying the
        shrunken constraints + model must reproduce the *same*
        classification (category, cause, difference kind, exit pair),
        not just some defect."""
        for cause in triaged[0].triage.causes:
            expect = dict(
                cause.signature.to_dict(), backend=cause.exemplar_backend
            )
            verdict = replay(
                expect,
                cause.model,
                cause.constraints,
                max_sim_steps=CONFIG.max_sim_steps,
                fault_describer_gaps=CONFIG.fault_describer_gaps,
            )
            assert verdict.reproduced, cause.signature.canonical()

    def test_shrinking_is_deterministic(self, triaged):
        """Two independent labs shrink the same exemplar to the same
        constraints, model and shape."""
        candidates = collect_divergences(triaged[0])
        _signature, group = next(iter(bucket_candidates(candidates).values()))
        exemplar = group[0]
        outcomes = []
        for _ in range(2):
            lab = TriageLab(CONFIG)
            path = lab.locate(exemplar)
            assert path is not None
            outcome = shrink_candidate(lab, exemplar, path)
            outcomes.append((
                tuple((str(c.term), c.taken) for c in outcome.constraints),
                outcome.model.to_dict(),
                outcome.shape,
            ))
        assert outcomes[0] == outcomes[1]
