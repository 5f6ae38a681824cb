"""Figure 5 — paths per instruction, byte-codes vs native methods.

"Byte-code instructions present in average few more than 2 paths, while
native method instructions approach 10 paths in average" (paper
Section 5.3, Fig. 5 — log-scale box plot).

The benchmark measures one exploration of each kind; the distribution
is rendered from the session campaign's cached explorations.
"""

from __future__ import annotations

from benchmarks.conftest import (
    distribution_payload,
    write_artifact,
    write_json_artifact,
)
from repro import bytecode_named, explore_bytecode
from repro.difftest.report import format_distributions, paths_per_instruction


def test_fig5_paths_per_instruction(benchmark, explorations):
    benchmark(lambda: explore_bytecode(bytecode_named("bytecodePrimLessThan")))

    distributions = paths_per_instruction(explorations)
    write_artifact(
        "fig5_paths_per_instruction.txt",
        format_distributions("Paths per instruction (Fig. 5)", distributions),
    )
    write_json_artifact(
        "fig5_paths_per_instruction", distribution_payload(distributions),
        fidelity=True,
    )

    bytecode = distributions["bytecode"]
    native = distributions["native"]
    # The headline shape: native methods have several times the paths.
    assert native.mean > 2 * bytecode.mean
    # Byte-codes: "few more than 2 paths" on average.
    assert 1.0 <= bytecode.mean <= 5.0
    # Native methods: approaching 10 in the paper; >= 5 here.
    assert native.mean >= 5.0
    # Every instruction explored at least one path.
    assert bytecode.minimum >= 1
    assert native.minimum >= 1
