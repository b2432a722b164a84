"""The complete bug → checker matrix, over every buggy monitor variant.

Extends Figure 5 to the full negative-example set: thirteen planted
bugs, each detected by the checker the paper assigns to its class —
structural bugs by the §5.2 invariant families or the §4.1 refinement,
behavioural leaks by the §5 noninterference theorem, the
crash-consistency bug by the fault-injection campaign, and the two
concurrency bugs (missing locking discipline, missing TLB shootdown)
by the bounded-preemption interleaving explorer.  The benchmark times
the whole matrix: total detection cost for all thirteen.

The matrix itself (setups, detectors, bug rows) lives in
:mod:`repro.engine.bug_matrix`, where the checking fabric runs the
convictions through its sharded executor
(:func:`~repro.engine.bug_matrix.run_matrix_parallel`); this bench
times it in-process, at one worker.
"""

from repro.engine.bug_matrix import run_matrix_parallel
from repro.hyperenclave import buggy
from repro.reporting import render_table


def test_bench_bug_matrix(benchmark, emit):
    results = benchmark(run_matrix_parallel, workers=1)
    rows = [[bug, "DETECTED" if detected else "MISSED", how]
            for bug, detected, how in results]
    emit("bug_matrix",
         render_table(["Planted bug", "Verdict", "Detected by"], rows,
                      title="The full bug → checker matrix "
                            "(all 13 buggy variants)"))
    assert len(results) == len(buggy.ALL_BUGGY_MONITORS) == 13
    assert all(detected for _bug, detected, _how in results)
