"""The parallel checking fabric's perf trajectory.

Times the interleaving campaign at one worker (in-process) against the
same campaign on four workers, asserts the merged report is
**byte-identical**, and refreshes the top-level record of
``BENCH_checking.json`` at the repo root — the committed record of the
parallel speedup, schedule/state throughput, and memo hit rates (the
other sections of the file are kept).

:func:`repro.engine.bench.bench_checking` does its own median-of-N
wall-clock measurement (the thing under test is the harness itself),
so this bench does not wrap it in the ``benchmark`` fixture's
repetition machinery.
"""

import os

from repro.engine.bench import _merged_out, bench_checking
from repro.reporting import render_table

BENCH_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_checking.json")


def test_bench_checking_fabric(emit):
    record = bench_checking(preemption_bound=2, max_schedules=600,
                            workers=4, repeats=3)
    _merged_out(BENCH_PATH, None, record)
    rows = [
        ["1 worker", record["one_worker"]["seconds"],
         record["one_worker"]["schedules_per_sec"],
         record["one_worker"]["states_per_sec"]],
        ["parallel (4 workers)", record["parallel"]["seconds"],
         record["parallel"]["schedules_per_sec"],
         record["parallel"]["states_per_sec"]],
    ]
    emit("checking_fabric",
         render_table(
             ["Engine", "seconds", "schedules/s", "states/s"], rows,
             title=f"Parallel checking fabric: {record['schedules']} "
                   f"schedules, {record['states']} states, "
                   f"speedup {record['speedup']}x, memo hit rate "
                   f"{record['memo']['hit_rate']}"))
    # byte-identity is the hard guarantee; bench_checking raises on
    # divergence, but assert the recorded flag too
    assert record["byte_identical"] is True
    assert record["schedules"] == 178
    # the speedup is process parallelism alone, so it depends on the
    # cores the runner has: recorded, not asserted
    assert record["memo"]["hit_rate"] > 0.8
