"""All thirteen planted bugs convicted through the checking fabric.

The verdict triples — ``(bug, detected, how)`` with the exact
violation-kind strings — must come back identical at every worker
count and equal to the committed golden digests: memoised invariant
sweeps and sharded campaigns may change *how fast* a bug is convicted,
never *what* the conviction says.
"""

from repro.engine.bug_matrix import run_matrix_parallel
from repro.hyperenclave import buggy
from tests.test_golden_verdicts import digest, golden_result, load_golden


def test_sharded_matrix_convicts_all_13_identically(pool):
    stats = {}
    par = run_matrix_parallel(executor=pool, stats_out=stats)
    assert len(par) == len(buggy.ALL_BUGGY_MONITORS) == 13
    assert all(detected for _bug, detected, _how in par)
    golden = load_golden()
    for row in par:
        name = f"x86_64/matrix:{row[0]}"
        assert row == golden_result(name)
        assert digest(row) == golden[name]
    # the memoised invariant sweeps actually engaged
    assert stats["invariants"]["hits"] > 0
