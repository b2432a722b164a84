"""Exact-count check for the per-layer ledger.

Runs every workload at its tiny size twice, each time traced in a fresh
interpreter, and requires every count-type per-layer metric to repeat
exactly (the client's HTTP request count excepted: it polls until the
campaigns finish, so it follows the wall time).  Run from the root of
a checkout::

    python3 -m pytest perfbench/test_counts.py -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (the benchmark's own module, beside this file)


def traced_tiny(workload, tmp_path):
    command = [sys.executable, os.path.join(HERE, "rep.py"), workload,
               "--size", "tiny", "--trace", "--work", str(tmp_path)]
    done = subprocess.run(command, env=run.child_env(os.getcwd()),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.strip().splitlines()[-1])
    assert all(v["passed"] for v in record["verdicts"]), record["verdicts"]
    return record["layers"]


@pytest.mark.parametrize("workload", sorted(run.REP_SECONDS))
def test_counts_repeat_exactly(workload, tmp_path):
    first = traced_tiny(workload, tmp_path)
    second = traced_tiny(workload, tmp_path)
    assert {n: first.get(n, 0) for n in run.EXACT_COUNTS} == \
        {n: second.get(n, 0) for n in run.EXACT_COUNTS}
    assert first.get("executor.units", 0) > 0
