"""One engine, deterministic: a schedule fixes its whole execution.

For any ``Schedule`` — seed, preemption set, crash point — two runs
from fresh worlds must produce **repr-identical** ``RunResult`` records
(every Decision and YieldPoint field) and the same final state
fingerprint, and the schedule-NI re-run must return the same verdict
strings.  What the verdicts *are* is pinned separately by the golden
digests in ``tests/golden_verdicts.json`` (including three mid-hypercall
crash schedules, whose crashed vCPU must also end parked).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.concurrency.scheduler import Schedule
from repro.engine.fingerprint import state_fingerprint
from repro.faults.campaign import (
    build_interleaved_world,
    execute_interleaved,
    make_interleaved_run,
)
from repro.hyperenclave.monitor import HOST_ID
from repro.security.noninterference import check_schedule_noninterference
from tests.test_golden_verdicts import CRASH_SCHEDULES, golden_result


def _run(schedule):
    state, ctx = build_interleaved_world()
    state, result = execute_interleaved(state, ctx, schedule)
    return result, state_fingerprint(state)


SCHEDULES = st.builds(
    Schedule,
    seed=st.integers(0, 7),
    preemptions=st.lists(
        st.tuples(st.integers(0, 1), st.integers(1, 20)),
        max_size=2).map(tuple),
    crash=st.one_of(st.none(),
                    st.tuples(st.integers(0, 1), st.integers(1, 16))))


@given(schedule=SCHEDULES)
@settings(max_examples=25, deadline=None)
def test_random_schedules_rerun_identically(schedule):
    """Random (seed, preemptions, crash), run twice from fresh worlds:
    identical RunResult reprs and final state fingerprints."""
    first, first_fp = _run(schedule)
    second, second_fp = _run(schedule)
    assert repr(second) == repr(first)
    assert second_fp == first_fp


@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_ni_verdicts_rerun_identically(data):
    """The schedule-NI re-run (two worlds) returns the same verdict
    strings every time."""
    schedule = data.draw(SCHEDULES, label="schedule")
    verdicts = [[str(v) for v in check_schedule_noninterference(
        make_interleaved_run(), schedule, [HOST_ID])] for _ in range(2)]
    assert verdicts[0] == verdicts[1]


@pytest.mark.parametrize("crash", CRASH_SCHEDULES)
def test_mid_hypercall_crash_parks_the_vcpu(crash):
    """A crash inside a hypercall rolls back and parks the crashed
    vCPU; its full record is a golden entry."""
    result, _fp = golden_result(
        f"x86_64/schedule/crash-{crash[0]}-{crash[1]}")
    assert crash[0] in result.parked
