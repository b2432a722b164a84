"""The interleaving campaign: the tentpole acceptance criteria.

``RustMonitor`` must survive the full bounded-preemption sweep —
invariant families, per-vCPU consistency, two-world noninterference —
while each planted concurrency bug is caught, with every violation
carrying a standalone-replayable ``(seed, schedule)``.
"""

import pytest

from repro.concurrency import Schedule, replay
from repro.engine import parallel_interleaving_campaign
from repro.faults import make_interleaved_run
from repro.hyperenclave import buggy


@pytest.fixture(scope="module")
def missing_lock_result():
    return parallel_interleaving_campaign(buggy.MissingLockMonitor,
                                          check_ni=False, workers=1)


@pytest.fixture(scope="module")
def no_shootdown_result():
    return parallel_interleaving_campaign(buggy.NoShootdownMonitor,
                                          check_ni=False, workers=1)


class TestRustMonitorSweep:
    def test_full_sweep_is_green(self):
        """Invariants + vCPU consistency + NI over every schedule."""
        result = parallel_interleaving_campaign(check_ni=True, workers=1)
        assert result.ok, result.summary()
        assert result.preemption_bound >= 2
        assert result.schedules_run > 100
        assert not result.truncated

    def test_exploration_is_deterministic(self):
        first = parallel_interleaving_campaign(check_ni=False, workers=1)
        second = parallel_interleaving_campaign(check_ni=False,
                                                workers=1)
        assert [s for s, _r in first.runs] == [s for s, _r in second.runs]
        assert [r.trace for _s, r in first.runs] == \
            [r.trace for _s, r in second.runs]


class TestBuggyVariantsCaught:
    def test_missing_lock_monitor_is_caught(self, missing_lock_result):
        assert not missing_lock_result.ok
        kinds = missing_lock_result.by_kind()
        assert "lock-protocol" in kinds
        assert any("unlocked-mutation" in v.detail
                   for v in kinds["lock-protocol"])

    def test_no_shootdown_monitor_is_caught(self, no_shootdown_result):
        assert not no_shootdown_result.ok
        assert "stale-translation" in no_shootdown_result.by_kind()

    def test_shootdown_bug_needs_a_preemption(self, no_shootdown_result):
        """The race is real concurrency: absent from the root schedule."""
        for violation in no_shootdown_result.by_kind()["stale-translation"]:
            assert violation.schedule.preemptions

    def test_every_violation_carries_its_schedule(self, missing_lock_result,
                                                  no_shootdown_result):
        for result in (missing_lock_result, no_shootdown_result):
            for violation in result.violations:
                assert isinstance(violation.schedule, Schedule)
                assert "seed=" in violation.schedule.describe()
                assert "replay:" in str(violation)

    def test_stale_violation_replays_standalone(self, no_shootdown_result):
        violation = no_shootdown_result.by_kind()["stale-translation"][0]
        run_world = make_interleaved_run(buggy.NoShootdownMonitor)
        rerun = replay(lambda schedule: run_world(41, schedule)[1],
                       violation.schedule)
        assert rerun.stale_translations


class TestNonTransactionalDeadlock:
    def test_missing_release_deadlocks_the_scheduler(self):
        """Without the transactional wrapper no hypercall ever releases
        its locks — under the scheduler that is a detected deadlock,
        not a hang."""
        run_world = make_interleaved_run(buggy.NonTransactionalMonitor)
        with pytest.raises(RuntimeError, match="deadlock"):
            run_world(41, Schedule())
