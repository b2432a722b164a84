"""The deterministic scheduler: token passing, replay, crashes."""

import pytest

from repro.concurrency import (
    DeterministicScheduler,
    Schedule,
    scheduler as conc,
)


def counting_workloads(log, steps=3):
    """Two tasks that each record ``steps`` labelled yield points."""
    def task(vid):
        def run():
            for n in range(steps):
                log.append((vid, n))
                conc.yield_point("step", f"vcpu{vid}-{n}")
        return run
    return [task(0), task(1)]


def run_with(schedule, steps=3):
    log = []
    scheduler = DeterministicScheduler(object(), counting_workloads(log, steps),
                                       schedule)
    result = scheduler.run()
    return log, result


class TestDeterminism:
    def test_root_schedule_runs_vcpus_in_vid_order(self):
        log, result = run_with(Schedule())
        assert log == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        assert result.ok

    def test_same_schedule_same_trace(self):
        schedule = Schedule(preemptions=((1, 1), (3, 0)))
        log_a, result_a = run_with(schedule)
        log_b, result_b = run_with(schedule)
        assert log_a == log_b
        assert result_a.trace == result_b.trace
        assert result_a.yields == result_b.yields

    def test_preemption_switches_vcpus(self):
        log, result = run_with(Schedule(preemptions=((1, 1),)))
        assert log[:3] == [(0, 0), (1, 0), (1, 1)]
        assert result.trace[1] == 1

    def test_trace_records_one_vid_per_decision(self):
        _log, result = run_with(Schedule())
        assert len(result.trace) == len(result.decisions)
        assert set(result.trace) == {0, 1}

    def test_single_use(self):
        scheduler = DeterministicScheduler(object(),
                                           counting_workloads([], 1))
        scheduler.run()
        with pytest.raises(RuntimeError):
            scheduler.run()


class TestCrash:
    def test_crash_parks_the_vcpu(self):
        log, result = run_with(Schedule(crash=(0, 2)))
        # vCPU 0 dies delivering its 2nd yield; its 3rd step never runs.
        assert (0, 2) not in log
        assert result.parked == (0,)
        assert 0 not in result.task_errors
        assert [entry for entry in log if entry[0] == 1] == \
            [(1, 0), (1, 1), (1, 2)]

    def test_crash_on_missing_yield_index_is_harmless(self):
        log, result = run_with(Schedule(crash=(1, 99)))
        assert len(log) == 6 and not result.parked


class TestInstrumentationPlane:
    def test_hooks_noop_without_scheduler(self):
        assert conc.active_scheduler() is None
        assert conc.current_task() is None
        assert conc.current_vid() is None
        conc.yield_point("step", "outside")          # must not raise
        conc.guard_mutation("epcm")
        conc.record_phys_write(0, 0)
        assert conc.phys_journal() is None
        assert conc.release_locks("outside") == ()

    def test_suspended_silences_yields(self):
        log = []

        def noisy():
            with conc.suspended():
                conc.yield_point("step", "hidden")
            log.append("ran")

        scheduler = DeterministicScheduler(object(), [noisy])
        result = scheduler.run()
        assert log == ["ran"]
        # Only the task.start decision: the suspended yield never parked.
        assert [d.chosen_kind for d in result.decisions] == ["task.start"]

    def test_nested_scheduler_rejected(self):
        outer = DeterministicScheduler(object(), [lambda: None])
        with conc.installed(outer):
            with pytest.raises(RuntimeError):
                DeterministicScheduler(object(), [lambda: None]).run()

    def test_workload_exception_is_reported_not_raised(self):
        def boom():
            raise ValueError("workload bug")

        result = DeterministicScheduler(object(), [boom]).run()
        assert isinstance(result.task_errors[0], ValueError)
        assert not result.ok
