"""Bounded-preemption exploration over the real scheduler."""

from repro.concurrency import (
    DeterministicScheduler,
    Schedule,
    explore_batched,
    replay,
    scheduler as conc,
)


def batch(run_schedule, check=None):
    """A ``run_batch`` for :func:`explore_batched` that runs a wave one
    schedule at a time, ``check(schedule, result)`` giving findings."""
    def run_batch(wave):
        outputs = []
        for schedule in wave:
            result = run_schedule(schedule)
            outputs.append((result, check(schedule, result) if check
                            else []))
        return outputs
    return run_batch


def stepping_workloads(log, steps=2):
    def task(vid):
        def run():
            for n in range(steps):
                conc.yield_point("step", f"vcpu{vid}-{n}")
                log.append((vid, n))
        return run
    return [task(0), task(1)]


def stepping_run(schedule):
    return DeterministicScheduler(object(), stepping_workloads([]),
                                  schedule).run()


def racy_run(schedule):
    """A genuine order bug: vCPU 1 requires vCPU 0's first step."""
    state = {"published": False}

    def t0():
        conc.yield_point("step", "publish")
        state["published"] = True
        conc.yield_point("step", "rest")

    def t1():
        conc.yield_point("step", "consume")
        if not state["published"]:
            raise RuntimeError("consumed before publish")

    return DeterministicScheduler(object(), [t0, t1], schedule).run()


class TestExploration:
    def test_root_plus_preempted_children(self):
        result = explore_batched(batch(stepping_run), preemption_bound=1)
        assert result.schedules_run > 1
        assert not result.truncated
        roots = [s for s, _r in result.runs if not s.preemptions]
        assert len(roots) == 1

    def test_children_honor_their_preemptions(self):
        result = explore_batched(batch(stepping_run), preemption_bound=2)
        for schedule, run in result.runs:
            assert len(schedule.preemptions) <= 2
            for index, vid in schedule.preemptions:
                assert run.trace[index] == vid

    def test_deduplication_never_replays_a_trace(self):
        result = explore_batched(batch(stepping_run), preemption_bound=2)
        traces = [run.trace for _s, run in result.runs]
        assert len(traces) == len(set(traces))

    def test_max_schedules_truncates(self):
        result = explore_batched(batch(stepping_run), preemption_bound=2,
                                 max_schedules=2)
        assert result.schedules_run == 2
        assert result.truncated
        assert "truncated" in result.summary()

    def test_higher_bound_explores_at_least_as_much(self):
        shallow = explore_batched(batch(stepping_run), preemption_bound=1)
        deep = explore_batched(batch(stepping_run), preemption_bound=2)
        assert deep.schedules_run >= shallow.schedules_run


class TestFindings:
    def test_explorer_catches_the_order_bug(self):
        result = explore_batched(batch(racy_run), preemption_bound=1)
        assert not result.ok
        kinds = result.by_kind()
        assert set(kinds) == {"vcpu-error"}
        assert "consumed before publish" in kinds["vcpu-error"][0].detail

    def test_root_schedule_alone_misses_it(self):
        assert racy_run(Schedule()).ok

    def test_violation_replays_standalone(self):
        result = explore_batched(batch(racy_run), preemption_bound=1)
        violation = result.violations[0]
        rerun = replay(racy_run, violation.schedule)
        assert not rerun.ok
        assert isinstance(rerun.task_errors[1], RuntimeError)

    def test_violation_string_carries_the_replay_schedule(self):
        result = explore_batched(batch(racy_run), preemption_bound=1)
        text = str(result.violations[0])
        assert "replay:" in text and "seed=" in text

    def test_check_callback_findings_become_violations(self):
        def check(_schedule, run):
            return [("synthetic", f"trace length {len(run.trace)}")]

        result = explore_batched(batch(stepping_run, check),
                                 preemption_bound=0)
        assert result.schedules_run == 1
        assert result.by_kind()["synthetic"][0].schedule == Schedule()
