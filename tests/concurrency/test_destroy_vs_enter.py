"""Lifecycle teardown racing a guest session (satellite: hc_destroy /
hc_remove_page vs hc_enter).

Whatever the interleaving, a teardown racing an enter must resolve to
clean rejections — either the enter loses (the enclave is gone or its
page was pulled) or the teardown loses (the enclave is RUNNING) — and
never to a broken invariant, a stale translation, or a vCPU error.
"""

import pytest

from repro.concurrency import Schedule, explore_batched
from repro.errors import HypervisorError, SecurityError
from repro.faults import make_interleaved_run
from repro.hyperenclave.monitor import HOST_ID
from repro.security import check_all_invariants
from repro.security.invariants import check_vcpu_consistency
from repro.security.transitions import Hypercall, MemLoad, apply_step


def racing_workloads(teardown_steps):
    """``make_interleaved_run`` workload builder: vCPU 0 builds an
    enclave then tears it down while vCPU 1 races a session into it.
    Each run's per-step verdicts land in ``build.outcomes``."""

    def build(state, ctx):
        page, base = ctx["page"], ctx["elrange_base"]
        host_script = [
            Hypercall(HOST_ID, "create",
                      (base, 4 * page, 12 * page, ctx["mbuf_pa"], page)),
            Hypercall(HOST_ID, "add_page", (1, base, ctx["src_pa"])),
            Hypercall(HOST_ID, "init", (1,)),
        ] + teardown_steps(page, base)
        guest_script = [
            Hypercall(HOST_ID, "enter", (1,)),
            MemLoad(1, base, "rax"),
            Hypercall(1, "exit", (1,)),
        ]

        def script_task(script, outcomes):
            def run():
                for step in script:
                    try:
                        outcomes.append((step, apply_step(state,
                                                          step).applied))
                    except SecurityError:
                        outcomes.append((step, None))  # malformed: skip
            return run

        build.outcomes = ([], [])
        return [script_task(host_script, build.outcomes[0]),
                script_task(guest_script, build.outcomes[1])]

    return build


def sweep(teardown_steps, preemption_bound=2):
    build = racing_workloads(teardown_steps)
    run_world = make_interleaved_run(workloads=build)
    outcomes_per_run = []

    def run_batch(wave):
        outputs = []
        for schedule in wave:
            state, result = run_world(41, schedule)
            outcomes_per_run.append(build.outcomes)
            findings = []
            report = check_all_invariants(state.monitor)
            for family in report.violated_families():
                findings.append(("invariant", family))
            for item in check_vcpu_consistency(state.monitor):
                findings.append(("vcpu-consistency", item))
            outputs.append((result, findings))
        return outputs

    return explore_batched(run_batch,
                           preemption_bound=preemption_bound), \
        outcomes_per_run


def hypercall_verdicts(outcomes_per_run, name):
    """Every ``applied`` verdict the named hypercall got, across runs."""
    verdicts = set()
    for scripts in outcomes_per_run:
        for outcomes in scripts:
            for step, applied in outcomes:
                if getattr(step, "name", None) == name:
                    verdicts.add(applied)
    return verdicts


def destroy_teardown(_page, _base):
    return [Hypercall(HOST_ID, "destroy", (1,))]


def trim_then_destroy_teardown(page, base):
    return [Hypercall(HOST_ID, "trim_page", (1, base)),
            Hypercall(HOST_ID, "destroy", (1,))]


class TestDestroyRacingEnter:
    def test_every_interleaving_is_invariant_safe(self):
        result, _outcomes = sweep(destroy_teardown)
        assert result.schedules_run > 20
        assert result.ok, result.summary()

    def test_the_race_actually_goes_both_ways(self):
        _result, outcomes_per_run = sweep(destroy_teardown)
        # Some schedule lets the enter win (destroy rejected, the
        # enclave is RUNNING) and some schedule kills it first (enter
        # rejected, the enclave is gone) — both resolved cleanly.
        assert hypercall_verdicts(outcomes_per_run, "enter") == \
            {True, False}
        assert hypercall_verdicts(outcomes_per_run, "destroy") == \
            {True, False}


class TestTrimRacingEnter:
    def test_every_interleaving_is_invariant_safe(self):
        result, _outcomes = sweep(trim_then_destroy_teardown)
        assert result.ok, result.summary()

    def test_no_schedule_leaves_a_stale_translation(self):
        result, _outcomes = sweep(trim_then_destroy_teardown)
        assert "stale-translation" not in result.by_kind()


class TestRemovePageStateGate:
    def test_remove_page_is_rejected_once_initialized(self):
        """The CREATED-only gate that keeps ``hc_remove_page`` out of
        the race entirely: a live session can never have its pages
        pulled un-trimmed — SGX2 teardown must go through trim."""
        run_world = make_interleaved_run()
        state, _result = run_world(41, Schedule())
        monitor = state.monitor
        with pytest.raises(HypervisorError):
            monitor.hc_remove_page(1, 17 * monitor.config.page_size)
