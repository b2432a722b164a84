"""The fault-injection campaign, rendered as an artifact.

Three sweeps make up the robustness table:

1. the crash-step campaign — every fault site × every step index of
   every hypercall on the transactional :class:`RustMonitor` (expected
   all-green) *and* on the deliberately broken
   :class:`NonTransactionalMonitor` (expected failures, which is what
   keeps the green run from being vacuous),
2. the untrusted-memory bit-flip campaign, and
3. the crash-step noninterference campaign — the same faults injected
   symmetrically into the paper's 41-vs-42 two-world construction.

Each runs through its :mod:`repro.engine.campaigns` driver at
``workers=1`` (in-process).
"""

import time

from repro.engine import (
    parallel_bitflip_campaigns,
    parallel_crash_ni_campaign,
    parallel_crash_step_campaign,
)
from repro.hyperenclave.buggy import NonTransactionalMonitor


def test_bench_fault_campaign(emit):
    started = time.perf_counter()
    crash = parallel_crash_step_campaign(seed=0, workers=1)
    crash_secs = time.perf_counter() - started

    started = time.perf_counter()
    buggy = parallel_crash_step_campaign(
        factory_args=(None, NonTransactionalMonitor), seed=0, workers=1)
    buggy_secs = time.perf_counter() - started

    started = time.perf_counter()
    flips = parallel_bitflip_campaigns(
        (0,), workload="repro.faults.campaign:initialized_workload",
        flips=64, workers=1)[0]
    flip_secs = time.perf_counter() - started

    started = time.perf_counter()
    ni = parallel_crash_ni_campaign(seed=0, workers=1)
    ni_secs = time.perf_counter() - started

    sections = [
        crash.render(title="Crash-step campaign — RustMonitor "
                           "(transactional)"),
        f"elapsed: {crash_secs:.2f}s",
        "",
        f"NonTransactionalMonitor under the identical campaign: "
        f"{len(buggy.failures())} of {len(buggy.runs)} faulted runs "
        f"violate rollback or invariants "
        f"({buggy_secs:.2f}s) — the campaign is not vacuous.",
        "",
        flips.render(title="Untrusted-memory bit-flip campaign"),
        f"elapsed: {flip_secs:.2f}s",
        "",
        ni.render(title="Crash-step noninterference campaign "
                        "(41-vs-42 two worlds)"),
        f"elapsed: {ni_secs:.2f}s",
    ]
    emit("fault_campaign", "\n".join(sections))

    assert crash.ok, crash.render()
    assert crash.faults_injected == len(crash.runs)
    assert crash.rollbacks_verified == crash.faults_injected
    assert not buggy.ok
    assert flips.ok
    assert ni.ok, ni.render()
