"""The multi-vCPU interleaving campaign, rendered as an artifact.

Four sweeps make up the concurrency table:

1. the full bounded-preemption exploration of :class:`RustMonitor` —
   every explored schedule checked against all invariant families, the
   per-vCPU consistency check, and the two-world noninterference
   re-run (expected all-green),
2. the same sweep over :class:`MissingLockMonitor` (expected: the
   lock-discipline checker convicts it),
3. the same sweep over :class:`NoShootdownMonitor` (expected: the
   stale-translation detector convicts it — and only off the root
   schedule, because the race needs a preemption),
4. the crash-in-critical-section campaign — a vCPU killed at every
   yield point taken while holding locks, with rollback, lock release,
   and invariants verified each time (expected all-green).

Every sweep runs through the checking fabric in-process (``workers=1``).
"""

import time

from repro.engine import (
    parallel_crash_in_critical_section_campaign,
    parallel_interleaving_campaign,
)
from repro.hyperenclave.buggy import MissingLockMonitor, NoShootdownMonitor


def timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def test_bench_interleaving_campaign(emit):
    rust, rust_secs = timed(parallel_interleaving_campaign,
                            check_ni=True, workers=1)
    missing, missing_secs = timed(
        parallel_interleaving_campaign, MissingLockMonitor,
        check_ni=False, workers=1)
    noshoot, noshoot_secs = timed(
        parallel_interleaving_campaign, NoShootdownMonitor,
        check_ni=False, workers=1)
    crash, crash_secs = timed(parallel_crash_in_critical_section_campaign,
                              workers=1)

    def convicted(result):
        return ", ".join(f"{len(items)} {kind}"
                         for kind, items in sorted(result.by_kind().items()))

    first_stale = noshoot.by_kind()["stale-translation"][0]
    sections = [
        "Bounded-preemption interleaving campaign "
        "(2 vCPUs, management core vs application core)",
        "",
        f"RustMonitor: {rust.summary()}",
        "  checks per schedule: lock discipline, stale-translation "
        "probe at every decision,",
        "  all invariant families, per-vCPU consistency, two-world "
        "noninterference (41 vs 42)",
        f"  elapsed: {rust_secs:.2f}s",
        "",
        f"MissingLockMonitor: {missing.summary()}",
        f"  convicted by: {convicted(missing)}",
        f"  elapsed: {missing_secs:.2f}s",
        "",
        f"NoShootdownMonitor: {noshoot.summary()}",
        f"  convicted by: {convicted(noshoot)}",
        f"  first witness: {first_stale}",
        f"  elapsed: {noshoot_secs:.2f}s",
        "",
        crash.render(),
        f"elapsed: {crash_secs:.2f}s",
    ]
    emit("interleaving_campaign", "\n".join(sections))

    assert rust.ok, rust.summary()
    assert rust.preemption_bound >= 2 and not rust.truncated
    assert "lock-protocol" in missing.by_kind()
    assert "stale-translation" in noshoot.by_kind()
    assert all(v.schedule.preemptions
               for v in noshoot.by_kind()["stale-translation"])
    assert crash.ok, crash.render()
