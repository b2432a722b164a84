"""Checking campaigns over the sharded executor.

Each function here fans a campaign's work units out through the
:class:`~repro.engine.executor.ShardedExecutor` and merges the results
**byte-identically** at every worker count (``workers=1`` runs
in-process: that is the sequential form of every campaign here):

* unit enumeration happens in the parent, in sweep order;
* units are pure functions of their seeds (every worker rebuilds or
  clones its worlds deterministically);
* the merge reassembles results by unit index, so worker count and
  completion order cannot leak into the report.

The speed comes from process parallelism, per-worker world prototypes
(clone instead of reboot), the fingerprint-memoised checkers in
:mod:`repro.engine.memo` and, for the interleaving campaign, the
snapshot tree of :mod:`repro.concurrency.snapshot` plus the reuse of
its own secret-41 execution as world A of the noninterference re-run.
These drivers are the only form of each campaign: the per-unit bodies
live in :mod:`repro.faults.campaign` (and run in-process at
``workers=1``), and the verdicts are pinned by the committed golden
digests.

All functions accept ``workers`` (see
:func:`~repro.engine.executor.resolve_workers`) or a pre-built
``executor`` to share one process pool across campaigns, and
``stats_out`` — a dict that receives the aggregated worker
memoisation counters.
"""

from contextlib import nullcontext
from typing import List, Optional, Sequence

from repro.engine.executor import ShardedExecutor
from repro.engine.memo import merge_stats
from repro.obs import trace as _trace

DEFAULT_WORLD_FACTORY = "repro.faults.campaign:default_world_factory"
DEFAULT_WORKLOAD = "repro.faults.campaign:default_workload"
DEFAULT_TWO_WORLDS = "repro.faults.campaign:default_two_worlds"


def callable_path(obj) -> Optional[str]:
    """The ``module:qualname`` path of a class/function (or pass a
    string through) — how monitor classes travel to workers."""
    if obj is None or isinstance(obj, str):
        return obj
    return f"{obj.__module__}:{obj.__qualname__}"


def _executor(executor, workers):
    """An owned-or-borrowed executor as a context manager."""
    if executor is not None:
        return nullcontext(executor)
    return ShardedExecutor(workers)


def _publish_stats(stats_out, executor):
    if stats_out is not None:
        merge_stats(stats_out, executor.stats)


# ---------------------------------------------------------------------------
# Interleaving exploration
# ---------------------------------------------------------------------------


INTERLEAVING_UNIT = "repro.engine.workers:run_interleaving_unit"


def interleaving_units(schedules, *, monitor=None, config=None,
                       check_ni=True, observers=None, key_prefix=""):
    """The :func:`~repro.engine.workers.run_interleaving_unit` units of
    ``schedules`` and their shard keys: ``(units, keys)``.

    Every interleaving campaign builds its units here — the fabric
    sweep, the durable orchestrator, the daemon's chunks and the
    provenance replayer — so a schedule is checked the same way
    whichever of them runs it.  ``monitor`` is a ``module:qualname``
    path (None is :class:`~repro.hyperenclave.monitor.RustMonitor`),
    ``observers`` defaults to the host.  Keys are prefix-locality keys
    (:func:`~repro.concurrency.snapshot.locality_key`), so each
    preemption subtree lands on the worker whose snapshot tree holds
    its prefix; ``key_prefix`` scopes them (the daemon prefixes the
    campaign id, so fair-share chunks of different campaigns never
    share a key space).  Merge order is by unit index, so keys never
    change a result.
    """
    from repro.concurrency.snapshot import locality_key
    from repro.hyperenclave.monitor import HOST_ID

    watchers = list(observers) if observers is not None else [HOST_ID]
    schedules = list(schedules)
    units = [{"schedule": schedule, "monitor": monitor, "config": config,
              "check_ni": check_ni, "observers": watchers}
             for schedule in schedules]
    return units, [key_prefix + locality_key(s) for s in schedules]


def parallel_interleaving_campaign(monitor_cls=None, *,
                                   preemption_bound=2, max_schedules=600,
                                   seed=0, check_ni=True, crash=None,
                                   config=None, observers=None,
                                   workers=None, executor=None,
                                   stats_out=None):
    """The systematic interleaving sweep — the concurrency tentpole.

    Bounded-preemption exploration over the racing-vCPU workload, one
    BFS wavefront at a time, with the full verification battery applied
    to *every* explored schedule: the run's own findings (lock-
    discipline violations, stale translations, vCPU errors), all Sec.
    5.2 invariant families plus the per-vCPU consistency check on the
    final state, and (with ``check_ni``) the two-world noninterference
    re-run — the same schedule executed in a secret-41 and a secret-42
    world must produce the identical scheduler trace and
    observer-indistinguishable final states.  Returns the explorer's
    :class:`~repro.concurrency.explorer.ExplorationResult`; every
    violation carries its replayable ``(seed, schedule)``, and the
    result is byte-identical at every worker count.

    Workers execute schedules through their process-local snapshot
    trees (:mod:`repro.concurrency.snapshot`); a tree budget of zero
    (``REPRO_SNAPSHOT_BUDGET_MB=0``) runs every schedule from a fresh
    world clone to the same bytes.
    """
    from repro.concurrency import explore_batched

    monitor_path = callable_path(monitor_cls)

    with _trace.span("campaign.interleaving", seed=seed,
                     preemption_bound=preemption_bound), \
            _executor(executor, workers) as pool:
        def run_batch(schedules):
            units, keys = interleaving_units(
                schedules, monitor=monitor_path, config=config,
                check_ni=check_ni, observers=observers)
            return pool.map(INTERLEAVING_UNIT, units, keys=keys)

        result = explore_batched(run_batch, seed=seed,
                                 preemption_bound=preemption_bound,
                                 max_schedules=max_schedules, crash=crash)
        _publish_stats(stats_out, pool)
    return result


# ---------------------------------------------------------------------------
# Fault campaigns
# ---------------------------------------------------------------------------


def parallel_crash_step_campaign(factory=DEFAULT_WORLD_FACTORY,
                                 workload=DEFAULT_WORKLOAD, *,
                                 factory_args=(), sites=None, seed=0,
                                 runner=None, workers=None,
                                 executor=None, stats_out=None):
    """Sweep every fault site × every step index of every hypercall.

    ``factory`` names a *maker* called with ``factory_args`` to produce
    a deterministic ``world_factory() -> (monitor, ctx)`` (default
    :func:`~repro.faults.campaign.default_world_factory`, whose
    arguments are ``(config, monitor_cls)``); ``workload`` names a
    function returning the ordered ``(name, invoke)`` pairs, each
    ``invoke(monitor, ctx)`` performing exactly one hypercall.
    ``runner``, if given, names a wrapper around each *armed*
    invocation (the fault-free world rebuilding stays direct) — see
    :func:`~repro.faults.campaign.scheduled_runner`.  One unit per
    ``(hypercall, site, step)``; each runs
    :func:`~repro.faults.campaign.run_crash_step_unit`.
    """
    from repro.engine.executor import resolve_callable
    from repro.faults.campaign import (
        DEFAULT_SITES,
        CampaignReport,
        crash_step_units,
    )

    sites = tuple(sites) if sites is not None else DEFAULT_SITES
    world_factory = resolve_callable(factory)(*factory_args)
    calls = resolve_callable(workload)()
    units = [{"factory": factory, "factory_args": tuple(factory_args),
              "workload": workload, "index": index, "site": site,
              "kind": kind, "step": step, "seed": seed,
              "runner": callable_path(runner)}
             for index, site, kind, step
             in crash_step_units(world_factory, calls, sites)]
    report = CampaignReport(seed=seed)
    with _trace.span("campaign.crash-step", seed=seed,
                     units=len(units)), \
            _executor(executor, workers) as pool:
        report.runs = pool.map("repro.engine.workers:run_crash_step_unit",
                               units,
                               keys=[f"{u['index']}:{u['site']}:{u['step']}"
                                     for u in units])
        _publish_stats(stats_out, pool)
    return report


def parallel_bitflip_campaigns(seeds: Sequence[int],
                               factory=DEFAULT_WORLD_FACTORY,
                               workload=None, *, factory_args=(),
                               flips=64, workers=None, executor=None,
                               stats_out=None):
    """One :func:`repro.faults.campaign.bitflip_campaign` per seed;
    returns the reports in seed order.  ``workload`` (a path, or None
    for an empty monitor) names the calls that run before the flips.
    The per-seed campaign stays whole (its flips are cumulative on one
    monitor), so the unit of work is the seed."""
    units = [{"factory": factory, "factory_args": tuple(factory_args),
              "workload": workload, "flips": flips, "seed": s}
             for s in seeds]
    with _trace.span("campaign.bitflip", seeds=len(units)), \
            _executor(executor, workers) as pool:
        reports = pool.map("repro.engine.workers:run_bitflip_unit",
                           units, keys=[str(s) for s in seeds])
        _publish_stats(stats_out, pool)
    return reports


def parallel_crash_ni_campaign(factory=DEFAULT_TWO_WORLDS, *,
                               factory_args=(), trace=None, sites=None,
                               observers=None, seed=0, workers=None,
                               executor=None, stats_out=None):
    """The crash-step noninterference campaign (on top of Lemmas
    5.2-5.4).

    The step-wise lemmas quantify over *completed* transitions; this
    campaign quantifies over *crashed* ones: for every hypercall step of
    a two-world trace and every injectable fault site/step index, the
    same fault is injected into both worlds (identical seeded planes,
    one per world so hit counting stays symmetric), and the observers
    must remain unable to distinguish the worlds — right after the
    rolled-back hypercall and through the whole remaining trace.  A
    crash that opened a distinguishing channel (partial mutations
    visible to the host, an asymmetric abort) is a violation.

    ``factory`` names a two-worlds maker (default
    :func:`~repro.faults.campaign.default_two_worlds`); ``trace``
    defaults to :func:`~repro.faults.campaign.default_ni_trace`.  One
    unit per trace step, owning that step's whole site×step sweep
    including the suffix drain
    (:func:`~repro.faults.campaign.run_crash_ni_index`).
    """
    from repro.engine.executor import resolve_callable
    from repro.faults.campaign import (
        DEFAULT_SITES,
        CampaignReport,
        default_ni_trace,
    )
    from repro.hyperenclave.monitor import HOST_ID

    sites = tuple(sites) if sites is not None else DEFAULT_SITES
    observers = list(observers) if observers is not None else [HOST_ID]
    if trace is None:
        worlds_probe, eid = resolve_callable(factory)(*factory_args)()
        trace = default_ni_trace(
            eid, worlds_probe.a.monitor.config.page_size)
    units = [{"factory": factory, "factory_args": tuple(factory_args),
              "trace": trace, "index": index, "sites": sites,
              "observers": observers, "seed": seed}
             for index in range(len(trace))]
    report = CampaignReport(seed=seed)
    with _trace.span("campaign.crash-ni", seed=seed,
                     units=len(units)), \
            _executor(executor, workers) as pool:
        per_index = pool.map("repro.engine.workers:run_crash_ni_unit",
                             units,
                             keys=[str(u["index"]) for u in units])
        _publish_stats(stats_out, pool)
    for runs in per_index:
        report.runs.extend(runs)
    return report


def parallel_crash_in_critical_section_campaign(monitor_cls=None, *,
                                                seed=0, config=None,
                                                workers=None,
                                                executor=None,
                                                stats_out=None):
    """Kill a vCPU at every yield point inside a critical section.

    The fault plane's crash model composed with the concurrency plane:
    first the root schedule runs cleanly in the parent and every yield
    taken while the yielding vCPU held locks is collected; then each such
    ``(vid, yield_index)`` is one unit that re-runs the schedule with
    the crash armed (:func:`~repro.faults.campaign.crash_point_record`).
    The dying vCPU's transactional scope must roll its partial
    hypercall back and release its locks (a dead vCPU may strand its
    own work, never a lock), the other vCPU must run to completion,
    and the final state must pass every invariant family plus the
    per-vCPU consistency check.
    """
    from repro.concurrency import Schedule
    from repro.faults.campaign import (
        CrashCampaignReport,
        make_interleaved_run,
    )
    from repro.hyperenclave.monitor import RustMonitor

    cls = monitor_cls or RustMonitor
    run_world = make_interleaved_run(monitor_cls, config)
    _state, baseline = run_world(41, Schedule(seed=seed))
    points = baseline.critical_yields()
    report = CrashCampaignReport(monitor=cls.__name__,
                                 critical_yields=len(points))
    monitor_path = callable_path(monitor_cls)
    units = [{"monitor": monitor_path, "config": config, "seed": seed,
              "point": point} for point in points]
    with _trace.span("campaign.crash-critical-section", seed=seed,
                     points=len(points)), \
            _executor(executor, workers) as pool:
        report.records = pool.map(
            "repro.engine.workers:run_crash_point_unit", units,
            keys=[f"{p.vid}:{p.yield_index}" for p in points])
        _publish_stats(stats_out, pool)
    return report


# ---------------------------------------------------------------------------
# Hardened pure-check grid
# ---------------------------------------------------------------------------


def _pure_check_units(names, *, total_steps, total_seconds, seed,
                      sample_count, max_exhaustive, config, fake_clock):
    from repro.verification.harness import split_budget
    max_steps, max_seconds = split_budget(total_steps, total_seconds,
                                          max(1, len(names)))
    return [{"name": name, "max_steps": max_steps,
             "max_seconds": max_seconds, "seed": seed,
             "sample_count": sample_count,
             "max_exhaustive": max_exhaustive, "config": config,
             "fake_clock": fake_clock}
            for name in names]


def parallel_pure_check_grid(names, *, total_steps=None,
                             total_seconds=None, seed=0,
                             sample_count=128, max_exhaustive=4096,
                             config=None, fake_clock=False,
                             workers=None, executor=None,
                             stats_out=None) -> List:
    """The hardened pure-check grid: one
    :class:`~repro.ccal.refinement.CheckReport` per name, each under
    its :func:`~repro.verification.harness.split_budget` slice of the
    grid-wide allowance.

    With ``fake_clock`` the budget's wall-clock reads a frozen zero in
    every worker, so ``budget_spent`` merges deterministically; without
    it, reports carry real per-worker timings (identical verdicts,
    non-identical ``seconds``).
    """
    units = _pure_check_units(names, total_steps=total_steps,
                              total_seconds=total_seconds, seed=seed,
                              sample_count=sample_count,
                              max_exhaustive=max_exhaustive,
                              config=config, fake_clock=fake_clock)
    with _trace.span("campaign.pure-grid", names=len(units)), \
            _executor(executor, workers) as pool:
        reports = pool.map("repro.engine.workers:run_pure_check_unit",
                           units, keys=[u["name"] for u in units])
        _publish_stats(stats_out, pool)
    return reports
