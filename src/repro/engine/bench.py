"""Perf trajectory for the checking engines.

One rule: **a perf number for a divergent checker is meaningless**, so
every benchmark here compares its configurations against a baseline
and raises if the verdicts are not byte-identical.

:func:`bench_checking` times
:func:`~repro.engine.campaigns.parallel_interleaving_campaign` at one
worker (in-process) against the same campaign at ``workers`` on the
same grid and returns the record that lands in ``BENCH_checking.json``:

* ``schedules_per_sec`` / ``states_per_sec`` (states = scheduler
  decisions, the unit of interleaving exploration) for both sides;
* ``speedup`` — the median-of-``repeats`` wall-clock ratio of one
  worker to ``workers``, i.e. what process parallelism buys (medians,
  not means: on a shared box one descheduled round would otherwise
  skew the trajectory);
* the worker-side memoisation counters and their aggregate hit rate.

:func:`bench_symbolic` times the symbolic fast path (hash-consed terms,
incremental solving with verdict memoisation, compiled MIR dispatch —
the :mod:`repro.fastpath` switch) against the naive engines on the full
corpus sweep (:func:`repro.verification.code_proofs.verify_corpus`),
asserts the per-function verdicts are byte-identical, and reports the
speedup plus the intern/simplify/solver-memo hit rates that explain it.
It also runs a *degradation ladder*: the hardened harness under
shrinking wall-clock budgets, recording — per budget, per mode — which
engine produced each verdict, so the record shows the budgets where the
naive chain falls back to sampling while the fast path still finishes
symbolically.

Run as a module for the CI perf-smoke job::

    python -m repro.engine.bench --out BENCH_checking.json \
        --max-schedules 600 --workers 4 --repeats 3
    python -m repro.engine.bench --symbolic --out BENCH_symbolic.json
    python -m repro.engine.bench --durability --out BENCH_checking.json
    python -m repro.engine.bench --service --out BENCH_checking.json

:func:`bench_durability` prices the durable orchestrator
(:mod:`repro.service`): per-wave checkpoint overhead vs the plain
fabric (acceptance bar ≤5%), the warm cross-run memo store, and the
cost of resuming an interrupted campaign — merged into
``BENCH_checking.json`` under the ``durability`` key.

:func:`bench_service` prices checking-as-a-service: 2/4/8 concurrent
campaigns through the fair-share scheduler vs a sequential loop of
durable campaigns (digest-identical verdicts required), plus the
HTTP/JSON request-path cost vs calling the scheduler directly —
merged into ``BENCH_checking.json`` under the ``service`` key.

``--smoke`` shrinks the grid (preemption bound 1 for the fabric, fewer
repeats and a shorter ladder for the symbolic bench) so CI spends
seconds, not minutes; the byte-identity assertion runs at every size.
"""

import argparse
import json
import os
import statistics
import time

from repro.engine.campaigns import parallel_interleaving_campaign
from repro.engine.executor import resolve_workers


def _engine_config() -> dict:
    """The execution knobs that shape every timing (fiber stacks are
    pooled per process).  Folded into every bench ``config`` block so
    :func:`_merged_out` refuses to silently overwrite a section
    measured under a different setup."""
    return {"fiber_arena": True}


def _arch_name(config):
    if config is None:
        from repro.hyperenclave.constants import TINY
        config = TINY
    return config.arch.name


def _rates(seconds, schedules, states):
    return {
        "seconds": round(seconds, 4),
        "schedules_per_sec": round(schedules / seconds, 2),
        "states_per_sec": round(states / seconds, 2),
    }


def _memo_summary(stats):
    hits = sum(c.get("hits", 0) for c in stats.values())
    misses = sum(c.get("misses", 0) for c in stats.values())
    total = hits + misses
    return {
        "counters": stats,
        "hit_rate": round(hits / total, 4) if total else 0.0,
    }


def _cold_campaign(grid, workers, stats_out=None):
    """One interleaving campaign from a cold start: fresh worker memo,
    empty snapshot tree, fresh pool (so forked workers inherit no warm
    state either).  Returns ``(result, seconds)``.  The caller restores
    ``repro.engine.workers.MEMO`` afterwards."""
    import gc

    from repro.concurrency.snapshot import reset_process_tree
    from repro.engine import workers as worker_module
    from repro.engine.executor import ShardedExecutor
    from repro.engine.memo import CheckMemo

    worker_module.MEMO = CheckMemo()
    reset_process_tree()
    gc.collect()
    with ShardedExecutor(workers) as pool:
        t0 = time.perf_counter()
        result = parallel_interleaving_campaign(**grid, executor=pool,
                                                stats_out=stats_out)
        return result, time.perf_counter() - t0


def bench_checking(*, preemption_bound=2, max_schedules=600, seed=0,
                   workers=None, repeats=3, trace_overhead=True,
                   config=None) -> dict:
    """Time the interleaving campaign at one worker vs ``workers``.

    Both sides are the same fabric code path, each round from a cold
    start (:func:`_cold_campaign`), so ``speedup`` measures process
    parallelism alone.  Raises ``RuntimeError`` if any multi-worker
    round's merged report is not byte-identical to the one-worker run
    — a perf number for a divergent checker would be meaningless.

    With ``trace_overhead`` the one-worker campaign additionally runs
    with a tracer installed (ring only, no sink) and the record gains a
    ``tracing`` section: traced seconds, the overhead fraction, the
    record count, and the verdict-identity flag (tracing is
    observation-only, so the traced report must repr-match the
    untraced one — enforced here).  Overhead compares the *fastest*
    round of each configuration: on a shared box scheduling noise
    swamps the per-record cost, and the minimum is the least
    contaminated estimate of intrinsic cost on both sides.
    """
    from repro.concurrency.snapshot import reset_process_tree
    from repro.engine import workers as worker_module
    from repro.obs import trace as _trace

    workers = resolve_workers(workers)
    grid = dict(preemption_bound=preemption_bound,
                max_schedules=max_schedules, seed=seed, config=config)
    one_times, par_times, traced_times = [], [], []
    baseline = None
    trace_records = 0
    stats = {}
    original_memo = worker_module.MEMO
    try:
        for _ in range(repeats):
            one, seconds = _cold_campaign(grid, 1)
            one_times.append(seconds)
            par, seconds = _cold_campaign(grid, workers, stats)
            par_times.append(seconds)
            if repr(par) != repr(one):
                raise RuntimeError(
                    f"{workers}-worker interleaving report diverged "
                    f"from the one-worker run")
            baseline = one
            if trace_overhead:
                with _trace.installed(_trace.Tracer()) as tracer:
                    traced, seconds = _cold_campaign(grid, 1)
                    traced_times.append(seconds)
                trace_records = len(tracer.records)
                if repr(traced) != repr(one):
                    raise RuntimeError(
                        "tracing changed the interleaving report — "
                        "observation-only instrumentation is broken")
    finally:
        worker_module.MEMO = original_memo
        reset_process_tree()
    schedules = len(baseline.runs)
    states = sum(len(result.decisions) for _, result in baseline.runs)
    one_s = statistics.median(one_times)
    par_s = statistics.median(par_times)
    record = {
        "benchmark": "parallel-checking-fabric",
        "campaign": "interleaving",
        "config": {"preemption_bound": preemption_bound,
                   "max_schedules": max_schedules, "seed": seed,
                   "workers": workers, "repeats": repeats,
                   "arch": _arch_name(config),
                   **_engine_config()},
        "schedules": schedules,
        "states": states,
        "one_worker": _rates(one_s, schedules, states),
        "parallel": _rates(par_s, schedules, states),
        "speedup": round(one_s / par_s, 2),
        "byte_identical": True,
        "memo": _memo_summary(stats),
    }
    if trace_overhead:
        traced_s = min(traced_times)
        record["tracing"] = {
            "seconds": round(traced_s, 4),
            "overhead": round(traced_s / min(one_times) - 1.0, 4),
            "records": trace_records,
            "verdict_identical": True,
        }
    return record


def bench_durability(*, preemption_bound=2, max_schedules=600, seed=0,
                     workers=None, repeats=3, tmp_root=None) -> dict:
    """Price the durable orchestrator against the plain parallel fabric.

    Four measurements on the same campaign grid, every one of them
    gated on repr-identity with the plain parallel run (a durability
    layer that changed a verdict would be worse than useless):

    * **checkpoint overhead** — durable vs plain wall-clock (best
      observed over the repeats, after a ``gc.collect()`` barrier so
      one round's garbage is never collected inside the next round's
      timing): the cost of per-wave atomic checkpoints plus the
      fsynced memo log.  The acceptance bar is ≤5%.
    * **warm store** — a fresh campaign preloading the previous run's
      memo log: the cross-run reuse the store exists for.  (At the
      TINY geometry the interleaving memo holds only a few dozen
      uniques, so this lands within noise of break-even — the verdict
      cache below is where warm reuse actually pays.)
    * **verdict cache** — :func:`~repro.service.orchestrator.
      warm_pure_check_grid` cold vs warm: the second run answers every
      function from the store's ``pure-verdict`` table without
      executing a single check.
    * **resume** — a campaign interrupted after its second wave and
      resumed: what finishing costs relative to a full run (the saved
      fraction is the wavefronts that did not re-run).

    Every round resets the worker memo: campaigns in one process would
    otherwise warm each other through the in-process cache and the
    store would have nothing left to prove.
    """
    import gc
    import os
    import shutil
    import tempfile

    from repro.engine import workers as worker_module
    from repro.engine.memo import CheckMemo
    from repro.service import (
        CampaignSpec,
        CampaignStore,
        ResilientExecutor,
        resume_campaign,
        run_durable_campaign,
    )

    workers = resolve_workers(workers)
    grid = dict(preemption_bound=preemption_bound,
                max_schedules=max_schedules, seed=seed)
    spec = CampaignSpec(**grid)
    root = tempfile.mkdtemp(prefix="bench-durability.", dir=tmp_root)
    plain_times, durable_times, warm_times = [], [], []
    original_memo = worker_module.MEMO

    def cold_memo():
        # Also a GC barrier: the previous round's campaign results are
        # hundreds of thousands of objects, and collecting them inside
        # the *next* round's timing would charge one variant for
        # another's garbage.
        worker_module.MEMO = CheckMemo()
        gc.collect()

    try:
        # Campaign results are compared (and kept) as repr strings:
        # holding the object graphs across rounds would hand the next
        # timed section the deallocation bill for this one's result.
        for index in range(repeats):
            cold_memo()
            t0 = time.perf_counter()
            plain = parallel_interleaving_campaign(**grid,
                                                   workers=workers)
            plain_times.append(time.perf_counter() - t0)
            plain_repr, total_runs = repr(plain), len(plain.runs)
            plain = None

            cold_memo()
            store = os.path.join(root, f"cold{index}")
            t0 = time.perf_counter()
            durable = run_durable_campaign(spec, store, workers=workers)
            durable_times.append(time.perf_counter() - t0)
            if repr(durable) != plain_repr:
                raise RuntimeError(
                    "durable campaign diverged from the plain parallel "
                    "fabric")
            durable = None

            warm_store = os.path.join(root, f"warm{index}")
            os.makedirs(warm_store)
            shutil.copy(CampaignStore(store).memo.path,
                        os.path.join(warm_store, "memo.log"))
            cold_memo()
            t0 = time.perf_counter()
            warm = run_durable_campaign(spec, warm_store,
                                        workers=workers)
            warm_times.append(time.perf_counter() - t0)
            if repr(warm) != plain_repr:
                raise RuntimeError(
                    "warm-store campaign diverged from the plain "
                    "parallel fabric")
            warm = None

        # One interrupted-and-resumed campaign: Ctrl-C lands right
        # before the third wavefront, the checkpoint preserves the
        # first two, and the resume pays only for the rest.
        class _Interrupting(ResilientExecutor):
            calls = 0

            def map(self, fn_path, units, *, keys=None):
                """Raise KeyboardInterrupt on the third wavefront."""
                type(self).calls += 1
                if type(self).calls == 3:
                    raise KeyboardInterrupt
                return super().map(fn_path, units, keys=keys)

        cold_memo()
        interrupted = os.path.join(root, "interrupted")
        pool = _Interrupting(workers)
        try:
            run_durable_campaign(spec, interrupted, executor=pool)
        except KeyboardInterrupt:
            pass
        finally:
            pool.close()
        interrupted_checkpoint = \
            CampaignStore(interrupted).load_checkpoint()
        waves_done = interrupted_checkpoint.waves
        preserved = len(interrupted_checkpoint.state.runs)
        resume_times = []
        for index in range(repeats):
            # Resuming completes the store, so each repeat resumes a
            # fresh copy of the interrupted snapshot.
            snapshot = os.path.join(root, f"resume{index}")
            shutil.copytree(interrupted, snapshot)
            cold_memo()
            t0 = time.perf_counter()
            resumed = resume_campaign(snapshot, workers=workers)
            resume_times.append(time.perf_counter() - t0)
            if repr(resumed) != plain_repr:
                raise RuntimeError(
                    "resumed campaign diverged from the plain parallel "
                    "fabric")
            resumed = None
        resume_s = min(resume_times)

        # The verdict cache: a pure-check grid answered twice from one
        # store — the warm pass is pure replay.
        from repro.service.orchestrator import warm_pure_check_grid
        grid_names = ["pte_new", "pte_addr", "pte_flags",
                      "pte_is_present", "pte_set_flags"]
        verdict_store = os.path.join(root, "verdicts")
        cold_memo()
        t0 = time.perf_counter()
        cold_grid = warm_pure_check_grid(grid_names, verdict_store,
                                         total_steps=40000,
                                         workers=workers)
        grid_cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm_grid = warm_pure_check_grid(grid_names, verdict_store,
                                         total_steps=40000,
                                         workers=workers)
        grid_warm_s = time.perf_counter() - t0
        if repr(warm_grid) != repr(cold_grid):
            raise RuntimeError(
                "warm verdict grid diverged from its cold run")
    finally:
        worker_module.MEMO = original_memo
        shutil.rmtree(root, ignore_errors=True)

    # Best observed over the repeats: box noise (scheduling, frequency
    # scaling) only ever *adds* time, so with the GC barrier in place
    # the minimum is the repeat closest to the true cost of the code.
    plain_s = min(plain_times)
    durable_s = min(durable_times)
    warm_s = min(warm_times)
    overhead = durable_s / plain_s - 1.0
    warm_speedup = durable_s / warm_s
    return {
        "benchmark": "durable-orchestrator",
        "config": {"preemption_bound": preemption_bound,
                   "max_schedules": max_schedules, "seed": seed,
                   "workers": workers, "repeats": repeats,
                   "arch": _arch_name(None),
                   **_engine_config()},
        "plain": {"seconds_per_repeat": [round(t, 4)
                                         for t in plain_times],
                  "seconds": round(plain_s, 4)},
        "durable": {"seconds_per_repeat": [round(t, 4)
                                           for t in durable_times],
                    "seconds": round(durable_s, 4)},
        "checkpoint_overhead": round(overhead, 4),
        "warm_store": {"seconds_per_repeat": [round(t, 4)
                                              for t in warm_times],
                       "seconds": round(warm_s, 4),
                       "speedup_vs_cold": round(warm_speedup, 2)},
        "resume": {"seconds_per_repeat": [round(t, 4)
                                          for t in resume_times],
                   "seconds": round(resume_s, 4),
                   "interrupted_after_waves": waves_done,
                   "schedules_preserved": preserved,
                   "schedules_total": total_runs,
                   "fraction_of_full_run": round(resume_s / durable_s,
                                                 4)},
        "verdict_cache": {"functions": len(grid_names),
                          "cold_seconds": round(grid_cold_s, 4),
                          "warm_seconds": round(grid_warm_s, 4),
                          "speedup": round(grid_cold_s / grid_warm_s,
                                           1),
                          "verdicts_identical": True},
        "byte_identical": True,
    }


def bench_service(*, preemption_bound=2, max_schedules=240, seed=0,
                  workers=None, concurrency=(2, 4, 8),
                  request_probes=200, tmp_root=None) -> dict:
    """Price checking-as-a-service against a sequential campaign loop.

    Two measurements, both gated on digest-identity with solo
    :func:`~repro.service.orchestrator.run_durable_campaign` runs (a
    scheduler that changed a verdict would disqualify itself):

    * **multi-campaign throughput** — for each concurrency level, N
      distinct-seed campaigns run (a) as a sequential loop of durable
      campaigns and (b) submitted together to one
      :class:`~repro.service.scheduler.CampaignScheduler` sharing one
      executor pool.  The fair-share wavefront interleaving trades
      time-to-first-verdict for fairness, not throughput: total
      wall-clock should track the sequential loop, and the recorded
      ``scheduling_overhead`` is the price of chunked absorbs,
      per-chunk checkpoints, and round bookkeeping.
    * **request path** — the HTTP/JSON front's per-request cost:
      ``GET /campaigns/<id>`` through a live daemon and the real
      client vs the same ``status()`` call made directly on the
      scheduler, ``request_probes`` times each.

    Every variant starts from a cold worker memo (one variant would
    otherwise warm the next through the in-process cache).
    """
    import gc
    import shutil
    import tempfile

    from repro.engine import workers as worker_module
    from repro.engine.memo import CheckMemo
    from repro.obs.metrics import REGISTRY
    from repro.service import CampaignSpec, run_durable_campaign
    from repro.service.client import ServiceClient
    from repro.service.daemon import CheckingDaemon
    from repro.service.scheduler import (
        DONE,
        CampaignScheduler,
        _result_digest,
    )

    workers = resolve_workers(workers)
    root = tempfile.mkdtemp(prefix="bench-service.", dir=tmp_root)
    original_memo = worker_module.MEMO

    def cold_memo():
        worker_module.MEMO = CheckMemo()
        gc.collect()

    def specs_for(count):
        return [CampaignSpec(preemption_bound=preemption_bound,
                             max_schedules=max_schedules,
                             seed=seed + index)
                for index in range(count)]

    levels = {}
    try:
        for count in concurrency:
            specs = specs_for(count)

            cold_memo()
            t0 = time.perf_counter()
            reference = [
                _result_digest(run_durable_campaign(
                    spec, os.path.join(root, f"seq{count}-{index}"),
                    workers=workers))
                for index, spec in enumerate(specs)]
            sequential_s = time.perf_counter() - t0

            cold_memo()
            stolen_before = REGISTRY.counters.get(
                "service.units_stolen", 0)
            scheduler = CampaignScheduler(
                os.path.join(root, f"svc{count}"), workers=workers,
                max_active=count)
            try:
                t0 = time.perf_counter()
                ids = [scheduler.submit(spec) for spec in specs]
                scheduler.run_until_idle()
                service_s = time.perf_counter() - t0
                for index, campaign_id in enumerate(ids):
                    snapshot = scheduler.status(campaign_id)
                    if snapshot["status"] != DONE \
                            or snapshot["result_digest"] \
                            != reference[index]:
                        raise RuntimeError(
                            f"scheduled campaign {campaign_id} "
                            f"diverged from its solo durable run")
            finally:
                scheduler.drain()
            stolen = REGISTRY.counters.get("service.units_stolen", 0) \
                - stolen_before

            levels[str(count)] = {
                "campaigns": count,
                "sequential_seconds": round(sequential_s, 4),
                "service_seconds": round(service_s, 4),
                "scheduling_overhead": round(
                    service_s / sequential_s - 1.0, 4),
                "units_stolen": stolen,
                "verdicts_identical": True,
            }

        # The request path: a live daemon on an ephemeral port, one
        # finished campaign, then status round-trips through HTTP vs
        # straight into the scheduler.
        cold_memo()
        probe_spec = {"id": "probe", "preemption_bound": 1,
                      "max_schedules": 6}
        with CheckingDaemon(os.path.join(root, "http"), port=0,
                            workers=1) as daemon:
            client = ServiceClient(daemon.url)
            client.submit(probe_spec)
            client.wait("probe", deadline=120)
            t0 = time.perf_counter()
            for _ in range(request_probes):
                daemon.scheduler.status("probe")
            direct_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            for _ in range(request_probes):
                client.status("probe")
            http_s = time.perf_counter() - t0
    finally:
        worker_module.MEMO = original_memo
        shutil.rmtree(root, ignore_errors=True)

    return {
        "benchmark": "checking-service",
        "config": {"preemption_bound": preemption_bound,
                   "max_schedules": max_schedules, "seed": seed,
                   "workers": workers,
                   "concurrency": list(concurrency),
                   "request_probes": request_probes,
                   **_engine_config()},
        "concurrency": levels,
        "request_path": {
            "probes": request_probes,
            "direct_ms_per_call": round(
                direct_s / request_probes * 1000, 4),
            "http_ms_per_call": round(
                http_s / request_probes * 1000, 4),
            "overhead_ms_per_call": round(
                (http_s - direct_s) / request_probes * 1000, 4),
        },
        "byte_identical": True,
    }


def _canonical_verdicts(report):
    """A corpus report as a canonical JSON string for byte-comparison.

    Every field of every :class:`FunctionVerdict` participates
    (failures stringified), so any behavioural divergence between the
    fast and naive engines — a different verdict, count, or even
    failure *message* — breaks equality.
    """
    return json.dumps(
        [[v.name, v.layer, v.method, v.checked, v.skipped,
          [str(f) for f in v.failures]]
         for v in report.verdicts],
        sort_keys=True)


def _rate(hits, misses):
    total = hits + misses
    return round(hits / total, 4) if total else 0.0


def _sweep(model, *, seed, cosim_samples, repeats):
    """Time ``repeats`` corpus sweeps; return (times, canonical verdicts).

    The model (and with it every per-function compiled-code cache) is
    shared across repeats on purpose: warm caches *are* the fast path,
    and the first repeat still pays the one-time compile cost so the
    per-repeat list shows both the cold and the steady-state number.
    """
    from repro.verification.code_proofs import verify_corpus

    times, verdicts = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        report = verify_corpus(model, seed=seed,
                               cosim_samples=cosim_samples)
        times.append(time.perf_counter() - t0)
        canon = _canonical_verdicts(report)
        if verdicts is None:
            verdicts = canon
        elif canon != verdicts:
            raise RuntimeError(
                "corpus verdicts changed between repeats of the same "
                "mode — the sweep is not deterministic")
    return times, verdicts


def _ladder_rung(model, names, budget_seconds, *, seed):
    """Run the hardened chain on each pure function under one budget.

    Returns the per-engine verdict counts — the shape of the
    degradation ladder at this rung.
    """
    from repro.verification.harness import check_pure_hardened

    engines = {}
    for name in names:
        report = check_pure_hardened(model, name, seed=seed,
                                     max_seconds=budget_seconds)
        engines[report.engine] = engines.get(report.engine, 0) + 1
    return engines


def bench_symbolic(*, seed=0, cosim_samples=24, repeats=3,
                   ladder=(0.02, 0.05, 0.2)) -> dict:
    """Time the symbolic fast path against the naive engines.

    Runs the full corpus sweep (49 pure + stateful functions on the
    TINY geometry) ``repeats`` times in each mode over a shared model,
    raises ``RuntimeError`` if any verdict differs between modes, and
    returns the ``BENCH_symbolic.json`` record: median speedup, the
    cold (first-repeat, includes one-time compilation) ratio, the
    intern/simplify/solver-memo hit rates, and the degradation ladder
    showing which budgets the naive chain survives only by sampling.
    """
    from repro import fastpath
    from repro.hyperenclave.constants import TINY
    from repro.hyperenclave.mir_model import build_model
    from repro.symbolic import (
        clear_solver_caches,
        clear_term_caches,
        intern_stats,
        solver_stats,
    )
    from repro.verification.pure_refs import pure_function_names

    sweep = dict(seed=seed, cosim_samples=cosim_samples, repeats=repeats)

    clear_term_caches()
    clear_solver_caches()
    with fastpath.disabled():
        naive_model = build_model(TINY)
        naive_times, naive_verdicts = _sweep(naive_model, **sweep)
        pure_names = list(pure_function_names(naive_model.config,
                                              naive_model.layout))
        naive_ladder = {
            budget: _ladder_rung(naive_model, pure_names, budget,
                                 seed=seed)
            for budget in ladder}

    clear_term_caches()
    clear_solver_caches()
    with fastpath.forced():
        fast_model = build_model(TINY)
        fast_times, fast_verdicts = _sweep(fast_model, **sweep)
        interning = intern_stats()
        solving = solver_stats()
        fast_ladder = {
            budget: _ladder_rung(fast_model, pure_names, budget,
                                 seed=seed)
            for budget in ladder}

    if fast_verdicts != naive_verdicts:
        raise RuntimeError(
            "symbolic fast path verdicts diverged from the naive "
            "baseline — the optimisation changed observable behaviour")

    naive_s = statistics.median(naive_times)
    fast_s = statistics.median(fast_times)
    functions = len(json.loads(naive_verdicts))
    return {
        "benchmark": "symbolic-fast-path",
        "config": {"geometry": "TINY", "seed": seed,
                   "cosim_samples": cosim_samples, "repeats": repeats,
                   **_engine_config()},
        "functions": functions,
        "naive": {"seconds_per_repeat": [round(t, 4) for t in naive_times],
                  "seconds": round(naive_s, 4)},
        "fast": {"seconds_per_repeat": [round(t, 4) for t in fast_times],
                 "seconds": round(fast_s, 4)},
        "speedup": round(naive_s / fast_s, 2),
        "speedup_cold": round(naive_times[0] / fast_times[0], 2),
        "byte_identical": True,
        "interning": {
            "counters": interning,
            "intern_hit_rate": _rate(interning["intern_hits"],
                                     interning["intern_misses"]),
            "simplify_hit_rate": _rate(interning["simplify_hits"],
                                       interning["simplify_misses"]),
        },
        "solver": {
            "counters": solving,
            "memo_hit_rate": _rate(
                solving["check_sat_memo_hits"]
                + solving["must_hold_memo_hits"],
                (solving["check_sat_calls"]
                 - solving["check_sat_memo_hits"])
                + (solving["must_hold_calls"]
                   - solving["must_hold_memo_hits"])),
        },
        "degradation_ladder": {
            "budgets_seconds": list(ladder),
            "pure_functions": len(pure_names),
            "naive": {str(b): naive_ladder[b] for b in ladder},
            "fast": {str(b): fast_ladder[b] for b in ladder},
        },
    }


def format_symbolic_record(record) -> str:
    """The ``benchmarks/artifacts/symbolic_fastpath.txt`` rendering."""
    lines = [
        "Symbolic fast path: hash-consed terms, incremental solving, "
        "compiled MIR dispatch",
        "=" * 72,
        "",
        f"Corpus sweep ({record['functions']} functions, geometry "
        f"{record['config']['geometry']}, "
        f"{record['config']['repeats']} repeats):",
        f"  naive  {record['naive']['seconds']:>8.4f}s median  "
        f"(per repeat: {record['naive']['seconds_per_repeat']})",
        f"  fast   {record['fast']['seconds']:>8.4f}s median  "
        f"(per repeat: {record['fast']['seconds_per_repeat']})",
        f"  speedup {record['speedup']}x warm, "
        f"{record['speedup_cold']}x cold (first repeat pays "
        f"one-time compilation)",
        "  verdicts byte-identical across modes: "
        f"{record['byte_identical']}",
        "",
        "Cache effectiveness:",
        f"  term intern hit rate     {record['interning']['intern_hit_rate']}",
        f"  simplify memo hit rate   {record['interning']['simplify_hit_rate']}",
        f"  solver verdict memo rate {record['solver']['memo_hit_rate']}",
        "",
        f"Degradation ladder ({record['degradation_ladder']['pure_functions']} "
        "pure functions through the hardened chain; entries are "
        "verdict counts per engine):",
    ]
    for budget in record["degradation_ladder"]["budgets_seconds"]:
        key = str(budget)
        naive = record["degradation_ladder"]["naive"][key]
        fast = record["degradation_ladder"]["fast"][key]
        lines.append(f"  budget {budget}s/function:")
        lines.append(f"    naive: {naive}")
        lines.append(f"    fast:  {fast}")
    lines.append("")
    lines.append(
        "Reading the ladder: at budgets where the naive chain records "
        "exhaustive-bounded or property-sampling verdicts, the fast "
        "path still finishes symbolically — the optimisation widens "
        "the budget range over which checking returns proofs instead "
        "of samples.")
    return "\n".join(lines) + "\n"


def _config_slug(config) -> str:
    """A short stable tag for a bench ``config`` block."""
    import hashlib

    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.blake2b(blob, digest_size=3).hexdigest()


def _merged_out(path, section, record) -> dict:
    """Write ``record`` into ``path``, preserving the other sections.

    ``BENCH_checking.json`` holds the fabric record (the top-level
    document) plus the per-subsystem records (the ``durability`` and
    ``service`` keys); any of the benches may run
    alone, so each write keeps whatever the others last produced.
    With ``section`` the record lands under that key; with
    ``section=None`` it becomes the new document, carrying over every
    existing section record (any sub-dict carrying a ``benchmark``
    tag — the shape every section record here has).

    A section write never silently replaces a record measured under a
    *different* configuration: when the existing section's ``config``
    block differs from the incoming record's, the old record stays put
    and the new one lands side-by-side under ``<section>@<slug>`` (a
    short hash of the new config), with a warning on stderr.  Re-runs
    under the same config overwrite in place, as before.  The write is
    atomic — this file is a published artifact.
    """
    import sys

    from repro.service.store import atomic_write_text

    existing = {}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                existing = json.load(fh)
        except (OSError, ValueError):
            existing = {}
    if section is not None:
        merged = dict(existing)
        target = section
        current = existing.get(section)
        if (isinstance(current, dict) and "config" in current
                and current.get("config") != record.get("config")):
            target = f"{section}@{_config_slug(record.get('config'))}"
            print(f"bench: existing '{section}' section in {path} was "
                  f"measured under a different config; keeping it and "
                  f"writing this run to '{target}' instead",
                  file=sys.stderr)
        merged[target] = record
    else:
        merged = dict(record)
        for key, value in existing.items():
            if key not in merged and isinstance(value, dict) \
                    and "benchmark" in value:
                merged[key] = value
    atomic_write_text(path,
                      json.dumps(merged, indent=2, sort_keys=True)
                      + "\n")
    return merged


def main(argv=None):
    """CLI entry point: run the bench and write ``--out`` (JSON)."""
    parser = argparse.ArgumentParser(
        description="Benchmark the checking engines")
    parser.add_argument("--out", default=None)
    parser.add_argument("--symbolic", action="store_true",
                        help="run the symbolic fast-path bench instead "
                             "of the parallel checking fabric")
    parser.add_argument("--durability", action="store_true",
                        help="measure the durable orchestrator "
                             "(checkpoint overhead, warm store, "
                             "resume) and merge the section into "
                             "--out")
    parser.add_argument("--service", action="store_true",
                        help="measure checking-as-a-service "
                             "(concurrent campaigns through the "
                             "scheduler vs a sequential loop, plus "
                             "the HTTP request-path cost) and merge "
                             "the section into --out")
    parser.add_argument("--preemption-bound", type=int, default=2)
    parser.add_argument("--max-schedules", type=int, default=600)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--budget", type=float, default=None,
                        help="single degradation-ladder budget in "
                             "seconds per function (symbolic bench); "
                             "default is the built-in ladder")
    parser.add_argument("--artifact", default=None,
                        help="also write the human-readable summary "
                             "here (symbolic bench)")
    parser.add_argument("--smoke", action="store_true",
                        help="small CI run: preemption bound 1 / one "
                             "repeat (fabric), two repeats and a "
                             "two-rung ladder (symbolic)")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the tracing-overhead measurement "
                             "(fabric bench)")
    parser.add_argument("--arch", default=None,
                        help="run the checking-fabric bench on one "
                             "architecture world (x86_64 or "
                             "vmsav8_64); non-default arches land "
                             "under an arch_<name> section of --out")
    args = parser.parse_args(argv)

    arch_config = None
    if args.arch is not None:
        from repro.hyperenclave.constants import ARCH_CONFIGS
        if args.arch not in ARCH_CONFIGS:
            parser.error(f"unknown --arch {args.arch!r} "
                         f"(choose from {sorted(ARCH_CONFIGS)})")
        if args.symbolic or args.durability or args.service:
            parser.error("--arch only applies to the checking-fabric "
                         "bench")
        arch_config = ARCH_CONFIGS[args.arch]

    if args.symbolic:
        out = args.out or "BENCH_symbolic.json"
        repeats = min(args.repeats, 2) if args.smoke else args.repeats
        if args.budget is not None:
            ladder = (args.budget,)
        elif args.smoke:
            ladder = (0.02, 0.2)
        else:
            ladder = (0.02, 0.05, 0.2)
        record = bench_symbolic(repeats=repeats, ladder=ladder)
        with open(out, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if args.artifact:
            with open(args.artifact, "w") as fh:
                fh.write(format_symbolic_record(record))
        print(f"naive {record['naive']['seconds']}s  "
              f"fast {record['fast']['seconds']}s  "
              f"speedup {record['speedup']}x warm / "
              f"{record['speedup_cold']}x cold  "
              f"({record['functions']} functions, intern hit rate "
              f"{record['interning']['intern_hit_rate']}, solver memo "
              f"rate {record['solver']['memo_hit_rate']})")
        return record

    out = args.out or "BENCH_checking.json"
    if args.smoke:
        args.preemption_bound = min(args.preemption_bound, 1)
        args.repeats = 1

    if args.durability:
        # Durability measurements merge into the fabric record — both
        # land in BENCH_checking.json; whichever ran last updated only
        # its own section.
        record = bench_durability(preemption_bound=args.preemption_bound,
                                  max_schedules=args.max_schedules,
                                  workers=args.workers,
                                  repeats=args.repeats)
        merged = _merged_out(out, "durability", record)
        print(f"plain {record['plain']['seconds']}s  "
              f"durable {record['durable']['seconds']}s  "
              f"checkpoint overhead "
              f"{record['checkpoint_overhead'] * 100:+.1f}%  "
              f"warm {record['warm_store']['seconds']}s "
              f"({record['warm_store']['speedup_vs_cold']}x vs cold)  "
              f"resume {record['resume']['seconds']}s "
              f"({record['resume']['fraction_of_full_run'] * 100:.0f}% "
              f"of a full run, "
              f"{record['resume']['schedules_preserved']}/"
              f"{record['resume']['schedules_total']} schedules "
              f"preserved)  verdict cache "
              f"{record['verdict_cache']['speedup']}x warm")
        return merged

    if args.service:
        record = bench_service(
            preemption_bound=args.preemption_bound,
            max_schedules=args.max_schedules,
            workers=args.workers,
            concurrency=(2,) if args.smoke else (2, 4, 8),
            request_probes=50 if args.smoke else 200)
        merged = _merged_out(out, "service", record)
        per_level = "  ".join(
            f"n={entry['campaigns']} seq "
            f"{entry['sequential_seconds']}s svc "
            f"{entry['service_seconds']}s "
            f"({entry['scheduling_overhead'] * 100:+.1f}%)"
            for entry in record["concurrency"].values())
        print(f"{per_level}  request path "
              f"+{record['request_path']['overhead_ms_per_call']}ms/"
              f"call over direct "
              f"({record['request_path']['direct_ms_per_call']}ms)")
        return merged

    record = bench_checking(preemption_bound=args.preemption_bound,
                            max_schedules=args.max_schedules,
                            workers=args.workers, repeats=args.repeats,
                            trace_overhead=not args.no_trace,
                            config=arch_config)
    # The default-arch record is the top-level document; other arches
    # get their own section so BENCH_checking.json carries per-arch
    # numbers side by side.
    section = (None if args.arch in (None, "x86_64")
               else f"arch_{args.arch}")
    merged = _merged_out(out, section, record)
    line = (f"1 worker {record['one_worker']['seconds']}s  "
            f"{record['config']['workers']} workers "
            f"{record['parallel']['seconds']}s  "
            f"speedup {record['speedup']}x  "
            f"({record['schedules']} schedules, "
            f"{record['states']} states, "
            f"memo hit rate {record['memo']['hit_rate']})")
    if "tracing" in record:
        line += (f"  tracing overhead "
                 f"{record['tracing']['overhead'] * 100:+.1f}% "
                 f"({record['tracing']['records']} records)")
    if args.arch:
        line = f"[{args.arch}] " + line
    print(line)
    return merged


if __name__ == "__main__":
    main()
