"""Worker-side unit runners for the sharded executor.

Each function here takes one small picklable ``unit`` dict and returns
a picklable result; the executor addresses them by dotted path
(``repro.engine.workers:run_interleaving_unit``) because the campaign
closures themselves do not pickle.  Heavyweight context lives in
per-process module globals, built once per worker and reused across
every unit the worker's shards carry:

* :data:`MEMO` — the process's :class:`~repro.engine.memo.CheckMemo`;
  the executor returns its counter deltas with every shard.
* world prototypes — :func:`~repro.faults.campaign.build_interleaved_world`
  output cached per ``(monitor, config, secret)``; each schedule then
  starts from a :meth:`~repro.security.state.SystemState.clone` (~20x
  cheaper than a fresh boot, and byte-identical to one by the clone
  layer's contract).
* world factories / workloads / mir models — resolved and cached per
  dotted path.

The unit runners wrap the per-unit bodies of :mod:`repro.faults.campaign`
(:func:`~repro.faults.campaign.run_crash_step_unit` and friends); at
``workers=1`` the executor calls them in-process, so every worker count
runs the same code.
"""

from repro.engine.executor import resolve_callable
from repro.engine.memo import CheckMemo

# One memo per worker process (and one in the parent for in-process
# runs); the executor snapshots its stats around every shard.
MEMO = CheckMemo()

_PROTOTYPES = {}        # (monitor path, config repr, secret) -> (state, ctx)
_FACTORIES = {}         # (maker path, args repr) -> world factory
_WORKLOADS = {}         # workload path -> [(name, invoke)]
_MODELS = {}            # config repr -> mir corpus model


def _resolve_cls(path):
    return resolve_callable(path) if path else None


def _interleaved_prototype(monitor_path, config, secret):
    """The cached ``(state, ctx)`` prototype for one world flavour
    (built on first use per worker; never executed directly)."""
    from repro.faults.campaign import build_interleaved_world
    key = (monitor_path, repr(config), secret)
    if key not in _PROTOTYPES:
        _PROTOTYPES[key] = build_interleaved_world(
            _resolve_cls(monitor_path), config, secret=secret)
    return _PROTOTYPES[key]


def _interleaved_run_world(monitor_path, config):
    """A prototype-backed ``run_world(secret, schedule)`` running each
    schedule from a fresh clone (the crash-point units' path)."""
    from repro.faults.campaign import execute_interleaved

    def run_world(secret, schedule):
        state, ctx = _interleaved_prototype(monitor_path, config, secret)
        return execute_interleaved(state.clone(), dict(ctx), schedule)

    return run_world


def _execute_cached(monitor_path, config, secret, schedule):
    """One schedule through this process's snapshot tree.

    The tree key space is world-scoped — monitor class, config, secret,
    plus the schedule's (seed, crash) — so the secret-41 primary runs
    and the secret-42 noninterference re-runs each warm their own
    subtree on the same worker (unit-level sharding keeps both here).
    """
    from repro.concurrency.snapshot import process_tree
    from repro.faults.campaign import execute_interleaved_cached
    state, ctx = _interleaved_prototype(monitor_path, config, secret)
    world_key = (monitor_path, repr(config), secret, schedule.seed,
                 schedule.crash)
    return execute_interleaved_cached(state, dict(ctx), schedule,
                                      tree=process_tree(),
                                      world_key=world_key)


def _world_factory(maker_path, args):
    key = (maker_path, repr(args))
    if key not in _FACTORIES:
        _FACTORIES[key] = resolve_callable(maker_path)(*args)
    return _FACTORIES[key]


def _workload(path):
    if path not in _WORKLOADS:
        _WORKLOADS[path] = resolve_callable(path)()
    return _WORKLOADS[path]


def zero_clock():
    """A frozen clock: hardened-check budgets measured in wall-clock
    seconds read 0.0 everywhere, making ``budget_spent`` deterministic
    across workers (the equivalence suite's requirement)."""
    return 0.0


# ---------------------------------------------------------------------------
# Interleaving exploration
# ---------------------------------------------------------------------------


def run_interleaving_unit(unit):
    """One explored schedule: execute it, then run the full battery —
    memoised invariants, memoised vCPU consistency, and (``check_ni``)
    the schedule-NI re-run reusing this very execution as world A.

    Returns ``(RunResult, findings)`` for
    :func:`~repro.concurrency.explorer.explore_batched`.
    """
    from repro.engine.fingerprint import structure_fingerprints
    from repro.security.noninterference import (
        check_schedule_noninterference_prepared)

    monitor_path = unit.get("monitor")
    config = unit.get("config")
    state, result = _execute_cached(monitor_path, config, 41,
                                    unit["schedule"])
    fps = structure_fingerprints(state.monitor)
    findings = []
    report = MEMO.check_invariants(state.monitor, fps)
    for family in report.violated_families():
        for item in report.violations[family]:
            findings.append(("invariant", f"[{family}] {item}"))
    for item in MEMO.check_vcpu(state.monitor, fps):
        findings.append(("vcpu-consistency", item))
    if unit.get("check_ni"):
        def run_world(secret, schedule):
            return _execute_cached(monitor_path, config, secret, schedule)

        for violation in check_schedule_noninterference_prepared(
                state, result, run_world,
                unit["schedule"], list(unit["observers"]),
                diff=MEMO.final_state_diff):
            findings.append(("noninterference", str(violation)))
    return result, findings


# ---------------------------------------------------------------------------
# Fault campaigns
# ---------------------------------------------------------------------------


def run_crash_step_unit(unit):
    """One ``(hypercall, site, step)`` crash-step execution."""
    from repro.faults.campaign import run_crash_step_unit as run_unit
    factory = _world_factory(unit["factory"],
                             unit.get("factory_args", ()))
    calls = _workload(unit["workload"])
    runner = unit.get("runner")
    return run_unit(factory, calls, unit["index"], unit["site"],
                    unit["kind"], unit["step"], seed=unit.get("seed", 0),
                    runner=resolve_callable(runner) if runner else None)


def run_bitflip_unit(unit):
    """One whole seeded bit-flip campaign (the per-seed unit keeps the
    flips cumulative on one monitor)."""
    from repro.faults.campaign import bitflip_campaign
    factory = _world_factory(unit["factory"],
                             unit.get("factory_args", ()))
    workload = unit.get("workload")
    calls = _workload(workload) if workload else ()
    return bitflip_campaign(factory, calls,
                            flips=unit.get("flips", 64),
                            seed=unit.get("seed", 0))


def run_crash_ni_unit(unit):
    """All crash-NI runs of one trace step (list of RunRecords)."""
    from repro.faults.campaign import run_crash_ni_index
    factory = _world_factory(unit["factory"],
                             unit.get("factory_args", ()))
    return run_crash_ni_index(
        factory, unit["trace"], unit["index"], sites=tuple(unit["sites"]),
        observers=list(unit["observers"]), seed=unit.get("seed", 0))


def run_crash_point_unit(unit):
    """One crash delivered at one critical-section yield point."""
    from repro.faults.campaign import crash_point_record
    run_world = _interleaved_run_world(unit.get("monitor"),
                                       unit.get("config"))
    return crash_point_record(run_world, unit["point"],
                              seed=unit.get("seed", 0))


# ---------------------------------------------------------------------------
# Hardened pure-check grid
# ---------------------------------------------------------------------------


def run_pure_check_unit(unit):
    """One hardened pure-domain check under its budget slice."""
    from repro.verification.harness import check_pure_hardened

    config_key = repr(unit.get("config"))
    if config_key not in _MODELS:
        from repro.hyperenclave.constants import TINY
        from repro.hyperenclave.mir_model import build_model
        _MODELS[config_key] = build_model(unit.get("config") or TINY)
    model = _MODELS[config_key]
    return check_pure_hardened(
        model, unit["name"],
        max_steps=unit.get("max_steps"),
        max_seconds=unit.get("max_seconds"),
        seed=unit.get("seed", 0),
        sample_count=unit.get("sample_count", 128),
        max_exhaustive=unit.get("max_exhaustive", 4096),
        clock=zero_clock if unit.get("fake_clock") else None)


# ---------------------------------------------------------------------------
# Planted-bug matrix
# ---------------------------------------------------------------------------


def run_bug_matrix_unit(unit):
    """One planted-bug conviction: ``(bug name, detected, how)``."""
    from repro.engine.bug_matrix import run_case
    from repro.hyperenclave.constants import ARCH_CONFIGS
    config_name = unit.get("config")
    config = ARCH_CONFIGS[config_name] if config_name else None
    return run_case(unit["case"],
                    memo=MEMO if unit.get("memo") else None,
                    config=config)
