"""Golden verdict digests: the fixed oracle for every checking verdict.

Each entry is one campaign verdict (or one scheduled run) on one
architecture, reduced to the blake2b-128 digest of its full ``repr`` —
every schedule, decision, yield point, finding and record field.  The
committed ``golden_verdicts.json`` beside this module holds the digests
recorded when the file was introduced; tier-1 recomputes each entry and
requires an exact match, so any change that moves a verdict by one
field fails here, whatever code path now computes it.

The x86-64 interleaving entries are the same campaigns the benchmark's
``fleet`` workload submits to the daemon (seed 0, preemption bound 2,
noninterference on), and the VMSAv8-64 fault entries the same ones its
``faults`` workload runs, so :func:`test_benchmark_goldens_agree`
cross-checks both against ``perfbench/golden.json``, which was recorded
independently through the service and the benchmark runner.

An intentional verdict change is re-recorded with one command from the
repository root, and reviewed as a diff of the committed file::

    PYTHONPATH=src python tests/test_golden_verdicts.py > tests/golden_verdicts.json
"""

import functools
import hashlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden_verdicts.json")
BENCH_GOLDEN_PATH = os.path.join(HERE, os.pardir, "perfbench",
                                 "golden.json")

ARCHES = ("x86_64", "vmsav8_64")
INTERLEAVING_MONITORS = {"clean": None,
                         "missing-lock": "MissingLockMonitor",
                         "no-shootdown": "NoShootdownMonitor"}
# Mid-hypercall crashes: the crash lands inside an open transaction,
# so the run covers journal rollback and the parked hc.return yield.
CRASH_SCHEDULES = ((0, 7), (1, 3), (0, 15))


def digest(obj) -> str:
    """blake2b-128 of an object's repr (the service's result digest)."""
    return hashlib.blake2b(repr(obj).encode(), digest_size=16).hexdigest()


def _config(arch):
    from repro.hyperenclave.constants import ARCH_CONFIGS
    return ARCH_CONFIGS[arch]


def _interleaving(arch, monitor, **grid):
    from repro.engine.campaigns import parallel_interleaving_campaign
    from repro.hyperenclave import buggy
    return parallel_interleaving_campaign(
        getattr(buggy, monitor) if monitor else None, seed=0,
        preemption_bound=2, config=_config(arch), workers=1, **grid)


def _crash_schedule(crash):
    from repro.concurrency.scheduler import Schedule
    from repro.engine.fingerprint import state_fingerprint
    from repro.faults.campaign import (
        build_interleaved_world,
        execute_interleaved,
    )
    state, ctx = build_interleaved_world()
    state, result = execute_interleaved(
        state, ctx, Schedule(seed=0, crash=crash))
    return result, state_fingerprint(state)


def _faults(arch, kind, **fabric):
    from repro.engine import campaigns
    from repro.faults.plane import SITE_EPCM_ALLOC, SITE_FRAME_ALLOC
    config = _config(arch)
    if kind == "crash-step":
        return campaigns.parallel_crash_step_campaign(
            factory_args=(config,),
            sites=(SITE_FRAME_ALLOC, SITE_EPCM_ALLOC), seed=0, workers=1,
            **fabric)
    if kind == "crash-ni":
        return campaigns.parallel_crash_ni_campaign(
            factory_args=(config,), seed=0, workers=1, **fabric)
    if kind == "crash-critical-section":
        return campaigns.parallel_crash_in_critical_section_campaign(
            seed=0, config=config, workers=1, **fabric)
    flip_seed = int(kind.split(":")[1])
    return campaigns.parallel_bitflip_campaigns(
        (flip_seed,), factory_args=(config,), workers=1, **fabric)[0]


@functools.lru_cache(maxsize=None)
def _matrix(arch):
    from repro.engine.bug_matrix import run_matrix_parallel
    return {bug: (bug, detected, how) for bug, detected, how
            in run_matrix_parallel(workers=1, config=_config(arch))}


def _entries():
    """``{entry name: thunk computing its verdict object}``."""
    from repro.engine.bug_matrix import MATRIX
    entries = {}
    for arch in ARCHES:
        for label, monitor in INTERLEAVING_MONITORS.items():
            entries[f"{arch}/interleaving/{label}"] = functools.partial(
                _interleaving, arch, monitor, check_ni=True)
        entries[f"{arch}/interleaving/crash-1-3"] = functools.partial(
            _interleaving, arch, None, check_ni=False, crash=(1, 3))
        for kind in ("crash-step", "crash-ni", "crash-critical-section",
                     "bitflip:0", "bitflip:1"):
            entries[f"{arch}/{kind}"] = functools.partial(
                _faults, arch, kind)
        for monitor_cls, _detector, _arg in MATRIX:
            entries[f"{arch}/matrix:{monitor_cls.BUG}"] = (
                lambda a=arch, b=monitor_cls.BUG: _matrix(a)[b])
    for crash in CRASH_SCHEDULES:
        entries[f"x86_64/schedule/crash-{crash[0]}-{crash[1]}"] = \
            functools.partial(_crash_schedule, crash)
    return entries


ENTRIES = _entries()


@functools.lru_cache(maxsize=None)
def golden_result(name):
    """The verdict object of one entry, computed once per process."""
    return ENTRIES[name]()


def compute_digests(names=None):
    """``{entry name: digest}`` for ``names`` (default: every entry)."""
    return {name: digest(golden_result(name))
            for name in (ENTRIES if names is None else names)}


def load_golden():
    """The committed digests."""
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_file_covers_every_entry():
    assert sorted(load_golden()) == sorted(ENTRIES)


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_verdict_matches_golden(name):
    assert compute_digests([name]) == {name: load_golden()[name]}


def test_benchmark_goldens_agree():
    """The service-recorded fleet digests and the benchmark's VMSAv8-64
    fault digests equal the entries recorded here."""
    with open(BENCH_GOLDEN_PATH) as fh:
        bench = json.load(fh)
    golden = load_golden()
    fleet = {"clean0": "clean", "MissingLockMonitor": "missing-lock",
             "NoShootdownMonitor": "no-shootdown"}
    for key, label in fleet.items():
        assert bench["fleet"][key] == golden[f"x86_64/interleaving/{label}"]
    for key, value in bench["faults"].items():
        assert value == golden[f"vmsav8_64/{key}"], key


if __name__ == "__main__":
    json.dump(compute_digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
