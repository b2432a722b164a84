"""repro.engine — the parallel checking fabric.

Every checking engine in the repro (fault campaigns, the
bounded-preemption interleaving explorer, the two-world noninterference
sweeps, the hardened pure checks) is a pure function of its seeds, so
its work units can be fanned out across processes and the results
merged deterministically.  This package provides:

* :mod:`repro.engine.executor` — a deterministic sharded
  ``ProcessPoolExecutor`` wrapper: work units are partitioned by a
  stable shard key and the merge reassembles results in unit order, so
  the combined output is byte-identical to the in-process run no matter
  how many workers raced.
* :mod:`repro.engine.fingerprint` — canonical 64-bit fingerprints over
  the mutable monitor structures (phys, pt_allocator, epcm, enclaves,
  cpus/TLBs), stable across worker processes.
* :mod:`repro.engine.memo` — fingerprint-keyed memoisation of invariant
  sweeps, the vCPU consistency check, and noninterference observation
  diffs, with per-structure dirty tracking: only families whose
  structures changed since an already-certified state are re-checked.
* :mod:`repro.engine.campaigns` — every campaign over the executor,
  byte-identical at every worker count (``workers=1`` runs in-process
  and is the sequential form of every campaign; the verdicts are
  pinned by the committed golden digests).
* :mod:`repro.engine.bug_matrix` — the 13-planted-bug conviction
  matrix, runnable through the parallel fabric.
* :mod:`repro.engine.bench` — the perf harness emitting
  ``BENCH_checking.json`` (schedules/sec, states/sec, cache hit rates,
  speedup of ``workers`` over one worker).
"""

from repro.engine.executor import ShardedExecutor, resolve_workers
from repro.engine.fingerprint import (
    STRUCTURES,
    fingerprint,
    state_fingerprint,
    structure_fingerprints,
)
from repro.engine.memo import FAMILY_DEPS, CheckMemo
from repro.engine.campaigns import (
    parallel_bitflip_campaigns,
    parallel_crash_in_critical_section_campaign,
    parallel_crash_ni_campaign,
    parallel_crash_step_campaign,
    parallel_interleaving_campaign,
    parallel_pure_check_grid,
)
from repro.engine.bug_matrix import run_matrix_parallel


def __getattr__(name):
    # Lazy so `python -m repro.engine.bench` does not trip runpy's
    # already-imported warning.
    if name == "bench_checking":
        from repro.engine.bench import bench_checking
        return bench_checking
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ShardedExecutor",
    "resolve_workers",
    "STRUCTURES",
    "fingerprint",
    "state_fingerprint",
    "structure_fingerprints",
    "FAMILY_DEPS",
    "CheckMemo",
    "parallel_bitflip_campaigns",
    "parallel_crash_in_critical_section_campaign",
    "parallel_crash_ni_campaign",
    "parallel_crash_step_campaign",
    "parallel_interleaving_campaign",
    "parallel_pure_check_grid",
    "run_matrix_parallel",
    "bench_checking",
]
