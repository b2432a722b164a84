"""The durable campaign orchestrator: checkpoint, crash, resume, warm.

The run loop mirrors the paper's transactional hypercalls: state
advances in atomic steps (one explored wavefront), each step commits
via an atomic checkpoint, and a crash at *any* instant — between
steps, mid-wave, mid-checkpoint-write — leaves the store at the last
committed step.  ``python -m repro resume <store>`` then continues
from that step, and because the wavefront bookkeeping is the very
:class:`~repro.concurrency.explorer.FrontierState` the in-memory
explorer runs on, the resumed campaign's
:class:`~repro.concurrency.explorer.ExplorationResult` is
repr-identical to an uninterrupted run (property-tested by killing at
randomized checkpoints in ``tests/service/``).

One driver, :class:`DurableCampaign`, owns that loop: spec-digest
check, frontier start or resume, memo warm-up, unit building,
quarantine, absorb and checkpoint commit.  Two schedulers of chunks
drive it — :func:`run_durable_campaign` with whole wavefronts, and the
daemon's :class:`~repro.service.scheduler.CampaignScheduler` with
fair-share chunks of several campaigns — so each verdict has one code
path however it is served.

Cross-run warm reuse rides the same store: worker memo misses are
journalled, shipped back with each shard, and appended to the
:class:`~repro.service.store.MemoStore`; the next campaign preloads
them into the parent's :class:`~repro.engine.memo.CheckMemo` *before*
forking workers, so every worker inherits the warm tables and repeat
campaigns become mostly cache hits (measured in
``BENCH_checking.json``).  :func:`warm_pure_check_grid` does the same
for whole hardened pure-check verdicts, keyed by
:func:`~repro.verification.harness.pure_check_key`.

Chaos hooks: ``REPRO_CHAOS_KILL_AFTER=<n>`` (or the
``chaos_kill_after`` argument) SIGKILLs the process right after the
n-th checkpoint commits — the crash-safety tests and the CI chaos job
drive the orchestrator through real ``kill -9`` with it.
"""

import copy
import os
import signal
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.campaigns import INTERLEAVING_UNIT, interleaving_units
from repro.engine.memo import merge_stats
from repro.errors import CorruptArtifact, ShardQuarantined
from repro.obs import trace as _trace
from repro.obs.metrics import REGISTRY
from repro.service.checkpoint import CampaignCheckpoint, spec_digest
from repro.service.store import MemoStore
from repro.service.supervisor import ResilientExecutor

CHECKPOINT_FILE = "checkpoint.bin"
MEMO_FILE = "memo.log"

#: Environment hook: SIGKILL self after this many checkpoint commits.
CHAOS_ENV = "REPRO_CHAOS_KILL_AFTER"


@dataclass(frozen=True)
class CampaignSpec:
    """What is being checked — the identity a checkpoint is keyed by.

    Every field is checked here, at construction, so a bad value is
    refused where it enters — the CLI, ``POST /campaigns``, a stored
    ``campaign.json`` or checkpoint — with a :class:`ValueError` naming
    the field, instead of raising later inside a scheduling round.
    """

    kind: str = "interleaving"
    monitor: Optional[str] = None      # repro.<module>:<class> or None
    seed: int = 0
    preemption_bound: int = 2
    max_schedules: int = 600
    check_ni: bool = True
    observers: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.kind != "interleaving":
            raise ValueError(f"unknown campaign kind {self.kind!r} "
                             f"(supported: 'interleaving')")
        for name, floor in (("seed", None), ("preemption_bound", 0),
                            ("max_schedules", 1)):
            value = getattr(self, name)
            if not _is_int(value) or (floor is not None and value < floor):
                bound = "" if floor is None else f" >= {floor}"
                raise ValueError(f"{name} must be an integer{bound}, "
                                 f"got {value!r}")
        if not isinstance(self.check_ni, bool):
            raise ValueError(f"check_ni must be a boolean, "
                             f"got {self.check_ni!r}")
        if self.observers is not None:
            if not isinstance(self.observers, (list, tuple)) \
                    or not all(_is_int(o) for o in self.observers):
                raise ValueError(f"observers must be a list of integer "
                                 f"ids or null, got {self.observers!r}")
            object.__setattr__(self, "observers", tuple(self.observers))
        _check_monitor_path(self.monitor)

    def payload(self) -> Dict:
        return {"kind": self.kind, "monitor": self.monitor,
                "seed": self.seed,
                "preemption_bound": self.preemption_bound,
                "max_schedules": self.max_schedules,
                "check_ni": self.check_ni,
                "observers": list(self.observers)
                if self.observers is not None else None}

    @classmethod
    def from_payload(cls, payload: Dict) -> "CampaignSpec":
        """Rebuild a spec from a payload dict (absent fields take their
        defaults); raises :class:`ValueError` on any invalid field."""
        if not isinstance(payload, dict):
            raise ValueError(f"a campaign spec must be a JSON object, "
                             f"got {payload!r}")
        return cls(**{name: payload[name]
                      for name in cls.__dataclass_fields__
                      if name in payload})

    def digest(self) -> str:
        # payload() is the canonical form (observers as list-or-None),
        # and the checkpoint digests the same payload — the two must
        # agree or every resume would be a spec mismatch.
        return spec_digest(self.payload())


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_monitor_path(path) -> None:
    """``None``, or a ``repro.<module>:<class>`` path naming a
    :class:`~repro.hyperenclave.monitor.RustMonitor` subclass.

    The module name is checked before anything is imported, so a spec
    can never make a worker import, let alone call, code from outside
    the package.
    """
    if path is None:
        return
    module_name, _sep, attr = path.partition(":") \
        if isinstance(path, str) else ("", "", "")
    if not attr or not (module_name == "repro"
                        or module_name.startswith("repro.")):
        raise ValueError(f"monitor must be a 'repro.<module>:<class>' "
                         f"path or null, got {path!r}")
    from repro.engine.executor import resolve_callable
    from repro.hyperenclave.monitor import RustMonitor
    try:
        target = resolve_callable(path)
    except (ImportError, AttributeError, ValueError) as exc:
        raise ValueError(f"monitor {path!r} does not resolve: "
                         f"{exc}") from None
    if not (isinstance(target, type) and issubclass(target, RustMonitor)):
        raise ValueError(f"monitor {path!r} is not a RustMonitor "
                         f"subclass")


class CampaignStore:
    """One campaign's durable home: checkpoint file + memo log.

    Usable as a context manager: ``with CampaignStore(root) as store``
    releases the memo log's file handle on exit.  :meth:`close` is
    idempotent, and a closed store is not poisoned — the append log
    reopens lazily if the store is used again (closing releases OS
    resources; it does not retire the on-disk state).
    """

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.checkpoint_path = os.path.join(root, CHECKPOINT_FILE)
        self.memo = MemoStore(os.path.join(root, MEMO_FILE))
        self._closed = False

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run since the last use."""
        return self._closed

    def has_checkpoint(self) -> bool:
        return os.path.exists(self.checkpoint_path)

    def load_checkpoint(self, expected_digest: Optional[str] = None,
                        strict: bool = False
                        ) -> Optional[CampaignCheckpoint]:
        """The stored checkpoint, or ``None`` for a cold start.

        A *corrupt* checkpoint is a warning plus cold start (strict
        off): refusing to run because last run's snapshot is damaged
        would turn one lost file into a lost service.  A checkpoint for
        a *different spec* always raises
        :class:`~repro.errors.CheckpointMismatch` — that is a caller
        error, not damage.
        """
        if not self.has_checkpoint():
            return None
        try:
            return CampaignCheckpoint.load(self.checkpoint_path,
                                           expected_digest)
        except CorruptArtifact as exc:
            if strict:
                raise
            warnings.warn(
                f"ignoring corrupt checkpoint and cold-starting: {exc}",
                RuntimeWarning, stacklevel=2)
            REGISTRY.inc("service.corrupt_checkpoints")
            return None

    def save_checkpoint(self, checkpoint: CampaignCheckpoint) -> str:
        """Atomically replace the checkpoint; metered and traced."""
        started = time.perf_counter()
        path = checkpoint.save(self.checkpoint_path)
        elapsed = time.perf_counter() - started
        REGISTRY.inc("service.checkpoints")
        REGISTRY.observe("service.checkpoint_seconds", elapsed)
        _trace.event("service.checkpoint", waves=checkpoint.waves,
                     done=checkpoint.done,
                     runs=len(getattr(checkpoint.state, "runs", ())),
                     seconds=round(elapsed, 6))
        return path

    def close(self):
        """Release the memo log's handle; safe to call repeatedly."""
        self.memo.close()
        self._closed = True

    def __enter__(self) -> "CampaignStore":
        self._closed = False
        return self

    def __exit__(self, *_exc):
        self.close()
        return False


def _coerce_store(store) -> CampaignStore:
    return store if isinstance(store, CampaignStore) else \
        CampaignStore(store)


def _chaos_threshold(chaos_kill_after: Optional[int]) -> Optional[int]:
    if chaos_kill_after is not None:
        return chaos_kill_after
    env = os.environ.get(CHAOS_ENV)
    return int(env) if env else None


def _maybe_chaos_kill(threshold: Optional[int], checkpoints_written: int,
                      pool=None):
    """The chaos hook: a real ``SIGKILL``, not an exception — nothing
    downstream of the commit gets a chance to clean up, exactly like a
    power cut.

    The pool's worker processes are killed first: they hold no durable
    state (the crash-safety property under test lives entirely in the
    store), but they do inherit the parent's stdio, and orphaned
    workers idling on an inherited pipe would wedge any harness that
    waits for the killed campaign's output to reach EOF.
    """
    if threshold is None or checkpoints_written < threshold:
        return
    if pool is not None:
        pool.terminate()
    os.kill(os.getpid(), signal.SIGKILL)


def _quarantine_output(schedule, error: ShardQuarantined):
    """A quarantined unit as an absorbable (result, findings) pair.

    The synthetic result has no decisions, so the explorer grows no
    children from it; the quarantine itself surfaces as a typed
    violation pinned to the schedule that was never checked.
    """
    from repro.concurrency.scheduler import RunResult
    empty = RunResult(schedule=schedule, decisions=(), yields=(),
                      trace=(), lock_violations=(),
                      stale_translations=(), task_errors={}, parked=())
    return empty, [("shard-quarantined", str(error))]


def _hash_cons_outputs(outputs, cache: dict) -> None:
    """Share value-equal scheduler events across a campaign's runs.

    Worker shards ship their results through separate pickles, so two
    runs that executed the same scheduling decision arrive holding
    equal-but-distinct ``Decision``/``YieldPoint`` objects.  Re-keying
    them through one campaign-lifetime cache lets every later
    checkpoint pickle emit each unique event once (pickle's memo table
    shares by identity, not value) — an order of magnitude off the
    per-wave checkpoint's size and serialisation time, while the
    result stays repr-identical by construction: the cache only ever
    substitutes an equal value.
    """
    for result, _findings in outputs:
        result.yields = tuple(cache.setdefault(y, y)
                              for y in result.yields)
        result.decisions = tuple(cache.setdefault(d, d)
                                 for d in result.decisions)


# ---------------------------------------------------------------------------
# The durable interleaving campaign
# ---------------------------------------------------------------------------


class DurableCampaign:
    """One durable interleaving campaign's checkpointed loop.

    The one code path that turns checked chunks of a campaign's
    frontier into committed checkpoints.  :func:`run_durable_campaign`
    feeds it whole wavefronts; the daemon's
    :class:`~repro.service.scheduler.CampaignScheduler` feeds it
    fair-share chunks of several campaigns over one shared pool.
    Chunked absorption visits schedules in exactly the order whole
    waves would (the frontier is FIFO), so both produce repr-identical
    results; only the number of checkpoints differs.

    :meth:`open` checks the stored checkpoint's spec digest and resumes
    its :class:`~repro.concurrency.explorer.FrontierState` (or starts a
    fresh one); :meth:`run_chunk` checks one chunk, absorbs it and
    commits; :meth:`finish` leaves the final ``done`` checkpoint.
    ``lock`` (any context manager) guards every mutation of the
    frontier, so a scheduler can serve status reads while a chunk's
    units run.
    """

    def __init__(self, spec: CampaignSpec, store: CampaignStore,
                 checkpoint: Optional[CampaignCheckpoint] = None, *,
                 lock=None):
        from repro.concurrency.explorer import FrontierState
        from repro.engine import workers as worker_module

        self.spec = spec
        self.store = store
        self.lock = lock if lock is not None else nullcontext()
        self.resumed = checkpoint is not None
        if checkpoint is not None:
            self.state = checkpoint.state
            self.stats = copy.deepcopy(checkpoint.stats)
            self.waves = checkpoint.waves
            self.checkpoint_done = checkpoint.done
        else:
            self.state = FrontierState.start(
                seed=spec.seed, preemption_bound=spec.preemption_bound,
                max_schedules=spec.max_schedules)
            self.stats = {}
            self.waves = 0
            self.checkpoint_done = False
        self._cons_cache: dict = {}
        if self.checkpoint_done:
            return
        # The store's directory names the campaign (a daemon store is
        # ``<root>/<campaign id>``), so traces of several campaigns
        # resumed together stay attributable.
        name = os.path.basename(os.path.normpath(store.root))
        if self.resumed:
            REGISTRY.inc("service.resumes")
            _trace.event("service.resume", campaign=name,
                         waves=self.waves, runs=len(self.state.runs),
                         frontier=len(self.state.frontier))
        # Warm start *before* any pool forks: preloaded entries and the
        # journalling flag are inherited by every worker.
        preloaded = store.memo.preload_memo(worker_module.MEMO)
        worker_module.MEMO.enable_journal()
        if preloaded:
            REGISTRY.inc("service.memo_preloaded", preloaded)
            _trace.event("service.memo-preload", campaign=name,
                         entries=preloaded)
        # Seed the event cache from any resumed runs so fresh chunks
        # share with the history, not just with each other.
        _hash_cons_outputs(
            ((result, ()) for _schedule, result in self.state.runs),
            self._cons_cache)

    @classmethod
    def open(cls, spec: CampaignSpec, store: CampaignStore, *,
             lock=None) -> "DurableCampaign":
        """The campaign ``store`` holds for ``spec``, or a fresh one.

        Raises :class:`~repro.errors.CheckpointMismatch` when the store
        belongs to another spec; a corrupt checkpoint cold-starts (see
        :meth:`CampaignStore.load_checkpoint`).
        """
        return cls(spec, store,
                   store.load_checkpoint(expected_digest=spec.digest()),
                   lock=lock)

    def run_chunk(self, pool, wave, key_prefix: str = "") -> None:
        """Check ``wave`` (taken from :attr:`state`) on ``pool``, absorb
        it and commit the checkpoint.

        Snapshots are process-local, so a campaign resumed after
        ``kill -9`` — or a respawned dead worker — rebuilds its trees
        from live execution; pre-crash snapshots are never trusted.
        On ``KeyboardInterrupt`` the chunk goes back on the frontier
        and the checkpoint records the exact pre-chunk state.
        """
        units, keys = interleaving_units(
            wave, monitor=self.spec.monitor, check_ni=self.spec.check_ni,
            observers=self.spec.observers, key_prefix=key_prefix)
        pool.stats = {}
        try:
            merged = pool.map(INTERLEAVING_UNIT, units, keys=keys)
        except KeyboardInterrupt:
            self.put_back(pool, wave)
            raise
        outputs = [_quarantine_output(schedule, value)
                   if isinstance(value, ShardQuarantined) else value
                   for schedule, value in zip(wave, merged)]
        with self.lock:
            _hash_cons_outputs(outputs, self._cons_cache)
            self.state.absorb(wave, outputs)
            merge_stats(self.stats, pool.stats)
            self.commit(pool, done=self.state.done)

    def put_back(self, pool, wave) -> None:
        """Return an unchecked chunk to the front of the frontier and
        commit, so the checkpoint is the exact pre-chunk state."""
        with self.lock:
            self.state.frontier.extendleft(reversed(wave))
            self.commit(pool, done=False)

    def commit(self, pool, *, done: bool) -> None:
        """The checkpoint plus memo-journal flush (the crash barrier)."""
        appended = self.store.memo.extend(pool.drain_memo_journal())
        if appended:
            REGISTRY.inc("service.memo_persisted", appended)
        self.waves += 1
        self.store.save_checkpoint(CampaignCheckpoint(
            spec=self.spec.payload(), state=self.state, waves=self.waves,
            done=done, stats=copy.deepcopy(self.stats)))
        self.checkpoint_done = done

    def finish(self, pool):
        """The campaign's result, after a final ``done`` commit when
        the exploration ended inside ``take_wave`` (truncation, or an
        empty frontier on a resumed store): the last per-chunk
        checkpoint predates that decision."""
        if not self.checkpoint_done:
            self.commit(pool, done=True)
        return self.state.result()


def run_durable_campaign(spec: CampaignSpec, store, *,
                         workers: Optional[int] = None,
                         executor: Optional[ResilientExecutor] = None,
                         chaos_kill_after: Optional[int] = None):
    """Run (or continue) a crash-safe interleaving campaign.

    Returns the campaign's
    :class:`~repro.concurrency.explorer.ExplorationResult`; every
    explored wavefront commits an atomic checkpoint plus the wave's
    memo-journal entries before the next wave starts, so a ``kill -9``
    at any instant loses at most one in-flight wave — which the next
    :func:`resume_campaign` re-runs to the identical verdict.

    ``executor`` (a pre-built :class:`ResilientExecutor`) is only
    honoured for pool reuse across campaigns *sharing a store* — a
    pool forked before this store's memo preload would run cold.
    """
    owns_store = not isinstance(store, CampaignStore)
    store = _coerce_store(store)
    threshold = _chaos_threshold(chaos_kill_after)
    try:
        campaign = DurableCampaign.open(spec, store)
        if campaign.checkpoint_done:
            return campaign.state.result()
        pool = executor if executor is not None \
            else ResilientExecutor(workers)
        opened_waves = campaign.waves
        try:
            with _trace.span("service.campaign", kind=spec.kind,
                             seed=spec.seed, resumed=campaign.resumed):
                while True:
                    wave = campaign.state.take_wave()
                    if not wave:
                        break
                    campaign.run_chunk(pool, wave)
                    _maybe_chaos_kill(threshold,
                                      campaign.waves - opened_waves, pool)
                return campaign.finish(pool)
        finally:
            if executor is None:
                pool.close()
    finally:
        if owns_store:
            store.close()


def resume_campaign(store, *, workers: Optional[int] = None,
                    executor: Optional[ResilientExecutor] = None,
                    chaos_kill_after: Optional[int] = None):
    """Continue an interrupted campaign from its store.

    The spec travels inside the checkpoint, so resuming needs only the
    store path.  Raises :class:`FileNotFoundError` when the store has
    no checkpoint and :class:`~repro.errors.CorruptArtifact` when the
    checkpoint cannot be loaded or its stored spec is refused (an
    explicit resume of a damaged store should fail loudly; the
    *campaign* entry point is the one with the cold-start fallback).
    """
    owns_store = not isinstance(store, CampaignStore)
    store = _coerce_store(store)
    try:
        if not store.has_checkpoint():
            raise FileNotFoundError(
                f"no checkpoint at {store.checkpoint_path!r} — nothing "
                f"to resume")
        checkpoint = store.load_checkpoint(strict=True)
        try:
            spec = CampaignSpec.from_payload(checkpoint.spec)
        except ValueError as exc:
            raise CorruptArtifact(store.checkpoint_path,
                                  f"stored spec refused: {exc}") from exc
        return run_durable_campaign(spec, store, workers=workers,
                                    executor=executor,
                                    chaos_kill_after=chaos_kill_after)
    finally:
        if owns_store:
            store.close()


# ---------------------------------------------------------------------------
# Warm cross-run verdict reuse for the hardened pure-check grid
# ---------------------------------------------------------------------------

VERDICT_TABLE = "pure-verdict"


def warm_pure_check_grid(names: Sequence[str], store, *,
                         total_steps: Optional[int] = None, seed: int = 0,
                         sample_count: int = 128,
                         max_exhaustive: int = 4096, config=None,
                         workers: Optional[int] = None,
                         executor=None, stats_out=None) -> List:
    """The parallel pure-check grid with a persistent verdict memo.

    Deterministic check parameters (step budgets only — wall-clock
    budgets are not reproducible, exactly the provenance-bundle rule)
    key each :class:`~repro.ccal.refinement.CheckReport` by
    :func:`~repro.verification.harness.pure_check_key`; verdicts found
    in the store are returned without running anything, the rest run
    through the sharded executor and are appended for the next
    campaign.  Reports come back in ``names`` order either way.
    """
    from repro.engine.campaigns import _executor, _pure_check_units
    from repro.verification.harness import pure_check_key

    owns_store = not isinstance(store, CampaignStore)
    store = _coerce_store(store)
    names = list(names)
    units = _pure_check_units(names, total_steps=total_steps,
                              total_seconds=None, seed=seed,
                              sample_count=sample_count,
                              max_exhaustive=max_exhaustive,
                              config=config, fake_clock=True)
    keys = [pure_check_key(unit["name"], max_steps=unit["max_steps"],
                           seed=seed, sample_count=sample_count,
                           max_exhaustive=max_exhaustive, config=config)
            for unit in units]
    cached = {key: value for table, key, value in store.memo.load()
              if table == VERDICT_TABLE}
    reports: List = [None] * len(units)
    misses = [index for index, key in enumerate(keys)
              if key not in cached]
    hits = len(units) - len(misses)
    if hits:
        REGISTRY.inc("service.verdict_hits", hits)
    for index, key in enumerate(keys):
        if key in cached:
            reports[index] = cached[key]
    if misses:
        REGISTRY.inc("service.verdict_misses", len(misses))
        with _trace.span("service.pure-grid", names=len(units),
                         misses=len(misses)), \
                _executor(executor, workers) as pool:
            fresh = pool.map("repro.engine.workers:run_pure_check_unit",
                             [units[index] for index in misses],
                             keys=[units[index]["name"]
                                   for index in misses])
            if stats_out is not None:
                merge_stats(stats_out, pool.stats)
        for index, report in zip(misses, fresh):
            reports[index] = report
        store.memo.extend(
            (VERDICT_TABLE, keys[index], report)
            for index, report in zip(misses, fresh))
    if owns_store:
        store.close()
    return reports
