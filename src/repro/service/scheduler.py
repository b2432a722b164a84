"""Multi-campaign scheduling over one shared resilient worker pool.

Each admitted campaign is one
:class:`~repro.service.orchestrator.DurableCampaign` — the same
checkpointed driver :func:`~repro.service.orchestrator.run_durable_campaign`
runs a whole wavefront at a time — and this module decides only which
chunks of which campaigns run when, over one shared
:class:`~repro.service.supervisor.ResilientExecutor`:

* every admitted campaign keeps its own
  :class:`~repro.service.orchestrator.CampaignStore` (checkpoint +
  memo log + provenance artifacts) and, through its driver, its own
  :class:`~repro.concurrency.explorer.FrontierState`;
* the scheduler runs **rounds**: each round, every runnable campaign
  contributes a chunk of its next wavefront, least-served campaigns
  first, so no campaign starves while another holds queued waves
  (property-tested in ``tests/service/test_scheduler.py``);
* **work stealing** happens at the share level — a campaign whose
  frontier cannot fill its fair share of the round donates the slack,
  and loaded campaigns' queued waves absorb it (counted on
  ``service.units_stolen``), so one lonely campaign gets the entire
  pool and a crowd divides it;
* the driver commits the campaign's atomic checkpoint after every
  chunk — a ``kill -9`` of the whole daemon loses at most one
  in-flight chunk per campaign, and :meth:`CampaignScheduler.recover`
  re-admits every incomplete store it finds on restart.

Chunked absorption is verdict-preserving by construction: the frontier
is FIFO and children enqueue at the back, so absorbing a wave in
chunks visits schedules in exactly the order one whole-wave absorb
would — a scheduler-run campaign's
:class:`~repro.concurrency.explorer.ExplorationResult` is
repr-identical to ``run_durable_campaign`` on the same spec.

The robustness spine on top:

* **admission control** — a bounded queue; a submit past the bound
  raises :class:`~repro.errors.AdmissionRefused` (the daemon's
  429-style backpressure verdict) instead of accepting unbounded work;
* **budgets** — per-campaign wall-clock and wave caps; exceeding one
  marks the campaign failed with a typed
  :class:`~repro.errors.CampaignBudgetExceeded` message but keeps the
  checkpoint, so the campaign stays resumable under a larger budget;
* **liveness** — the scheduler heartbeats every loop iteration and
  between chunks; :meth:`health` turns a stale heartbeat into a
  ``stalled`` verdict.  Individual stuck *units* are already handled
  below the scheduler: the shared executor's shard timeout + bounded
  retries turn a hung worker into a
  :class:`~repro.errors.ShardQuarantined` violation instead of a
  wedged round;
* **graceful drain** — :meth:`drain` stops admissions, lets the
  in-flight round finish (its chunk commits are the checkpoint
  flush), marks still-running campaigns ``interrupted``, and returns
  the per-campaign resume report;
* **provenance on violation** — the moment a chunk's absorb records a
  violation, the scheduler cuts a replayable
  :class:`~repro.obs.provenance.ProvenanceBundle` into the campaign's
  ``artifacts/`` directory; cutting is idempotent by bundle index, so
  a crash between absorb and cut is repaired on resume.
"""

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import (
    AdmissionRefused,
    CampaignBudgetExceeded,
    CampaignNotFound,
    CheckpointMismatch,
)
from repro.obs import trace as _trace
from repro.obs.metrics import REGISTRY
from repro.service.orchestrator import (
    CampaignSpec,
    CampaignStore,
    DurableCampaign,
)
from repro.service.store import atomic_write_text
from repro.service.supervisor import ResilientExecutor

#: Campaign lifecycle states (plain strings: they travel as JSON).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
INTERRUPTED = "interrupted"

#: States a restarted scheduler re-admits (anything not finished).
RESUMABLE_STATES = (QUEUED, RUNNING, CANCELLED, INTERRUPTED, FAILED)

META_FILE = "campaign.json"
RESULT_FILE = "result.json"
ARTIFACTS_DIR = "artifacts"


def _result_digest(result) -> str:
    """blake2b of the full result repr — the byte-identity fingerprint
    the chaos tests compare across crash/resume/uninterrupted runs."""
    import hashlib
    return hashlib.blake2b(repr(result).encode(),
                           digest_size=16).hexdigest()


@dataclass
class ManagedCampaign:
    """One campaign under scheduler management (registry entry)."""

    campaign_id: str
    spec: Optional[CampaignSpec]         # None: see ``stored_spec``
    store: CampaignStore
    status: str = QUEUED
    admission_index: int = 0
    wall_budget: Optional[float] = None
    wave_budget: Optional[int] = None
    resumed: bool = False

    # Runtime state (populated at activation).
    driver: Optional[DurableCampaign] = None
    units_executed: int = 0
    started_at: Optional[float] = None   # monotonic, this process
    last_progress: Optional[float] = None
    bundles_cut: int = 0
    error: Optional[str] = None
    result_summary: Optional[Dict] = None
    #: A finished campaign's stored spec that today's checks refuse;
    #: :meth:`CampaignScheduler.recover` registers it read-only.
    stored_spec: Optional[Dict] = None

    @property
    def active(self) -> bool:
        return self.status == RUNNING

    @property
    def state(self):
        """The driver's FrontierState (None before activation)."""
        return self.driver.state if self.driver is not None else None

    @property
    def waves(self) -> int:
        """Checkpoints committed so far (0 before activation)."""
        return self.driver.waves if self.driver is not None else 0

    def pending_units(self) -> int:
        """Schedules still on this campaign's frontier (0 if inactive)."""
        if self.state is None:
            return 0
        return self.state.pending()

    def snapshot(self) -> Dict:
        """The JSON status the daemon serves for this campaign."""
        info = {
            "id": self.campaign_id,
            "status": self.status,
            "store": self.store.root,
            "spec": self.spec.payload() if self.spec is not None
            else self.stored_spec,
            "waves": self.waves,
            "schedules_run": (len(self.state.runs)
                              if self.state is not None else
                              (self.result_summary or {}).get(
                                  "schedules", 0)),
            "pending": self.pending_units(),
            "violations": (len(self.state.violations)
                           if self.state is not None else
                           (self.result_summary or {}).get(
                               "violations", 0)),
            "resumed": self.resumed,
            "resumable": self.status in (QUEUED, RUNNING, CANCELLED,
                                         INTERRUPTED, FAILED),
            "wall_budget": self.wall_budget,
            "wave_budget": self.wave_budget,
        }
        if self.error is not None:
            info["error"] = self.error
        if self.result_summary is not None:
            info.update(self.result_summary)
        return info


class CampaignScheduler:
    """Fair-share multi-campaign execution over one resilient pool.

    ``root`` is the service's store root: each campaign lives in
    ``<root>/<campaign_id>/`` as a normal
    :class:`~repro.service.orchestrator.CampaignStore` (plus
    ``campaign.json`` metadata, a ``result.json`` verdict once
    finished, and cut provenance bundles under ``artifacts/``), so any
    daemon-run campaign can equally be finished by hand with
    ``python -m repro resume <root>/<id>``.

    The scheduler is driven either by :meth:`start` (a daemon thread
    running :meth:`_step` in a loop) or synchronously via
    :meth:`run_until_idle` (tests, benchmarks).
    """

    def __init__(self, root: str, *, workers: Optional[int] = None,
                 executor: Optional[ResilientExecutor] = None,
                 max_active: int = 4, max_queued: int = 16,
                 round_capacity: Optional[int] = None,
                 default_wall_budget: Optional[float] = None,
                 default_wave_budget: Optional[int] = None,
                 shard_timeout: Optional[float] = None,
                 stall_after: float = 60.0):
        if max_active < 1:
            raise ValueError("max_active must be >= 1")
        if max_queued < 0:
            raise ValueError("max_queued must be >= 0")
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.pool = executor if executor is not None else \
            ResilientExecutor(workers, shard_timeout=shard_timeout)
        self._owns_pool = executor is None
        self.max_active = max_active
        self.max_queued = max_queued
        # A round admits at least one full pool width per campaign
        # share; the floor keeps tiny pools from serialising waves.
        self.round_capacity = round_capacity if round_capacity \
            else max(2 * self.pool.workers, 8)
        self.default_wall_budget = default_wall_budget
        self.default_wave_budget = default_wave_budget
        self.stall_after = stall_after

        self._lock = threading.RLock()
        self._wakeup = threading.Condition(self._lock)
        self._campaigns: Dict[str, ManagedCampaign] = {}
        self._order: List[str] = []          # admission order
        self._admitted = 0
        self._draining = False
        self._thread: Optional[threading.Thread] = None
        self._heartbeat = time.monotonic()
        self._trees_warm = False             # chunks ran since last idle

    # -- admission ----------------------------------------------------------

    def _queued(self) -> List[ManagedCampaign]:
        return [self._campaigns[cid] for cid in self._order
                if self._campaigns[cid].status == QUEUED]

    def _running(self) -> List[ManagedCampaign]:
        return [self._campaigns[cid] for cid in self._order
                if self._campaigns[cid].status == RUNNING]

    def submit(self, spec: CampaignSpec, *,
               campaign_id: Optional[str] = None,
               wall_budget: Optional[float] = None,
               wave_budget: Optional[int] = None,
               resumed: bool = False,
               _admission_exempt: bool = False) -> str:
        """Admit a campaign; returns its id.

        Re-submitting an existing id is idempotent while the campaign
        is queued, running, or done (the id comes back untouched),
        which is what makes the client's retry-on-connection-error
        loop safe for ``POST``.  Re-submitting a *failed, cancelled or
        interrupted* id instead re-queues it from its checkpoint under
        the submission's budgets — the API verb for "resume with a
        larger budget".  Raises
        :class:`~repro.errors.AdmissionRefused` when draining or when
        the queue is at ``max_queued`` — the backpressure verdict the
        daemon maps to HTTP 429/503.
        """
        _validate_budgets(wall_budget, wave_budget)
        if campaign_id is not None and not _safe_id(campaign_id):
            raise ValueError(
                f"campaign id {campaign_id!r} must be a non-empty "
                f"[A-Za-z0-9._-] token (not all dots)")
        with self._lock:
            existing = self._campaigns.get(campaign_id) \
                if campaign_id is not None else None
            if existing is not None \
                    and existing.status not in (CANCELLED, INTERRUPTED,
                                                FAILED):
                return campaign_id
            if existing is not None and existing.spec is None:
                raise ValueError(
                    f"campaign {campaign_id!r} ran under a spec this "
                    f"version refuses; it stays read-only")
            if self._draining:
                raise AdmissionRefused("service is draining",
                                       retry_after=None)
            waiting = len(self._queued())
            if not _admission_exempt \
                    and waiting >= self.max_queued + self.max_active:
                REGISTRY.inc("service.admission_refused")
                raise AdmissionRefused(
                    f"admission queue full ({waiting} campaign(s) "
                    f"queued, bound {self.max_queued + self.max_active})",
                    retry_after=round(1.0 + 0.5 * waiting, 1))
            if existing is not None:
                # Re-queue from the checkpoint; the submission's
                # budgets are authoritative (None = scheduler default),
                # so a larger budget finishes what the old one cut off.
                existing.status = QUEUED
                existing.driver = None
                existing.error = None
                existing.result_summary = None
                existing.wall_budget = wall_budget \
                    if wall_budget is not None else self.default_wall_budget
                existing.wave_budget = wave_budget \
                    if wave_budget is not None else self.default_wave_budget
                result_path = os.path.join(existing.store.root,
                                           RESULT_FILE)
                if os.path.exists(result_path):
                    os.remove(result_path)
                _write_meta(existing)
                REGISTRY.inc("service.campaigns_requeued")
                _trace.event("service.requeue", campaign=campaign_id)
                self._wakeup.notify_all()
                return campaign_id
            self._admitted += 1
            if campaign_id is None:
                campaign_id = f"c{self._admitted:04d}-" \
                              f"{spec.digest()[:8]}"
            store_root = os.path.join(self.root, campaign_id)
            # Belt-and-braces containment: even a charset-clean id must
            # resolve to a direct child of the store root (a symlink
            # planted at <root>/<id> could otherwise point elsewhere).
            root_real = os.path.realpath(self.root)
            if os.path.dirname(os.path.realpath(store_root)) != root_real:
                raise ValueError(
                    f"campaign id {campaign_id!r} resolves outside "
                    f"the store root")
            store = CampaignStore(store_root)
            campaign = ManagedCampaign(
                campaign_id=campaign_id, spec=spec, store=store,
                admission_index=self._admitted,
                wall_budget=wall_budget if wall_budget is not None
                else self.default_wall_budget,
                wave_budget=wave_budget if wave_budget is not None
                else self.default_wave_budget,
                resumed=resumed)
            _write_meta(campaign)
            self._campaigns[campaign_id] = campaign
            self._order.append(campaign_id)
            REGISTRY.inc("service.campaigns_admitted")
            _trace.event("service.admit", campaign=campaign_id,
                         kind=spec.kind, seed=spec.seed,
                         resumed=resumed)
            self._wakeup.notify_all()
            return campaign_id

    def recover(self) -> List[str]:
        """Re-admit every incomplete campaign found under the root.

        The restart half of crash-safety: a store directory with
        ``campaign.json`` but no ``result.json`` was in flight (or
        queued) when the previous daemon died; its checkpoint — if any
        — is at most one wave chunk behind.  Finished campaigns are
        registered read-only so their status and artifacts stay
        servable, even when their stored spec fails today's checks; an
        incomplete store with such a spec is skipped (counted on
        ``service.recover_skipped``).  Returns the re-admitted ids.
        """
        resumed = []
        for name in sorted(os.listdir(self.root)):
            meta_path = os.path.join(self.root, name, META_FILE)
            if name in self._campaigns or not os.path.exists(meta_path):
                continue
            try:
                with open(meta_path) as fh:
                    meta = json.load(fh)
                payload = meta["spec"]
            except (OSError, ValueError, KeyError, TypeError) as exc:
                _recover_skip(name, exc)
                continue
            try:
                spec, refused = CampaignSpec.from_payload(payload), None
            except ValueError as exc:
                spec, refused = None, exc
            result_path = os.path.join(self.root, name, RESULT_FILE)
            if os.path.exists(result_path):
                # A finished verdict stays servable even when its spec
                # predates today's checks: nothing of it runs again.
                with self._lock:
                    self._admitted += 1
                    campaign = ManagedCampaign(
                        campaign_id=name, spec=spec,
                        store=CampaignStore(os.path.join(self.root,
                                                         name)),
                        admission_index=self._admitted,
                        stored_spec=payload if spec is None else None)
                    try:
                        with open(result_path) as fh:
                            campaign.result_summary = json.load(fh)
                        campaign.status = campaign.result_summary.get(
                            "status", DONE)
                    except (OSError, ValueError):
                        campaign.status = DONE
                    self._campaigns[name] = campaign
                    self._order.append(name)
                continue
            if refused is not None:
                _recover_skip(name, refused)
                continue
            # Recovered campaigns are pre-existing obligations, so they
            # are exempt from the admission bound — a crash must never
            # leave more incomplete stores than a restart can re-admit.
            # Corrupt metadata (bad id, non-numeric budgets persisted
            # by an older daemon) downgrades to a skip, not a failed
            # startup; AdmissionRefused can still surface if recover()
            # races a drain, and is equally non-fatal.
            try:
                self.submit(spec, campaign_id=name,
                            wall_budget=meta.get("wall_budget"),
                            wave_budget=meta.get("wave_budget"),
                            resumed=True, _admission_exempt=True)
            except (ValueError, AdmissionRefused) as exc:
                _recover_skip(name, exc)
                continue
            resumed.append(name)
        if resumed:
            REGISTRY.inc("service.campaigns_recovered", len(resumed))
            _trace.event("service.recover", campaigns=len(resumed))
        return resumed

    # -- introspection ------------------------------------------------------

    def status(self, campaign_id: str) -> Dict:
        with self._lock:
            campaign = self._campaigns.get(campaign_id)
            if campaign is None:
                raise CampaignNotFound(campaign_id)
            return campaign.snapshot()

    def list_campaigns(self) -> List[Dict]:
        with self._lock:
            return [self._campaigns[cid].snapshot()
                    for cid in self._order]

    def artifacts(self, campaign_id: str) -> List[Dict]:
        """The campaign's cut provenance bundles (name + parsed JSON)."""
        with self._lock:
            campaign = self._campaigns.get(campaign_id)
            if campaign is None:
                raise CampaignNotFound(campaign_id)
            directory = os.path.join(campaign.store.root, ARTIFACTS_DIR)
        found = []
        if os.path.isdir(directory):
            for name in sorted(os.listdir(directory)):
                if not name.endswith(".json"):
                    continue
                with open(os.path.join(directory, name)) as fh:
                    found.append({"name": name,
                                  "bundle": json.load(fh)})
        return found

    def health(self) -> Dict:
        """The liveness verdict ``GET /healthz`` serves."""
        with self._lock:
            age = time.monotonic() - self._heartbeat
            running = len(self._running())
            queued = len(self._queued())
            finished = sum(
                1 for c in self._campaigns.values()
                if c.status in (DONE, FAILED, CANCELLED))
            if self._draining:
                verdict = "draining"
            elif (running or queued) and age > self.stall_after \
                    and self._thread is not None:
                verdict = "stalled"
            else:
                verdict = "ok"
            return {"status": verdict,
                    "heartbeat_age": round(age, 3),
                    "draining": self._draining,
                    "active": running, "queued": queued,
                    "finished": finished,
                    "workers": self.pool.workers,
                    "round_capacity": self.round_capacity}

    # -- lifecycle ----------------------------------------------------------

    def cancel(self, campaign_id: str) -> Dict:
        """Cancel a queued or running campaign.

        A running campaign's in-flight chunk still finishes (units are
        not interruptible mid-run) and its checkpoint commits, so a
        cancelled campaign is always cleanly resumable.
        """
        with self._lock:
            campaign = self._campaigns.get(campaign_id)
            if campaign is None:
                raise CampaignNotFound(campaign_id)
            if campaign.status in (QUEUED, RUNNING):
                campaign.status = CANCELLED
                REGISTRY.inc("service.campaigns_cancelled")
                _trace.event("service.cancel", campaign=campaign_id)
            return campaign.snapshot()

    def start(self):
        """Run the scheduling loop on a daemon thread."""
        with self._lock:
            if self._thread is not None:
                return
            self._thread = threading.Thread(target=self._loop,
                                            name="repro-scheduler",
                                            daemon=True)
            self._thread.start()

    def drain(self, timeout: Optional[float] = None) -> Dict[str, Dict]:
        """Graceful shutdown: refuse admissions, finish the in-flight
        round, flush checkpoints, report per-campaign resume state.

        Returns ``{campaign_id: snapshot}`` — still-running campaigns
        come back ``interrupted`` with ``resumable: true``; their last
        wave-boundary checkpoint is already on disk (every chunk
        commits one), so there is nothing further to flush.
        """
        with self._lock:
            self._draining = True
            self._wakeup.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join(timeout)
        with self._lock:
            report = {}
            for cid in self._order:
                campaign = self._campaigns[cid]
                if campaign.status == RUNNING:
                    campaign.status = INTERRUPTED
                campaign.store.close()
                report[cid] = campaign.snapshot()
            self._thread = None
            if self._owns_pool:
                self.pool.close()
            REGISTRY.inc("service.drains")
            _trace.event("service.drain", campaigns=len(report))
            return report

    def stop(self):
        """Hard stop for tests: like drain, but without the report."""
        self.drain(timeout=60.0)

    def run_until_idle(self, max_rounds: int = 100000):
        """Drive rounds synchronously until nothing is runnable."""
        for _ in range(max_rounds):
            if not self._step(block=False):
                return
        raise RuntimeError(f"scheduler still busy after {max_rounds} "
                           f"rounds")

    # -- the scheduling loop ------------------------------------------------

    def _loop(self):
        while True:
            try:
                self._step(block=True)
            except Exception as exc:       # pragma: no cover - last line
                REGISTRY.inc("service.scheduler_errors")
                _trace.event("service.scheduler-error", cause=str(exc))
            with self._lock:
                # A drain exits *after* the round that was in flight
                # when it was requested — its chunks have committed
                # their checkpoints, which is the flush.
                if self._draining:
                    return

    def _step(self, *, block: bool) -> bool:
        """One scheduling round; returns whether work remains."""
        with self._lock:
            self._heartbeat = time.monotonic()
            self._promote()
            active = [c for c in self._running()
                      if not self._over_budget(c)]
            plan = self._plan_round(active) if active else []
            if not active and block and not self._draining:
                self._wakeup.wait(timeout=0.25)
                self._heartbeat = time.monotonic()
        for campaign, wave in plan:
            self._trees_warm = True
            self._run_chunk(campaign, wave)
            with self._lock:
                self._heartbeat = time.monotonic()
        with self._lock:
            busy = self._busy() or bool(plan)
        if not busy and self._trees_warm:
            self._release_trees()
        return busy

    def _busy(self) -> bool:
        """Whether any campaign is running or queued."""
        return bool(self._running() or self._queued())

    def _release_trees(self):
        """Drop the owned pool's snapshot trees once the scheduler goes
        idle, so no finished campaign's nodes stay resident in a
        long-lived daemon.  The workers (and their check memo) stay up
        for the next campaign; a shared pool is its owner's to manage.
        """
        self._trees_warm = False
        if self._owns_pool:
            self.pool.drop_trees()

    def _promote(self):
        """Queued → running while the active bound has room."""
        for campaign in self._queued():
            if len(self._running()) >= self.max_active:
                break
            self._activate(campaign)

    def _activate(self, campaign: ManagedCampaign):
        """Open the campaign's durable driver: load (or start) its
        frontier and warm the memo."""
        try:
            driver = DurableCampaign.open(campaign.spec, campaign.store,
                                          lock=self._lock)
        except CheckpointMismatch as exc:
            # A pre-existing store that belongs to a different spec:
            # refusing is a terminal verdict, not a retry loop.
            campaign.status = FAILED
            campaign.error = str(exc)
            _write_result(campaign)
            REGISTRY.inc("service.checkpoint_mismatches")
            return
        campaign.driver = driver
        campaign.units_executed = len(driver.state.runs)
        campaign.resumed = campaign.resumed or driver.resumed
        campaign.bundles_cut = _existing_bundles(campaign)
        campaign.status = RUNNING
        campaign.started_at = time.monotonic()
        campaign.last_progress = campaign.started_at
        _trace.event("service.activate", campaign=campaign.campaign_id,
                     resumed=driver.resumed)
        if driver.checkpoint_done:
            self._finalize(campaign)

    def _over_budget(self, campaign: ManagedCampaign) -> bool:
        """Fail (typed, resumable) a campaign past either budget."""
        error = None
        if campaign.wave_budget is not None \
                and campaign.waves >= campaign.wave_budget \
                and campaign.pending_units():
            error = CampaignBudgetExceeded(
                campaign.campaign_id, "wave", campaign.wave_budget,
                campaign.waves)
        elif campaign.wall_budget is not None \
                and campaign.started_at is not None:
            spent = time.monotonic() - campaign.started_at
            if spent > campaign.wall_budget:
                error = CampaignBudgetExceeded(
                    campaign.campaign_id, "wall-clock",
                    campaign.wall_budget, round(spent, 3))
        if error is None:
            return False
        campaign.status = FAILED
        campaign.error = str(error)
        REGISTRY.inc("service.budget_exceeded")
        _trace.event("service.budget-exceeded",
                     campaign=campaign.campaign_id, cause=str(error))
        _write_result(campaign)
        return True

    def _plan_round(self, active: List[ManagedCampaign]):
        """The round's (campaign, wave-chunk) list, fairness first.

        Least-served campaigns (fewest units executed, then admission
        order) are planned first and every campaign with pending work
        gets at least one unit — the starvation-freedom invariant.
        Unclaimed share is then stolen by campaigns with deeper queues,
        least-served first.
        """
        order = sorted(active, key=lambda c: (c.units_executed,
                                              c.admission_index))
        share = max(1, self.round_capacity // len(order))
        takes: Dict[str, int] = {}
        spare = 0
        demand: Dict[str, int] = {}
        for campaign in order:
            pending = campaign.pending_units()
            take = min(share, pending)
            takes[campaign.campaign_id] = take
            demand[campaign.campaign_id] = pending - take
            spare += share - take
        stolen = 0
        for campaign in order:            # steal: least-served first
            if spare <= 0:
                break
            extra = min(demand[campaign.campaign_id], spare)
            takes[campaign.campaign_id] += extra
            spare -= extra
            stolen += extra
        if stolen:
            REGISTRY.inc("service.units_stolen", stolen)
        plan = []
        for campaign in order:
            wave = campaign.state.take_wave(
                limit=takes[campaign.campaign_id])
            if wave:
                plan.append((campaign, wave))
            elif campaign.state.done:
                self._finalize(campaign)
        return plan

    def _run_chunk(self, campaign: ManagedCampaign,
                   wave: List) -> None:
        """Run one campaign's chunk through its driver, which commits
        the campaign's checkpoint."""
        with self._lock:
            if campaign.status != RUNNING:
                # Cancelled (or drained) between planning and
                # execution: the popped chunk goes back untouched and
                # the checkpoint records the exact pre-chunk state.
                campaign.driver.put_back(self.pool, wave)
                return
        # Keys are campaign-scoped so fair-share interleaving of
        # campaigns cannot mix their prefix-locality key spaces.
        with _trace.span("service.chunk",
                         campaign=campaign.campaign_id,
                         units=len(wave)):
            try:
                campaign.driver.run_chunk(
                    self.pool, wave,
                    key_prefix=f"{campaign.campaign_id}\x1f")
            except KeyboardInterrupt:
                with self._lock:
                    campaign.status = INTERRUPTED
                raise
        with self._lock:
            campaign.units_executed += len(wave)
            campaign.last_progress = time.monotonic()
            self._cut_bundles(campaign)
            REGISTRY.inc("service.units_executed", len(wave))
            if campaign.state.done:
                self._finalize(campaign)

    def _cut_bundles(self, campaign: ManagedCampaign):
        """Cut provenance bundles for violations that have none yet.

        Indexed by position in the (deterministic) violations list, so
        cutting is idempotent across crashes and resumes.
        """
        from repro.obs.provenance import interleaving_bundle

        violations = campaign.state.violations
        if campaign.bundles_cut >= len(violations):
            return
        directory = os.path.join(campaign.store.root, ARTIFACTS_DIR)
        os.makedirs(directory, exist_ok=True)
        for index in range(campaign.bundles_cut, len(violations)):
            path = os.path.join(directory, f"bundle-{index:04d}.json")
            if not os.path.exists(path):
                interleaving_bundle(
                    violations[index],
                    monitor_cls=campaign.spec.monitor,
                    check_ni=campaign.spec.check_ni,
                    observers=campaign.spec.observers).save(path)
                REGISTRY.inc("service.bundles_cut")
                _trace.event("service.bundle",
                             campaign=campaign.campaign_id,
                             bundle=os.path.basename(path),
                             kind=violations[index].kind)
        campaign.bundles_cut = len(violations)

    def _finalize(self, campaign: ManagedCampaign):
        """Record the finished campaign's verdict durably."""
        if campaign.status not in (RUNNING, QUEUED):
            return
        result = campaign.driver.finish(self.pool)
        campaign.status = DONE
        campaign.result_summary = {
            "status": DONE,
            "ok": result.ok,
            "summary": result.summary(),
            "schedules": result.schedules_run,
            "violations": len(result.violations),
            "truncated": result.truncated,
            "waves": campaign.waves,
            "result_digest": _result_digest(result),
        }
        self._cut_bundles(campaign)
        _write_result(campaign)
        campaign.store.close()
        REGISTRY.inc("service.campaigns_done")
        _trace.event("service.done", campaign=campaign.campaign_id,
                     ok=result.ok, schedules=result.schedules_run,
                     violations=len(result.violations))


def _recover_skip(name: str, cause: Exception):
    REGISTRY.inc("service.recover_skipped")
    _trace.event("service.recover-skip", campaign=name, cause=str(cause))


def _safe_id(campaign_id: str) -> bool:
    if not campaign_id or not all(
            ch.isalnum() or ch in "._-" for ch in campaign_id):
        return False
    # '.' / '..' (any all-dot token) resolves outside the store root.
    return campaign_id.strip(".") != ""


def _validate_budgets(wall_budget, wave_budget):
    """Typed admission check: budgets are positive numbers or absent.

    Submissions arrive over HTTP as arbitrary JSON; a non-numeric
    budget stored raw would make every ``_over_budget`` comparison
    raise and wedge the scheduling loop, so reject it at the door
    (and again in :meth:`CampaignScheduler.recover`, where a bad
    value may already be persisted in ``campaign.json``).
    """
    if wall_budget is not None:
        if isinstance(wall_budget, bool) \
                or not isinstance(wall_budget, (int, float)) \
                or wall_budget <= 0:
            raise ValueError(
                f"wall_budget must be a positive number of seconds, "
                f"got {wall_budget!r}")
    if wave_budget is not None:
        if isinstance(wave_budget, bool) \
                or not isinstance(wave_budget, int) \
                or wave_budget <= 0:
            raise ValueError(
                f"wave_budget must be a positive integer, "
                f"got {wave_budget!r}")


def _write_meta(campaign: ManagedCampaign):
    atomic_write_text(
        os.path.join(campaign.store.root, META_FILE),
        json.dumps({"id": campaign.campaign_id,
                    "spec": campaign.spec.payload(),
                    "wall_budget": campaign.wall_budget,
                    "wave_budget": campaign.wave_budget,
                    "submitted_at": time.time()},
                   indent=2, sort_keys=True) + "\n")


def _write_result(campaign: ManagedCampaign):
    payload = campaign.result_summary or {
        "status": campaign.status,
        "error": campaign.error,
        "waves": campaign.waves,
    }
    atomic_write_text(
        os.path.join(campaign.store.root, RESULT_FILE),
        json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _existing_bundles(campaign: ManagedCampaign) -> int:
    directory = os.path.join(campaign.store.root, ARTIFACTS_DIR)
    if not os.path.isdir(directory):
        return 0
    return sum(1 for name in os.listdir(directory)
               if name.endswith(".json"))
