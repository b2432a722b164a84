"""Crash-consistent hypercalls: snapshot-rollback transactions.

The paper's Sec. 5.2 claim quantifies over *every* hypercall — including
the ones that die halfway through.  ``hc_add_page`` is five mutations
long (EPCM allocate, frame copy, GPT map, EPT map, measure); if the
frame pool runs dry between the GPT map and the EPT map, the naive
monitor leaves a mapping with no backing translation and an EPCM entry
nothing points at.  The :func:`transactional` decorator makes every
hypercall atomic: capture a checkpoint on entry, and on *any* failure —
validation, resource exhaustion, or an injected fault — restore the
checkpoint before re-raising, so the observable state machine only ever
moves in whole hypercalls.

Two rollback strategies, same contract:

* **Sequential** (no scheduler installed): a full value snapshot of
  everything a hypercall can touch — physical memory (which
  transitively holds every page table), the allocator bitmap, the EPCM
  array, the per-enclave metadata, every vCPU, and the monitor's
  scalars.  Cheap on the simulated machine.
* **Concurrent** (running as a scheduled vCPU task): a whole-monitor
  snapshot would capture — and on rollback clobber — *other vCPUs'*
  in-flight writes.  Instead each task keeps a :class:`TxnScope`: a
  first-write-wins undo journal of physical words (fed by the
  ``phys.write`` hooks), lazy snapshots of each lock-guarded structure
  taken at acquire time (2PL guarantees nobody else touches it until
  release), and a capture of the task's own CPU-local state.  Rolling
  back undoes exactly the aborted vCPU's footprint.  Remote TLB flushes
  already sent by a shootdown are deliberately not undone — flushing a
  cache is always safe, and real IPIs cannot be recalled.

Restoration runs with the fault plane and the scheduler hooks
suspended: rolling back must not itself trip a ``phys.write`` injection
or hand the CPU away mid-undo.
"""

import functools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.concurrency import scheduler as conc
from repro.errors import (
    FaultInjected,
    HypercallAborted,
    HypercallError,
    HypervisorError,
)
from repro.faults import plane as faults


@dataclass
class MonitorCheckpoint:
    """A full value snapshot of the mutable monitor state."""

    phys: Dict[int, int]
    allocator: Tuple[bool, ...]
    epcm: Tuple
    enclaves: Dict[int, object]                  # eid -> Enclave (by ref)
    enclave_meta: Dict[int, Tuple]               # eid -> mutable fields
    next_eid: int
    cpus: Tuple                                  # CpuLocal.snapshot() each


def capture(monitor) -> MonitorCheckpoint:
    """Checkpoint everything a hypercall may mutate."""
    return MonitorCheckpoint(
        phys=monitor.phys.checkpoint(),
        allocator=monitor.pt_allocator.snapshot(),
        epcm=monitor.epcm.snapshot(),
        enclaves=dict(monitor.enclaves),
        enclave_meta={
            eid: (enclave.state, enclave.saved_context,
                  enclave.measurement)
            for eid, enclave in monitor.enclaves.items()},
        next_eid=monitor._next_eid,
        cpus=tuple(cpu.snapshot() for cpu in monitor.cpus),
    )


def restore(monitor, checkpoint: MonitorCheckpoint):
    """Rewind the monitor to ``checkpoint`` (undoes partial hypercalls)."""
    monitor.phys.restore_checkpoint(checkpoint.phys)
    monitor.pt_allocator.load_snapshot(checkpoint.allocator)
    monitor.epcm.load_snapshot(checkpoint.epcm)
    monitor.enclaves.clear()
    monitor.enclaves.update(checkpoint.enclaves)
    for eid, (state, saved_context, measurement) in \
            checkpoint.enclave_meta.items():
        enclave = monitor.enclaves[eid]
        enclave.state = state
        enclave.saved_context = saved_context
        enclave.measurement = measurement
    monitor._next_eid = checkpoint.next_eid
    for cpu, snapshot in zip(monitor.cpus, checkpoint.cpus):
        cpu.load_snapshot(snapshot)


def monitor_digest(monitor) -> Tuple:
    """A comparable value of the security-relevant monitor state.

    Two monitors with equal digests are indistinguishable to every
    invariant checker and to every observation function: physical
    memory (hence all page tables), allocator bitmap, EPCM, enclave
    metadata, scheduling scalars, and every vCPU with its live TLB
    entries.  The TLB *flush counts* are deliberately excluded — they
    are telemetry, not state.
    """
    return (
        monitor.phys.snapshot(),
        monitor.pt_allocator.snapshot(),
        monitor.epcm.snapshot(),
        tuple(sorted(
            (eid, enclave.state.value, enclave.measurement,
             enclave.saved_context, enclave.gpt.root_frame,
             enclave.ept.root_frame)
            for eid, enclave in monitor.enclaves.items())),
        monitor._next_eid,
        tuple((cpu.active, cpu.saved_host_context, cpu.vcpu.context(),
               cpu.vcpu.gpt_root, cpu.vcpu.ept_root,
               cpu.tlb.snapshot()[0])
              for cpu in monitor.cpus),
    )


# ---------------------------------------------------------------------------
# Concurrent rollback: the per-task undo scope
# ---------------------------------------------------------------------------

_MISSING = object()  # enclave lock taken for an eid that did not exist


@dataclass
class TxnScope:
    """The undo footprint of one in-flight concurrent hypercall.

    * ``journal`` — physical words overwritten by *this* task, first
      write wins.  ``PhysMemory`` writes into it directly through
      :func:`repro.concurrency.scheduler.phys_journal` (per word for
      ``write_word``, resolved once per frame for ``zero_frame`` and
      ``copy_frame``).  Covers every page-table entry, frame copy, and
      scrub, because all tables live in physical memory.
    * ``structures`` — value snapshots of each lock-guarded structure,
      taken lazily when the lock is acquired.  Under strict 2PL no
      other task can have mutated a structure between acquire and
      abort, so restoring the acquire-time snapshot is exact.
    * ``cpu`` — the task's own CPU-local capture from hypercall entry.
    """

    vid: int
    cpu: Tuple
    journal: Dict[int, int] = field(default_factory=dict)
    structures: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def begin(cls, monitor, vid) -> "TxnScope":
        return cls(vid=vid, cpu=monitor.cpus[vid].snapshot())

    def snapshot_structure(self, monitor, lock_name):
        """Capture the acquire-time value of one lock-guarded structure
        (idempotent — the first capture per lock wins)."""
        if lock_name in self.structures:
            return
        if lock_name == "frames":
            value = monitor.pt_allocator.snapshot()
        elif lock_name == "epcm":
            value = monitor.epcm.snapshot()
        elif lock_name == "enclaves":
            value = (dict(monitor.enclaves), monitor._next_eid)
        elif lock_name.startswith("enclave:"):
            eid = int(lock_name.split(":", 1)[1])
            enclave = monitor.enclaves.get(eid)
            if enclave is None:
                value = _MISSING
            else:
                value = (enclave, enclave.state, enclave.saved_context,
                         enclave.measurement)
        else:
            raise HypervisorError(f"no snapshot rule for lock {lock_name!r}")
        self.structures[lock_name] = value

    def rollback(self, monitor):
        """Undo this task's footprint; leaves other vCPUs' work alone."""
        with conc.suspended(), faults.suspended():
            monitor.phys.apply_undo(self.journal)
            for lock_name, value in self.structures.items():
                if value is _MISSING:
                    continue
                if lock_name == "frames":
                    monitor.pt_allocator.load_snapshot(value)
                elif lock_name == "epcm":
                    monitor.epcm.load_snapshot(value)
                elif lock_name == "enclaves":
                    enclaves, next_eid = value
                    monitor.enclaves.clear()
                    monitor.enclaves.update(enclaves)
                    monitor._next_eid = next_eid
                else:
                    enclave, state, saved_context, measurement = value
                    enclave.state = state
                    enclave.saved_context = saved_context
                    enclave.measurement = measurement
            monitor.cpus[self.vid].load_snapshot(self.cpu)


def _run_concurrent(fn, monitor, args, kwargs, task):
    """The scheduled-vCPU flavour of a transactional hypercall."""
    scope = TxnScope.begin(monitor, task.vid)
    task.txn_scope = scope
    try:
        return fn(monitor, *args, **kwargs)
    except HypercallError:
        scope.rollback(monitor)
        raise
    except (FaultInjected, HypervisorError) as exc:
        scope.rollback(monitor)
        raise HypercallAborted(fn.__name__, exc) from exc
    finally:
        task.txn_scope = None
        # Strict 2PL exit: drop every lock, yield the hc.return point,
        # and self-check rule 2.  This runs on the abort path too —
        # including a vCPU crash, whose park is delivered *at* that
        # yield, after the locks are gone: a crashed vCPU can strand
        # work, never locks.
        conc.release_locks(fn.__name__)


def transactional(fn):
    """Make one hypercall atomic: any failure rolls back, then re-raises.

    * Validation rejections (:class:`HypercallError`) re-raise as-is —
      the rollback is a no-op for them, but running it anyway means the
      guarantee does not depend on validations preceding mutations.
    * Mid-sequence failures (injected faults, exhausted allocators, any
      other hypervisor error) re-raise as the typed
      :class:`HypercallAborted`, chaining the cause.

    On a scheduled vCPU task the journal-based :class:`TxnScope` path
    is used instead of the whole-monitor snapshot; see the module
    docstring for why.

    The undecorated body stays reachable as ``__wrapped__`` — the
    deliberately broken ``NonTransactionalMonitor`` uses it, and the
    fault campaign demonstrates that variant violating rollback.
    """

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        task = conc.current_task()
        if task is not None:
            return _run_concurrent(fn, self, args, kwargs, task)
        checkpoint = capture(self)
        try:
            return fn(self, *args, **kwargs)
        except HypercallError:
            with faults.suspended():
                restore(self, checkpoint)
            raise
        except (FaultInjected, HypervisorError) as exc:
            with faults.suspended():
                restore(self, checkpoint)
            raise HypercallAborted(fn.__name__, exc) from exc

    return wrapper
