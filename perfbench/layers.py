"""Per-layer ledger for the benchmark's traced runs.

The program is not edited: :func:`install` wraps public functions of
each layer at the bindings its callers use (class attributes, and every
module attribute a ``from x import f`` created) and records into one
:class:`Ledger`.

Time is kept on one global timeline.  Each wrapper entry or exit is an
event; the interval since the previous event is charged to the
innermost open span of the thread that last held control, or to
``unattributed`` when no span is open.  Every interval lands in exactly
one bucket, so the layers' self times plus ``unattributed_s`` sum to
the traced wall by construction, even though the scheduler hands
hypercalls to pooled fiber threads that park mid-stack (a per-thread
span clock would count a parked fiber's wait twice).

Hot leaves (page walks, PTE reads, word writes) are wrapped count-only,
so wrapper cost stays off the self times they would otherwise swamp.
"""

import fnmatch
import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict

#: Self-time buckets: every timed wrapper charges exactly one of these.
#: Together with ``unattributed`` they partition the traced wall.
BUCKETS = ("explorer", "scheduler", "snapshot", "monitor", "paging",
           "hardware", "state", "invariants", "vcpu", "ni", "fingerprint",
           "faults", "executor", "service")

# (bucket, target, options).  A target is "module:pattern" for module
# functions or "module:Class.pattern" for methods; a method pattern also
# wraps overrides in every loaded subclass.  The first entry matching a
# binding claims it.  Options: ``count`` names the call counter,
# ``outermost`` counts only calls not nested in another call with the
# same counter, ``amount`` maps (args, result) to the counter increment,
# ``inclusive`` names an inclusive-time total (or maps args to a name).
TIMED = [
    ("explorer", "repro.concurrency.explorer:explore_batched", {}),
    ("explorer", "repro.concurrency.explorer:result_violations", {}),
    ("explorer", "repro.concurrency.explorer:FrontierState.start", {}),
    ("explorer", "repro.concurrency.explorer:FrontierState.take_wave", {}),
    ("explorer", "repro.concurrency.explorer:FrontierState.absorb",
     {"count": "explorer.schedules",
      "amount": lambda args, _result: len(args[1])}),
    ("explorer", "repro.concurrency.explorer:FrontierState.result", {}),
    ("scheduler", "repro.concurrency.scheduler:DeterministicScheduler.run",
     {"count": "scheduler.executions"}),
    ("scheduler", "repro.concurrency.arena:Fiber.start", {}),
    ("scheduler", "repro.concurrency.arena:Fiber.resume", {}),
    ("scheduler", "repro.concurrency.scheduler:acquire_locks", {}),
    ("snapshot", "repro.concurrency.snapshot:SnapshotPlan.offer", {}),
    ("snapshot", "repro.concurrency.snapshot:SnapshotTree.lookup", {}),
    ("snapshot", "repro.concurrency.snapshot:SnapshotTree.insert", {}),
    ("snapshot", "repro.concurrency.snapshot:SnapshotTree.record_trace",
     {}),
    ("snapshot", "repro.concurrency.snapshot:SnapshotNode.apply_to", {}),
    ("monitor", "repro.hyperenclave.monitor:RustMonitor.hc_*",
     {"count": "monitor.hypercalls", "outermost": True}),
    ("monitor", "repro.hyperenclave.monitor:RustMonitor.__init__",
     {"count": "faults.world_boots", "outermost": True,
      "inclusive": "faults.boot_s"}),
    ("monitor", "repro.hyperenclave.monitor:RustMonitor.clone", {}),
    ("monitor", "repro.hyperenclave.monitor:RustMonitor.enclave_*", {}),
    ("monitor", "repro.hyperenclave.txn:TxnScope.rollback",
     {"count": "txn.rollbacks"}),
    ("monitor", "repro.hyperenclave.txn:restore",
     {"count": "txn.rollbacks"}),
    ("monitor", "repro.hyperenclave.txn:capture", {}),
    ("monitor", "repro.hyperenclave.txn:monitor_digest", {}),
    ("paging", "repro.hyperenclave.paging:PageTable.translate", {}),
    ("paging", "repro.hyperenclave.paging:PageTable.map_page", {}),
    ("paging", "repro.hyperenclave.paging:PageTable.map_huge", {}),
    ("paging", "repro.hyperenclave.paging:PageTable.unmap", {}),
    ("paging", "repro.hyperenclave.paging:PageTable.query", {}),
    ("paging", "repro.hyperenclave.paging:PageTable.mappings", {}),
    ("paging", "repro.hyperenclave.paging:PageTable.table_frames", {}),
    ("paging", "repro.hyperenclave.paging:two_stage_translate", {}),
    ("hardware", "repro.hyperenclave.hardware:PhysMemory.zero_frame",
     {"count": "hardware.frames_zeroed"}),
    ("hardware", "repro.hyperenclave.hardware:PhysMemory.copy_frame",
     {"count": "hardware.frames_copied"}),
    ("hardware", "repro.hyperenclave.hardware:PhysMemory.fill_frame", {}),
    ("hardware", "repro.hyperenclave.hardware:PhysMemory.frame_digests",
     {}),
    ("hardware", "repro.hyperenclave.hardware:PhysMemory.apply_undo", {}),
    ("hardware", "repro.hyperenclave.hardware:PhysMemory.snapshot", {}),
    ("state", "repro.security.state:SystemState.clone",
     {"count": "state.clones"}),
    ("vcpu", "repro.security.invariants:check_vcpu_consistency", {}),
    ("vcpu", "repro.engine.memo:CheckMemo.check_vcpu", {}),
    ("invariants", "repro.security.invariants:check_*",
     {"count": "invariants.calls", "outermost": True}),
    ("invariants", "repro.security.invariants:enclave_translations", {}),
    ("invariants", "repro.security.invariants:host_reachable_hpas", {}),
    ("invariants", "repro.engine.memo:CheckMemo.check_invariants",
     {"count": "invariants.calls", "outermost": True}),
    ("ni", "repro.security.noninterference:check_*",
     {"count": "ni.checks", "outermost": True}),
    ("ni", "repro.security.noninterference:indistinguishable", {}),
    ("ni", "repro.security.noninterference:observation_diff", {}),
    ("ni", "repro.security.noninterference:TwoWorlds.apply", {}),
    ("ni", "repro.security.observation:observe", {}),
    ("ni", "repro.engine.memo:CheckMemo.observation_digest", {}),
    ("ni", "repro.engine.memo:CheckMemo.final_state_diff", {}),
    ("fingerprint", "repro.engine.fingerprint:structure_fingerprints",
     {"count": "fingerprint.calls"}),
    ("fingerprint", "repro.engine.fingerprint:state_fingerprint", {}),
    ("fingerprint", "repro.engine.fingerprint:fingerprint", {}),
    ("fingerprint", "repro.engine.fingerprint:dirty_structures", {}),
    ("faults", "repro.faults.campaign:run_crash_step_unit",
     {"count": "faults.runs"}),
    ("faults", "repro.faults.campaign:run_crash_ni_index",
     {"count": "faults.runs",
      "amount": lambda _args, result: len(result)}),
    ("faults", "repro.faults.campaign:crash_point_record",
     {"count": "faults.runs"}),
    ("faults", "repro.faults.campaign:bitflip_campaign",
     {"count": "faults.runs"}),
    ("faults", "repro.faults.campaign:crash_step_units", {}),
    ("faults", "repro.faults.campaign:build_interleaved_world", {}),
    ("faults", "repro.faults.campaign:execute_interleaved", {}),
    ("faults", "repro.faults.campaign:execute_interleaved_cached", {}),
    ("faults", "repro.engine.bug_matrix:run_case",
     {"count": "matrix.convicted",
      "amount": lambda _args, result: int(bool(result[1])),
      "inclusive": lambda args: "matrix.%s_s" % MATRIX_CLASSES[
          _matrix_detector(args[0])]}),
    ("executor", "repro.engine.executor:ShardedExecutor.map",
     {"count": "executor.units", "outermost": True,
      "amount": lambda args, _result: len(args[2])}),
    ("executor", "repro.engine.workers:run_*_unit", {}),
    ("service", "repro.service.daemon:CheckingDaemon.handle", {}),
    # Not the scheduler's _step: it parks in a condition wait when idle,
    # and idle time is not service work.
    ("service", "repro.service.scheduler:CampaignScheduler._activate", {}),
    ("service", "repro.service.scheduler:CampaignScheduler._plan_round",
     {}),
    ("service", "repro.service.scheduler:CampaignScheduler._run_chunk", {}),
    ("service", "repro.service.scheduler:CampaignScheduler.submit", {}),
    ("service",
     "repro.service.orchestrator:CampaignStore.*_checkpoint", {}),
]

# (counter, target, predicate on the result or None).  Decisions made
# inline by a running vCPU are the registry's ``sched.inline_decisions``.
COUNTED = [
    ("paging.walks", "repro.hyperenclave.paging:PageTable.walk", None),
    ("paging.walks", "repro.hyperenclave.paging:guest_walk", None),
    ("paging.pte_reads", "repro.hyperenclave.paging:PageTable.read_entry",
     None),
    ("hardware.words_written",
     "repro.hyperenclave.hardware:PhysMemory.write_word", None),
    ("scheduler.decisions",
     "repro.concurrency.scheduler:DeterministicScheduler._loop_decide",
     lambda chosen: chosen is not None),
]

# Matrix rows by the detector class that convicts them (inclusive time).
MATRIX_CLASSES = {"detect_invariant_bug": "invariant",
                  "detect_shallow_copy": "invariant",
                  "detect_ni_bug": "ni",
                  "detect_no_rollback": "rollback",
                  "detect_concurrency_bug": "concurrency"}


def _matrix_detector(index) -> str:
    from repro.engine.bug_matrix import MATRIX
    return MATRIX[index][1].__name__


class Ledger:
    """Counts, self time per bucket and inclusive totals of one run."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)    # bucket (None: unattributed)
        self.inclusive_s = defaultdict(float)
        self._lock = threading.Lock()
        self._stacks = {}                   # thread id -> [(bucket, seq)]
        self._seq = 0
        self._current = None
        self._last = time.perf_counter()
        self.started = self._last
        self.stopped = None
        self._depth = threading.local()

    def start(self):
        """Open the measured window (discards anything charged before)."""
        with self._lock:
            self.self_s.clear()
            self.inclusive_s.clear()
            self.counts.clear()
            self._last = self.started = time.perf_counter()

    def stop(self) -> float:
        """Close the window; returns its length (the traced wall)."""
        with self._lock:
            now = time.perf_counter()
            self.self_s[self._current] += now - self._last
            self._last = self.stopped = now
        return self.stopped - self.started

    def _charge(self, now):
        self.self_s[self._current] += now - self._last
        self._last = now

    def enter(self, bucket) -> float:
        with self._lock:
            now = time.perf_counter()
            self._charge(now)
            self._seq += 1
            self._stacks.setdefault(threading.get_ident(), []).append(
                (bucket, self._seq))
            self._current = bucket
        return now

    def exit(self, started, inclusive=None, count=None, amount=0):
        with self._lock:
            now = time.perf_counter()
            self._charge(now)
            ident = threading.get_ident()
            stack = self._stacks[ident]
            stack.pop()
            if stack:
                self._current = stack[-1][0]
            else:
                del self._stacks[ident]     # HTTP threads come and go
                # Control goes back to whichever thread opened a span
                # most recently: the loop waiting on this fiber, or the
                # scheduler thread an HTTP handler interrupted.
                tops = [s[-1] for s in self._stacks.values() if s]
                self._current = max(tops, key=lambda top: top[1])[0] \
                    if tops else None
            if inclusive is not None:
                self.inclusive_s[inclusive] += now - started
            if count is not None:
                self.counts[count] += amount

    def add(self, count, amount=1):
        with self._lock:
            self.counts[count] += amount

    def nesting(self, key, delta) -> int:
        """Per-thread nesting depth of ``key`` after adding ``delta``."""
        depth = getattr(self._depth, key, 0) + delta
        setattr(self._depth, key, depth)
        return depth


def _timed(ledger, fn, bucket, count=None, outermost=False, amount=None,
           inclusive=None):
    if inspect.isgeneratorfunction(fn):
        raise TypeError(f"{fn.__qualname__} is a generator function; a "
                        f"span around it would time only its creation")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counted = count is not None and (
            not outermost or ledger.nesting(count, 1) == 1)
        label = inclusive(args) if callable(inclusive) else inclusive
        if outermost and not counted:
            label = None
        started = ledger.enter(bucket)
        increment = 1 if amount is None else 0
        try:
            result = fn(*args, **kwargs)
            if amount is not None:
                increment = amount(args, result)
            return result
        finally:
            if outermost and count is not None:
                ledger.nesting(count, -1)
            ledger.exit(started, label, count if counted else None,
                        increment)
    return wrapper


def _counted(ledger, fn, count, predicate):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if predicate is None or predicate(result):
            ledger.add(count)
        return result
    return wrapper


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _targets(target):
    """Resolve a target to ``[(owner, attribute name, function)]``."""
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    if "." not in path:
        return [(module, name, getattr(module, name))
                for name in sorted(vars(module))
                if fnmatch.fnmatchcase(name, path)
                and inspect.isfunction(getattr(module, name))
                and getattr(module, name).__module__ == module_name]
    class_name, _, pattern = path.partition(".")
    root = getattr(module, class_name)
    found = []
    for cls in [root, *_subclasses(root)]:
        for name, value in sorted(vars(cls).items()):
            if fnmatch.fnmatchcase(name, pattern) and (
                    inspect.isfunction(value)
                    or isinstance(value, classmethod)):
                found.append((cls, name, value))
    return found


def install(ledger: Ledger):
    """Wrap every target, and rebind every module-level copy."""
    for module in ("repro.engine.campaigns", "repro.engine.bug_matrix",
                   "repro.engine.workers", "repro.hyperenclave.buggy",
                   "repro.service.daemon", "repro.service.client"):
        importlib.import_module(module)
    replaced = {}
    claimed = set()
    plan = [(target, lambda fn, b=bucket, o=options:
             _timed(ledger, fn, b, **o))
            for bucket, target, options in TIMED]
    plan += [(target, lambda fn, c=count, p=predicate:
              _counted(ledger, fn, c, p))
             for count, target, predicate in COUNTED]
    for target, make in plan:
        for owner, name, value in _targets(target):
            if (id(owner), name) in claimed:
                continue
            claimed.add((id(owner), name))
            if isinstance(value, classmethod):
                wrapped = classmethod(make(value.__func__))
            else:
                wrapped = make(value)
            setattr(owner, name, wrapped)
            if inspect.ismodule(owner):
                replaced[id(value)] = (value, wrapped)
    # Rebind every `from x import f` copy in the already-loaded modules;
    # modules imported later read the wrapped attribute themselves.
    for module in list(sys.modules.values()):
        if module is None or not module.__name__.startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            pair = replaced.get(id(value))
            if pair is not None and pair[0] is value:
                setattr(module, name, pair[1])


def self_time_metric(bucket) -> str:
    """The metric name of a bucket's self time (only clones are timed
    in the state layer, hence ``state.clone_s``)."""
    return "state.clone_s" if bucket == "state" else f"{bucket}.self_s"


def per_layer(ledger: Ledger, wall: float):
    """The ledger as ``{metric name: value}``: counts, self times per
    bucket, ``unattributed_s`` and the inclusive totals."""
    metrics = dict(ledger.counts)
    for bucket in BUCKETS:
        metrics[self_time_metric(bucket)] = ledger.self_s.get(bucket, 0.0)
    metrics["unattributed_s"] = ledger.self_s.get(None, 0.0)
    metrics.update(ledger.inclusive_s)
    metrics["traced_wall_s"] = wall
    return metrics
