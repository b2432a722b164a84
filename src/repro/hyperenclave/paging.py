"""Multi-level page tables — layers 3-9 of the stack.

:class:`PageTable` implements the monitor-managed tables (all EPTs and
the enclaves' GPTs, Sec. 2.1): walking, mapping with on-demand
intermediate-table allocation, unmapping, querying, and translation.
Table frames live in the secure page-table pool and the walker reads
physical memory directly (host-physical space).

The *primary OS* GPT is different: it is a guest-owned data structure in
untrusted memory whose every table access is itself translated through
the EPT — :func:`guest_walk` models that hardware walker faithfully,
which is exactly what makes OS-side page-table ("mapping") attacks
expressible and lets the invariants of Sec. 5.2 rule them out.

Terminology: ``va`` is the input address of whatever space the table
translates (GVA for GPTs, GPA for EPTs); entries hold output-space
addresses.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.concurrency import scheduler as conc
from repro.errors import PagingError, ReproError, TranslationFault
from repro.faults import plane as faults
from repro.hyperenclave import pte
from repro.hyperenclave.constants import WORD_BYTES


@dataclass(frozen=True)
class WalkStep:
    """One visited entry during a walk."""

    level: int
    table_frame: int
    index: int
    entry: int


@dataclass(frozen=True)
class WalkResult:
    """Outcome of walking a VA: the visited spine and the terminal entry.

    ``terminal`` is None when the walk ended at a non-present entry;
    ``huge_level`` is the level of a huge-page terminal (1 for a normal
    4K-style leaf).
    """

    va: int
    steps: Tuple[WalkStep, ...]
    terminal: Optional[int]
    huge_level: int = 1

    @property
    def complete(self):
        return self.terminal is not None


class PageTable:
    """A monitor-managed multi-level page table."""

    def __init__(self, config, phys, allocator, root_frame=None,
                 allow_huge=False, name=""):
        self.config = config
        self.phys = phys
        self.allocator = allocator
        self.allow_huge = allow_huge
        self.name = name
        # Lock discipline: when set (to a lock name), every structural
        # mutation of this table must run under that lock.  hc_create
        # publishes the owning enclave's lock here.
        self.owner_lock = None
        if root_frame is None:
            root_frame = allocator.alloc()
            phys.zero_frame(root_frame)
        self.root_frame = root_frame

    def clone(self, phys, allocator):
        """Rebind this table onto cloned backing stores.

        A page table owns no state of its own beyond the root frame and
        the lock name — the entries live in physical memory — so a clone
        is the same descriptor wired to the *cloned* ``phys`` and
        ``allocator`` (the caller clones those first).
        """
        new = object.__new__(type(self))
        new.config = self.config
        new.phys = phys
        new.allocator = allocator
        new.allow_huge = self.allow_huge
        new.name = self.name
        new.owner_lock = self.owner_lock
        new.root_frame = self.root_frame
        return new

    # -- entry IO (layer 3: the trusted load/store pair) --------------------------

    def entry_paddr(self, table_frame, index):
        return self.config.frame_base(table_frame) + index * WORD_BYTES

    def read_entry(self, table_frame, index):
        return self.phys.read_word(self.entry_paddr(table_frame, index))

    def write_entry(self, table_frame, index, entry):
        self.phys.write_word(self.entry_paddr(table_frame, index), entry)

    # -- walking (layers 4-5) ---------------------------------------------------------

    def walk(self, va) -> WalkResult:
        """Follow the tables from the root; stop at the first non-present
        entry, a huge leaf, or the level-1 terminal."""
        va = self.config.canonical_va(va)
        spec = self.config.arch
        steps = []
        frame = self.root_frame
        for level in range(self.config.levels, 0, -1):
            index = self.config.entry_index(va, level)
            entry = self.read_entry(frame, index)
            steps.append(WalkStep(level, frame, index, entry))
            if not spec.is_present(entry):
                return WalkResult(va, tuple(steps), None)
            if level == 1:
                # VMSAv8: bits[1:0] == 0b01 at level 1 is reserved.
                if not spec.is_leaf_valid(entry):
                    return WalkResult(va, tuple(steps), None)
                return WalkResult(va, tuple(steps), entry, huge_level=1)
            if spec.is_block(entry, level):
                return WalkResult(va, tuple(steps), entry, huge_level=level)
            frame = pte.pte_frame(entry, self.config)
        raise PagingError("walk fell off the table hierarchy")  # unreachable

    def _get_or_create_table(self, frame, level, va, created=None):
        """Layer 6: follow one level, allocating a zeroed intermediate
        table when the entry is empty.

        ``created`` (when given) records ``(parent_frame, index,
        new_frame)`` for every table allocated here, so a failing
        caller can unwind them instead of leaking pool frames.
        """
        index = self.config.entry_index(va, level)
        entry = self.read_entry(frame, index)
        spec = self.config.arch
        if spec.is_present(entry):
            if spec.is_block(entry, level):
                raise PagingError(
                    f"{self.name}: huge page at level {level} blocks "
                    f"mapping va={va:#x}")
            return pte.pte_frame(entry, self.config)
        new_frame = self.allocator.alloc()
        # Record before the parent-entry write: if that write faults,
        # the frame is already allocated and must be unwound too.
        if created is not None:
            created.append((frame, index, new_frame))
        self.phys.zero_frame(new_frame)
        new_entry = pte.pte_new(self.config.frame_base(new_frame),
                                spec.table_flags(), self.config)
        self.write_entry(frame, index, new_entry)
        return new_frame

    def _unwind_created(self, created):
        """Give back intermediate tables allocated by a failed mapping.

        Unwinds in reverse (children before parents): clear the parent
        entry, scrub the frame, return it to the pool.  Runs with the
        fault plane suspended — recovery must not itself be faultable,
        or a ``phys.write`` injection could make the leak unfixable.
        """
        with faults.suspended():
            for parent_frame, index, new_frame in reversed(created):
                self.write_entry(parent_frame, index, pte.pte_empty())
                self.phys.zero_frame(new_frame)
                self.allocator.dealloc(new_frame)

    # -- mapping (layer 7) -----------------------------------------------------------------

    def map_page(self, va, paddr, flags):
        """Install a level-1 mapping ``va -> paddr`` with ``flags``.

        Atomic in the frame pool: if any step fails after intermediate
        tables were allocated (pool exhaustion deeper in the walk, a
        present terminal, an injected write fault), those tables are
        unwound before the error propagates — a failed ``map_page``
        never consumes frames.
        """
        if self.owner_lock is not None:
            conc.guard_mutation(self.owner_lock)
        va = self.config.canonical_va(va)
        if self.config.page_offset(va) or self.config.page_offset(paddr):
            raise PagingError(
                f"{self.name}: unaligned mapping {va:#x} -> {paddr:#x}")
        created = []
        try:
            frame = self.root_frame
            for level in range(self.config.levels, 1, -1):
                frame = self._get_or_create_table(frame, level, va,
                                                  created)
            index = self.config.entry_index(va, 1)
            existing = self.read_entry(frame, index)
            if self.config.arch.is_present(existing):
                raise PagingError(
                    f"{self.name}: va {va:#x} is already mapped")
            self.write_entry(frame, index,
                             pte.pte_new(paddr, flags, self.config))
        except ReproError:
            self._unwind_created(created)
            raise

    def map_huge(self, va, paddr, level, flags):
        """Install a block mapping covering ``level_span(level)`` bytes.

        ``level`` must be one of the architecture's supported block
        levels (2 MiB / 1 GiB equivalents).  The old check accepted any
        ``2 <= level <= config.levels``, silently permitting root-level
        blocks (512 GiB on x86-64) that no supported architecture has.
        """
        if self.owner_lock is not None:
            conc.guard_mutation(self.owner_lock)
        if not self.allow_huge:
            raise PagingError(f"{self.name}: huge pages are not allowed")
        if level not in self.config.arch.block_levels:
            raise PagingError(
                f"level {level} is not a supported block level on "
                f"{self.config.arch.name} "
                f"(supported: {self.config.arch.block_levels})")
        va = self.config.canonical_va(va)
        span = self.config.level_span(level)
        if va % span or paddr % span:
            raise PagingError(
                f"{self.name}: huge mapping must be {span:#x}-aligned")
        created = []
        try:
            frame = self.root_frame
            for walk_level in range(self.config.levels, level, -1):
                frame = self._get_or_create_table(frame, walk_level, va,
                                                  created)
            index = self.config.entry_index(va, level)
            existing = self.read_entry(frame, index)
            spec = self.config.arch
            if spec.is_present(existing):
                raise PagingError(
                    f"{self.name}: va {va:#x} is already mapped")
            self.write_entry(
                frame, index,
                pte.pte_new(paddr, spec.to_block(flags | spec.leaf_flags()),
                            self.config))
        except ReproError:
            self._unwind_created(created)
            raise

    def unmap(self, va):
        """Remove the terminal mapping covering ``va``.

        Intermediate tables are left in place (HyperEnclave does not
        reclaim them during an enclave's lifetime; the whole tree is
        reclaimed on enclave destruction).
        """
        if self.owner_lock is not None:
            conc.guard_mutation(self.owner_lock)
        result = self.walk(va)
        if not result.complete:
            raise PagingError(f"{self.name}: va {va:#x} is not mapped")
        last = result.steps[-1]
        self.write_entry(last.table_frame, last.index, pte.pte_empty())

    # -- queries (layer 8) --------------------------------------------------------------------

    def query(self, va) -> Optional[Tuple[int, int]]:
        """``(paddr, flags)`` for the page containing ``va``, or None."""
        result = self.walk(va)
        if not result.complete:
            return None
        return (pte.pte_addr(result.terminal, self.config),
                pte.pte_flags(result.terminal, self.config))

    def translate(self, va, write=False, user=True) -> int:
        """Translate a byte address, enforcing the architecture's
        permission semantics: the hierarchical rule at every
        intermediate level (x86 ANDs W/U across levels; VMSAv8 uses
        APTable) plus the leaf's W/U bits and access flag."""
        return self.resolve(self.walk(va), write=write, user=user)

    def resolve(self, result, write=False, user=True) -> int:
        """The byte address a finished :meth:`walk` translates to, under
        :meth:`translate`'s permission semantics (raises the same
        :class:`TranslationFault`).  For callers that also need the
        walk's spine, so one walk serves both."""
        va = result.va
        spec = self.config.arch
        if not result.complete:
            raise TranslationFault(
                f"{self.name}: no mapping for {va:#x}", va=va)
        for step in result.steps[:-1]:
            if write and not spec.table_allows_write(step.entry):
                raise TranslationFault(
                    f"{self.name}: write denied at level {step.level} "
                    f"for {va:#x}", va=va)
            if user and not spec.table_allows_user(step.entry):
                raise TranslationFault(
                    f"{self.name}: user access denied at level "
                    f"{step.level} for {va:#x}", va=va)
        entry = result.terminal
        if write and not spec.is_writable(entry):
            raise TranslationFault(
                f"{self.name}: write to read-only page at {va:#x}", va=va)
        if user and not spec.is_user(entry):
            raise TranslationFault(
                f"{self.name}: user access to supervisor page {va:#x}",
                va=va)
        if not spec.access_allowed(entry):
            raise TranslationFault(
                f"{self.name}: access flag clear for {va:#x}", va=va)
        span = self.config.level_span(result.huge_level)
        base = pte.pte_addr(entry, self.config)
        return base + (va % span)

    # -- whole-table views (used by invariants and figures) ----------------------------------------

    def mappings(self) -> List[Tuple[int, int, int, int]]:
        """All terminal mappings as ``(va, paddr, size, flags)``."""
        found = []
        self._collect(self.root_frame, self.config.levels, 0, found)
        return found

    def _collect(self, frame, level, va_prefix, found):
        span = self.config.level_span(level)
        spec = self.config.arch
        for index in range(self.config.entries_per_table):
            entry = self.read_entry(frame, index)
            if not spec.is_present(entry):
                continue
            va = va_prefix + index * span
            if level == 1:
                if spec.is_leaf_valid(entry):
                    found.append((va, pte.pte_addr(entry, self.config),
                                  span, pte.pte_flags(entry, self.config)))
            elif spec.is_block(entry, level):
                found.append((va, pte.pte_addr(entry, self.config),
                              span, pte.pte_flags(entry, self.config)))
            else:
                self._collect(pte.pte_frame(entry, self.config),
                              level - 1, va, found)

    def table_frames(self) -> List[int]:
        """Every frame used by this table's structure (root included)."""
        frames = []
        self._collect_frames(self.root_frame, self.config.levels, frames)
        return frames

    def _collect_frames(self, frame, level, frames):
        frames.append(frame)
        if level == 1:
            return
        spec = self.config.arch
        for index in range(self.config.entries_per_table):
            entry = self.read_entry(frame, index)
            if spec.is_present(entry) and not spec.is_block(entry, level):
                self._collect_frames(pte.pte_frame(entry, self.config),
                                     level - 1, frames)


# ---------------------------------------------------------------------------
# The hardware walker for guest-owned tables
# ---------------------------------------------------------------------------


def guest_walk(config, phys, ept, gpt_root_gpa, va, write=False,
               user=True):
    """Walk a guest-owned GPT whose structures live in guest memory.

    Every table access is a guest-physical access translated through
    ``ept`` first — the faithful nested-paging behaviour.  The terminal
    GPT entry yields a GPA which is translated through the EPT again.
    Raises :class:`TranslationFault` tagged with the failing stage.

    Permission checks follow the architecture's hierarchical rule at
    intermediate levels for *both* W and U (the old walker enforced W at
    every level but never U — asymmetric with x86's AND-across-levels
    semantics and with :meth:`PageTable.translate`), then the leaf's own
    W/U bits and access flag.
    """
    va = config.canonical_va(va)
    spec = config.arch
    table_gpa = gpt_root_gpa
    for level in range(config.levels, 0, -1):
        table_hpa = _ept_translate(ept, config.page_base(table_gpa),
                                   stage_va=va)
        index = config.entry_index(va, level)
        entry = phys.read_word(table_hpa + index * WORD_BYTES)
        if not spec.is_present(entry):
            raise TranslationFault(
                f"guest PT: no mapping for {va:#x} at level {level}",
                stage="gpt", va=va)
        terminal = level == 1 or spec.is_block(entry, level)
        if terminal:
            if level == 1 and not spec.is_leaf_valid(entry):
                raise TranslationFault(
                    f"guest PT: reserved leaf encoding for {va:#x}",
                    stage="gpt", va=va)
            if write and not spec.is_writable(entry):
                raise TranslationFault(
                    f"guest PT: write denied at level {level} for "
                    f"{va:#x}", stage="gpt", va=va)
            if user and not spec.is_user(entry):
                raise TranslationFault(
                    f"guest PT: user access denied at level {level} "
                    f"for {va:#x}", stage="gpt", va=va)
            if not spec.access_allowed(entry):
                raise TranslationFault(
                    f"guest PT: access flag clear for {va:#x}",
                    stage="gpt", va=va)
            span = config.level_span(level if level > 1 else 1)
            gpa = pte.pte_addr(entry, config) + (va % span)
            return _ept_translate(ept, config.page_base(gpa),
                                  stage_va=va, write=write) \
                + config.page_offset(gpa)
        if write and not spec.table_allows_write(entry):
            raise TranslationFault(
                f"guest PT: write denied at level {level} for {va:#x}",
                stage="gpt", va=va)
        if user and not spec.table_allows_user(entry):
            raise TranslationFault(
                f"guest PT: user access denied at level {level} for "
                f"{va:#x}", stage="gpt", va=va)
        table_gpa = pte.pte_addr(entry, config)
    raise PagingError("guest walk fell off the hierarchy")  # unreachable


def _ept_translate(ept, gpa, stage_va, write=False):
    # The second stage translates *guest-physical* addresses: guest-PT
    # USER semantics do not apply to EPT entries, so the user check is
    # explicitly off here.  (Inheriting ``translate``'s ``user=True``
    # default made monitor-owned EPT mappings without USER spuriously
    # fault the whole guest walk.)
    try:
        return ept.translate(gpa, write=write, user=False)
    except TranslationFault as fault:
        raise TranslationFault(
            f"EPT violation translating GPA {gpa:#x} "
            f"(guest VA {stage_va:#x}): {fault}",
            stage="ept", va=stage_va)


def two_stage_translate(config, phys, ept, gpt, va, write=False):
    """Compose a monitor-managed GPT with an EPT (the enclave path).

    Enclave GPTs are monitor-owned structures in secure memory, so the
    GPT stage walks host-physical space directly; only the resulting GPA
    goes through the EPT (Sec. 2.1: "all enclaves' GPTs are managed by
    RustMonitor").
    """
    gpa = gpt.translate(va, write=write)
    return _ept_translate(ept, config.page_base(gpa), stage_va=va,
                          write=write) + config.page_offset(gpa)
