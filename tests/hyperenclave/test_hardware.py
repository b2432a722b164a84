"""Physical memory (sparse-but-dense-semantics), TLB, vCPU."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.concurrency import DeterministicScheduler, scheduler as conc
from repro.errors import HypervisorError
from repro.hyperenclave.constants import TINY, TINY_ARM, WORD_BYTES
from repro.hyperenclave.hardware import (
    GPR_NAMES, CpuLocal, PhysMemory, Tlb, VCpu,
)
from repro.hyperenclave.txn import TxnScope


class TestPhysMemory:
    def test_reads_as_zero_initially(self):
        phys = PhysMemory(TINY)
        assert phys.read_word(0) == 0
        assert phys.read_word(TINY.phys_bytes - 8) == 0

    def test_write_read_roundtrip(self):
        phys = PhysMemory(TINY)
        phys.write_word(0x100, 0xDEADBEEF)
        assert phys.read_word(0x100) == 0xDEADBEEF

    def test_write_masks_to_64_bits(self):
        phys = PhysMemory(TINY)
        phys.write_word(0, 2 ** 70 + 5)
        assert phys.read_word(0) == (2 ** 70 + 5) % 2 ** 64

    def test_unaligned_access_rejected(self):
        phys = PhysMemory(TINY)
        with pytest.raises(HypervisorError, match="unaligned"):
            phys.read_word(3)

    def test_out_of_range_rejected(self):
        phys = PhysMemory(TINY)
        with pytest.raises(HypervisorError, match="out of range"):
            phys.read_word(TINY.phys_bytes)
        with pytest.raises(HypervisorError):
            phys.write_word(-8, 1)

    def test_zero_frame(self):
        phys = PhysMemory(TINY)
        base = TINY.frame_base(3)
        phys.write_word(base, 7)
        phys.write_word(base + 8, 9)
        phys.zero_frame(3)
        assert phys.frame_words(3) == (0,) * TINY.words_per_page

    def test_copy_frame_copies_zeros_too(self):
        phys = PhysMemory(TINY)
        phys.write_word(TINY.frame_base(1), 5)
        phys.write_word(TINY.frame_base(2), 8)      # dst has stale data
        phys.write_word(TINY.frame_base(2) + 8, 9)
        phys.copy_frame(2, 1)
        assert phys.frame_words(2) == phys.frame_words(1)
        assert phys.read_word(TINY.frame_base(2) + 8) == 0

    def test_fill_frame(self):
        phys = PhysMemory(TINY)
        phys.fill_frame(0, 0xAB)
        assert set(phys.frame_words(0)) == {0xAB}

    def test_snapshot_equality_means_equal_contents(self):
        a, b = PhysMemory(TINY), PhysMemory(TINY)
        a.write_word(0x10, 4)
        b.write_word(0x10, 4)
        assert a.snapshot() == b.snapshot()
        b.write_word(0x18, 1)
        assert a.snapshot() != b.snapshot()
        b.write_word(0x18, 0)  # writing zero restores sparseness
        assert a.snapshot() == b.snapshot()

    def test_load_snapshot(self):
        a = PhysMemory(TINY)
        a.write_word(0x20, 11)
        b = PhysMemory(TINY)
        b.load_snapshot(a.snapshot())
        assert b.read_word(0x20) == 11

    def test_region_words(self):
        phys = PhysMemory(TINY)
        phys.write_word(TINY.frame_base(2), 3)
        words = phys.region_words(range(2, 4))
        assert len(words) == 2 * TINY.words_per_page
        assert words[0] == 3

    @given(st.lists(st.tuples(st.integers(0, TINY.phys_bytes // 8 - 1),
                              st.integers(0, 2 ** 64 - 1)), max_size=20))
    def test_dense_semantics(self, writes):
        """Sparse storage must behave exactly like a dense zero array."""
        phys = PhysMemory(TINY)
        dense = {}
        for index, value in writes:
            phys.write_word(index * 8, value)
            dense[index] = value
        for index, value in dense.items():
            assert phys.read_word(index * 8) == value


    def test_nonzero_frames(self):
        phys = PhysMemory(TINY)
        assert phys.nonzero_frames() == set()
        phys.write_word(TINY.frame_base(2) + 8, 1)
        phys.write_word(TINY.frame_base(5), 3)
        phys.write_word(TINY.frame_base(7), 0)
        assert phys.nonzero_frames() == {2, 5}
        phys.write_word(TINY.frame_base(5), 0)
        phys.zero_frame(2)
        assert phys.nonzero_frames() == set()


def run_in_scope(phys, body):
    """Run ``body`` as a scheduled vCPU task holding an open
    :class:`TxnScope`; returns the stand-in monitor and the scope."""
    monitor = SimpleNamespace(phys=phys, cpus=[CpuLocal(VCpu(), Tlb())])
    scopes = []

    def task():
        running = conc.current_task()
        running.txn_scope = TxnScope.begin(monitor, running.vid)
        try:
            body()
        finally:
            scopes.append(running.txn_scope)
            running.txn_scope = None

    result = DeterministicScheduler(monitor, [task]).run()
    assert not result.task_errors, result.task_errors
    return monitor, scopes[0]


FRAMES = 4
WORD_VALUES = st.integers(0, 2 ** 64 - 1)


class TestFrameJournal:
    """``zero_frame``/``copy_frame`` look the journal up once per frame;
    what they journal must equal per-word first-write-wins recording."""

    @settings(max_examples=60, deadline=None)
    @given(config=st.sampled_from([TINY, TINY_ARM]), data=st.data())
    def test_frame_ops_journal_like_per_word_writes(self, config, data):
        wpp = config.words_per_page
        indices = st.integers(0, FRAMES * wpp - 1)
        contents = data.draw(st.dictionaries(indices, WORD_VALUES,
                                             max_size=40))
        earlier = data.draw(st.dictionaries(indices, WORD_VALUES,
                                            max_size=12))
        op = data.draw(st.sampled_from(["zero", "copy"]))
        dst = data.draw(st.integers(0, FRAMES - 1))
        src = data.draw(st.integers(0, FRAMES - 1))
        phys = PhysMemory(config)
        for index, value in contents.items():
            phys.write_word(index * WORD_BYTES, value)
        before = phys.snapshot()
        dst_words = range(dst * wpp, (dst + 1) * wpp)
        seen = {}

        def body():
            # Words written earlier in the same transaction.
            for index, value in earlier.items():
                phys.write_word(index * WORD_BYTES, value)
            reference = dict(conc.phys_journal())
            for index in dst_words:
                reference.setdefault(index,
                                     phys.read_word(index * WORD_BYTES))
            seen["reference"] = reference
            if op == "zero":
                phys.zero_frame(dst)
            else:
                phys.copy_frame(dst, src)

        monitor, scope = run_in_scope(phys, body)
        assert scope.journal == seen["reference"]
        scope.rollback(monitor)
        assert phys.snapshot() == before

    @pytest.mark.parametrize("config", [TINY, TINY_ARM],
                             ids=lambda config: config.name)
    def test_suspended_frame_ops_journal_nothing(self, config):
        phys = PhysMemory(config)
        phys.fill_frame(1, 0x5A)
        phys.write_word(config.frame_base(2), 9)

        def body():
            with conc.suspended():
                assert conc.phys_journal() is None
                phys.write_word(config.frame_base(3), 4)
                phys.zero_frame(2)
                phys.copy_frame(3, 1)

        _monitor, scope = run_in_scope(phys, body)
        assert scope.journal == {}
        assert phys.frame_words(3) == phys.frame_words(1)
        assert phys.nonzero_frames() == {1, 3}


class TestTlb:
    def test_insert_lookup(self):
        tlb = Tlb()
        tlb.insert(asid=1, va_page=0x10, pa_page=0x99)
        assert tlb.lookup(1, 0x10) == 0x99
        assert tlb.lookup(2, 0x10) is None

    def test_flush_all(self):
        tlb = Tlb()
        tlb.insert(1, 1, 1)
        tlb.flush_all()
        assert len(tlb) == 0
        assert tlb.flush_count == 1

    def test_flush_asid_selective(self):
        tlb = Tlb()
        tlb.insert(1, 1, 1)
        tlb.insert(2, 1, 2)
        tlb.flush_asid(1)
        assert tlb.lookup(1, 1) is None
        assert tlb.lookup(2, 1) == 2


class TestVCpu:
    def test_register_roundtrip(self):
        vcpu = VCpu()
        vcpu.write_reg("rax", 5)
        assert vcpu.read_reg("rax") == 5

    def test_unknown_register_rejected(self):
        with pytest.raises(HypervisorError):
            VCpu().write_reg("r99", 1)

    def test_values_wrap_to_64_bits(self):
        vcpu = VCpu()
        vcpu.write_reg("rbx", 2 ** 64 + 3)
        assert vcpu.read_reg("rbx") == 3

    def test_context_save_restore(self):
        vcpu = VCpu()
        vcpu.write_reg("rax", 1)
        saved = vcpu.context()
        vcpu.write_reg("rax", 2)
        vcpu.restore(saved)
        assert vcpu.read_reg("rax") == 1

    def test_context_covers_all_gprs(self):
        assert {name for name, _ in VCpu().context()} == set(GPR_NAMES)

    def test_clone_is_independent(self):
        vcpu = VCpu()
        clone = vcpu.clone()
        clone.write_reg("rax", 9)
        assert vcpu.read_reg("rax") == 0
