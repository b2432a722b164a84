"""The untrusted side: guest-physical access, GPT building, probing."""

import pytest

from repro.errors import FaultInjected, ReproError, TranslationFault
from repro.faults import FaultPlane, installed
from repro.faults.plane import SITE_PHYS_FLIP, SITE_PHYS_WRITE
from repro.hyperenclave import pte
from repro.hyperenclave.constants import TINY, TINY_ARM, WORD_BYTES
from repro.hyperenclave.monitor import RustMonitor

from tests.conftest import build_enclave_world

PAGE = TINY.page_size


class TestGpaAccess:
    def test_untrusted_read_write(self, monitor):
        primary_os = monitor.primary_os
        primary_os.gpa_write_word(0x100, 0x42)
        assert primary_os.gpa_read_word(0x100) == 0x42

    def test_secure_access_faults(self, monitor):
        secure_gpa = TINY.frame_base(monitor.layout.secure_base)
        with pytest.raises(TranslationFault):
            monitor.primary_os.gpa_read_word(secure_gpa)
        with pytest.raises(TranslationFault):
            monitor.primary_os.gpa_write_word(secure_gpa, 1)

    def test_dma_goes_through_same_checks(self, monitor):
        with pytest.raises(TranslationFault):
            monitor.primary_os.dma_write(
                TINY.frame_base(monitor.layout.epc_base), 0x41)
        monitor.primary_os.dma_write(0x200, 0x41)  # untrusted ok


class TestGptConstruction:
    def test_spawn_app_and_map_data(self, monitor):
        app = monitor.primary_os.spawn_app(1)
        gpa = monitor.primary_os.app_map_data(app, 6 * PAGE)
        monitor.primary_os.store(app, 6 * PAGE, 0x77)
        assert monitor.primary_os.load(app, 6 * PAGE) == 0x77
        assert monitor.phys.read_word(gpa) == 0x77  # identity EPT

    def test_duplicate_app_rejected(self, monitor):
        monitor.primary_os.spawn_app(1)
        with pytest.raises(Exception):
            monitor.primary_os.spawn_app(1)

    def test_gpt_map_creates_intermediates_in_untrusted_memory(self,
                                                               monitor):
        primary_os = monitor.primary_os
        app = primary_os.spawn_app(1)
        reserved_before = len(primary_os._reserved_frames)
        primary_os.gpt_map(app.gpt_root_gpa, 9 * PAGE, 0)
        # root existed; levels-1 intermediates were reserved
        assert len(primary_os._reserved_frames) == \
            reserved_before + TINY.levels - 1
        for frame in primary_os._reserved_frames:
            assert monitor.layout.is_untrusted(frame)

    def test_gpt_set_raw_entry(self, monitor):
        primary_os = monitor.primary_os
        app = primary_os.spawn_app(1)
        raw = pte.pte_new(0x700, pte.leaf_flags(), TINY)
        primary_os.gpt_set_raw_entry(app.gpt_root_gpa, 2, raw)
        assert primary_os.gpa_read_word(app.gpt_root_gpa + 16) == raw

    def test_probe_returns_none_on_fault(self, monitor):
        app = monitor.primary_os.spawn_app(1)
        assert monitor.primary_os.probe(app, 9 * PAGE) is None
        monitor.primary_os.app_map_data(app, 9 * PAGE)
        assert monitor.primary_os.probe(app, 9 * PAGE) is not None

    def test_write_permission_respected_in_guest_walk(self, monitor):
        primary_os = monitor.primary_os
        app = primary_os.spawn_app(1)
        gpa = TINY.frame_base(primary_os.reserve_data_frame())
        primary_os.gpt_map(app.gpt_root_gpa, 6 * PAGE, gpa,
                           flags=pte.leaf_flags(writable=False))
        assert primary_os.probe(app, 6 * PAGE, write=False) is not None
        assert primary_os.probe(app, 6 * PAGE, write=True) is None


class TestAdversarialReach:
    def test_os_gpt_rewrite_cannot_reach_epc(self):
        """The OS may point its GPT anywhere; the EPT still wins."""
        monitor, app, eid = build_enclave_world()
        primary_os = monitor.primary_os
        for frame, _ in monitor.epcm.owned_by(eid):
            primary_os.gpt_map(app.gpt_root_gpa, 7 * PAGE,
                               TINY.frame_base(frame))
            assert primary_os.probe(app, 7 * PAGE) is None
            # clean up the probe mapping for the next round
            raw_index = TINY.entry_index(7 * PAGE, 1)
            # find the L1 table by walking the first two levels manually
            entry = primary_os.gpa_read_word(
                app.gpt_root_gpa + TINY.entry_index(7 * PAGE, 3) * 8)
            l2_gpa = pte.pte_addr(entry, TINY)
            entry = primary_os.gpa_read_word(
                l2_gpa + TINY.entry_index(7 * PAGE, 2) * 8)
            l1_gpa = pte.pte_addr(entry, TINY)
            primary_os.gpa_write_word(l1_gpa + raw_index * 8, 0)

    def test_os_cannot_touch_enclave_page_table_frames(self):
        monitor, _app, eid = build_enclave_world()
        enclave = monitor.enclaves[eid]
        for frame in enclave.gpt.table_frames():
            with pytest.raises(TranslationFault):
                monitor.primary_os.gpa_write_word(TINY.frame_base(frame),
                                                  0xBAD)


ARCHES = pytest.mark.parametrize("config", [TINY, TINY_ARM],
                                 ids=lambda config: config.name)


def reference_zeroing(primary_os, frame):
    """Zero ``frame`` the per-word way: one EPT translation per word."""
    base = primary_os.config.frame_base(frame)
    for offset in range(0, primary_os.config.page_size, WORD_BYTES):
        primary_os.gpa_write_word(base + offset, 0)


def outcome(action):
    """``(exception type, message)`` of running ``action``, or None."""
    try:
        action()
    except ReproError as exc:
        return type(exc), str(exc)
    return None


def stale_world(config, frame, os_huge_pages=True):
    """A fresh monitor whose next guest table frame is ``frame`` and
    holds stale nonzero words."""
    monitor = RustMonitor(config, os_huge_pages=os_huge_pages)
    monitor.primary_os._next_table_frame = frame
    base = config.frame_base(frame)
    for offset in range(0, config.page_size, 3 * WORD_BYTES):
        monitor.primary_os.gpa_write_word(base + offset, offset + 1)
    return monitor


class TestFrameZeroing:
    """``reserve_table_frame`` translates once per frame but must stay
    indistinguishable from one ``gpa_write_word`` per word."""

    @ARCHES
    def test_phys_write_site_hit_once_per_word(self, config):
        zeroed, reference = stale_world(config, 3), stale_world(config, 3)
        plane = FaultPlane(record_only=True)
        with installed(plane):
            assert zeroed.primary_os.reserve_table_frame() == 3
        plane_ref = FaultPlane(record_only=True)
        with installed(plane_ref):
            reference_zeroing(reference.primary_os, 3)
        assert plane.counts[SITE_PHYS_WRITE] == config.words_per_page
        assert plane.counts[SITE_PHYS_FLIP] == config.words_per_page
        assert plane.hit_labels == plane_ref.hit_labels
        assert zeroed.phys.frame_words(3) == (0,) * config.words_per_page
        assert zeroed.phys.snapshot() == reference.phys.snapshot()

    @ARCHES
    @pytest.mark.parametrize("hit", [0, 1, 7])
    def test_armed_write_fault_stops_at_the_same_word(self, config, hit):
        zeroed, reference = stale_world(config, 3), stale_world(config, 3)
        results = []
        for action in (zeroed.primary_os.reserve_table_frame,
                       lambda: reference_zeroing(reference.primary_os, 3)):
            plane = FaultPlane()
            plane.arm(SITE_PHYS_WRITE, index=hit)
            with installed(plane):
                results.append(outcome(action))
        assert results[0] == results[1]
        assert results[0][0] is FaultInjected
        assert zeroed.phys.snapshot() == reference.phys.snapshot()

    @ARCHES
    @pytest.mark.parametrize("frame", [0, 5])
    @pytest.mark.parametrize("depth", [0, 1, 2, 3, "off-spine"])
    def test_ept_aliasing_its_own_table_matches_per_word(self, config,
                                                         frame, depth):
        """A hand-built broken EPT maps the zeroed GPA onto one of its
        own table frames: on the walk's spine (``depth`` levels below
        the root) the zeroing rewrites its own translation; off it, the
        one translation stays valid for the whole frame."""
        worlds = []
        for _ in range(2):
            monitor = stale_world(config, frame, os_huge_pages=False)
            ept = monitor.os_ept
            walk = ept.walk(config.frame_base(frame))
            spine = [step.table_frame for step in walk.steps]
            assert len(spine) == config.levels
            if depth == "off-spine":
                target = next(table for table in ept.table_frames()
                              if table not in spine)
            else:
                target = spine[depth]
            leaf = walk.steps[-1]
            ept.write_entry(leaf.table_frame, leaf.index, pte.pte_set_addr(
                leaf.entry, config.frame_base(target), config))
            worlds.append(monitor)
        zeroed, reference = worlds
        got = outcome(zeroed.primary_os.reserve_table_frame)
        want = outcome(lambda: reference_zeroing(reference.primary_os,
                                                 frame))
        assert got == want
        if depth == "off-spine":
            assert got is None
        else:
            assert got[0] is TranslationFault
        assert zeroed.phys.snapshot() == reference.phys.snapshot()

    @ARCHES
    def test_translation_fault_on_first_word_writes_nothing(self, config):
        monitor = stale_world(config, 3)
        ept = monitor.os_ept
        leaf = ept.walk(config.frame_base(3)).steps[-1]
        ept.write_entry(leaf.table_frame, leaf.index, pte.pte_empty())
        before = monitor.phys.snapshot()
        plane = FaultPlane(record_only=True)
        with installed(plane), pytest.raises(TranslationFault):
            monitor.primary_os.reserve_table_frame()
        assert monitor.phys.snapshot() == before
        assert plane.counts.get(SITE_PHYS_WRITE, 0) == 0
