"""Observation function V(p, σ) and the noninterference lemmas."""

import dataclasses

import pytest

from repro.engine import bug_matrix
from repro.hyperenclave import buggy
from repro.hyperenclave.constants import TINY, TINY_ARM
from repro.hyperenclave.monitor import HOST_ID, RustMonitor
from repro.security import (
    DataOracle, Hypercall, LocalCompute, MemLoad, MemStore, SystemState,
    apply_step, attacks, observe,
)
from repro.security.noninterference import (
    TwoWorlds, check_lemma_activation, check_lemma_confidentiality,
    check_lemma_integrity, check_theorem_noninterference, indistinguishable,
)

from tests.conftest import build_enclave_world

PAGE = TINY.page_size


def make_state(monitor_cls=RustMonitor, secret=0x41, oracle_seed=7,
               pages=1):
    monitor, app, eid = build_enclave_world(monitor_cls=monitor_cls,
                                            secret=secret, pages=pages)
    return SystemState(monitor, oracle=DataOracle.seeded(oracle_seed)), \
        app, eid


def make_worlds(monitor_cls=RustMonitor, secrets=(41, 42), pages=1):
    state_a, app_a, eid = make_state(monitor_cls, secrets[0], pages=pages)
    state_b, app_b, eid_b = make_state(monitor_cls, secrets[1], pages=pages)
    assert eid == eid_b
    return TwoWorlds(state_a, state_b), app_a, eid


class TestObservation:
    def test_host_does_not_see_epc_contents(self):
        state_a, _, _ = make_state(secret=41)
        state_b, _, _ = make_state(secret=42)
        assert observe(state_a, HOST_ID) == observe(state_b, HOST_ID)

    def test_enclave_sees_its_own_pages(self):
        state_a, _, eid = make_state(secret=41)
        state_b, _, _ = make_state(secret=42)
        assert observe(state_a, eid) != observe(state_b, eid)

    def test_diff_names_components(self):
        state_a, _, eid = make_state(secret=41)
        state_b, _, _ = make_state(secret=42)
        diff = observe(state_a, eid).diff(observe(state_b, eid))
        assert "memory_pages" in diff

    def test_active_regs_only_for_active_principal(self):
        state, _, eid = make_state()
        assert observe(state, HOST_ID).cpu_regs is not None
        assert observe(state, eid).cpu_regs is None
        apply_step(state, Hypercall(HOST_ID, "enter", (eid,)))
        assert observe(state, HOST_ID).cpu_regs is None
        assert observe(state, eid).cpu_regs is not None

    def test_mbuf_contents_excluded_from_host_view(self):
        state_a, app, _ = make_state()
        state_b, app_b, _ = make_state()
        state_a.monitor.primary_os.store(app, 12 * PAGE, 0x1234)
        state_b.monitor.primary_os.store(app_b, 12 * PAGE, 0x9999)
        # Different mbuf *contents* are invisible (declassified);
        # but identical otherwise.
        assert observe(state_a, HOST_ID) == observe(state_b, HOST_ID)

    def test_mbuf_mapping_is_observable(self):
        """The mapping (not the contents) is part of the view because it
        is immutable after init (Sec. 5.3)."""
        state, _, eid = make_state()
        view = observe(state, eid)
        mbuf_mappings = [m for m in view.page_mappings
                         if m[0] == "gpt" and m[1] == 12 * PAGE]
        assert mbuf_mappings

    def test_destroyed_enclave_observation(self):
        state, _, eid = make_state()
        state.monitor.hc_destroy(eid)
        assert observe(state, eid).metadata == ("destroyed",)


def reference_host_pages(state):
    """Host-visible memory the dense way: build every untrusted,
    non-shared frame and keep those with a nonzero word."""
    monitor = state.monitor
    config = monitor.config
    shared = {config.frame_of(pa)
              for enclave in monitor.enclaves.values()
              if enclave.mbuf is not None
              for _va, pa in enclave.mbuf.pages(config)}
    pages = []
    for frame in monitor.layout.untrusted_frames:
        if frame in shared:
            continue
        words = monitor.phys.frame_words(frame)
        if any(words):
            pages.append((("untrusted", frame), words))
    return tuple(pages)


def host_views_match(state):
    view = observe(state, HOST_ID)
    assert view == dataclasses.replace(
        view, memory_pages=reference_host_pages(state))
    return view


def matrix_states(config):
    """One state per 13-bug matrix row, from the world its setup
    function makes; the NI rows also step through their conviction trace."""
    for monitor_cls, _detector, arg in bug_matrix.MATRIX:
        if arg in (bug_matrix.leak_trace, bug_matrix.scrub_trace):
            monitor, app, eid = bug_matrix.build_world(
                monitor_cls, pages=2, config=config)
            state = SystemState(monitor, oracle=DataOracle.seeded(5))
            yield state
            for step in arg(app, eid, config):
                apply_step(state, step[0] if isinstance(step, tuple)
                           else step)
                yield state
        elif callable(arg):
            yield SystemState(arg(monitor_cls, config=config))
        else:
            yield SystemState(bug_matrix.build_world(
                monitor_cls, config=config)[0])


def attack_states(config):
    """The standard world under each attack generator in turn, with
    nonzero marshalling-buffer contents the host view must drop."""
    monitor, app, eid = bug_matrix.build_world(config=config)
    state = SystemState(monitor)
    monitor.primary_os.store(app, 12 * config.page_size, 0x1234)
    yield state
    for outcome in attacks.run_standard_attack_suite(monitor, app,
                                                     eid).values():
        assert outcome.leaked == []
        yield state


class TestHostObservationEquivalence:
    """The host view builds only frames holding a nonzero word; it must
    equal the dense reference on every world the checkers produce."""

    @pytest.mark.parametrize("config", [TINY, TINY_ARM],
                             ids=lambda config: config.name)
    @pytest.mark.parametrize("source", [matrix_states, attack_states],
                             ids=["bug-matrix", "attacks"])
    def test_matches_dense_reference(self, config, source):
        views = [host_views_match(state) for state in source(config)]
        assert any(view.memory_pages for view in views)


class TestLemma52Integrity:
    def test_host_activity_invisible_to_enclave(self):
        state, app, eid = make_state()
        steps = [
            LocalCompute(HOST_ID, "rax", value=9),
            MemStore(HOST_ID, 0x200, "rax"),
            MemLoad(HOST_ID, 0x200, "rbx"),
            MemLoad(HOST_ID, 12 * PAGE, "rcx", via_app=app.app_id),
            MemStore(HOST_ID, 12 * PAGE, "rax", via_app=app.app_id),
        ]
        assert check_lemma_integrity(state, steps, observer=eid) == []

    def test_attack_steps_also_invisible(self):
        state, app, eid = make_state()
        epc_base = TINY.frame_base(state.monitor.layout.epc_base)
        steps = [MemLoad(HOST_ID, epc_base, "rax"),
                 MemStore(HOST_ID, epc_base, "rax")]
        assert check_lemma_integrity(state, steps, observer=eid) == []

    def test_checker_catches_real_interference(self):
        """Against a broken monitor that lets the host write EPC pages
        (simulated via direct phys poke), the lemma reports it."""
        state, _app, eid = make_state()
        frame = next(f for f, e in state.monitor.epcm.owned_by(eid)
                     if e.va is not None)

        class PokeStep(MemLoad):
            pass

        # monkey path: a custom step the monitor would never allow;
        # emulate the bug by poking between checked steps.
        before = check_lemma_integrity(state, [], observer=eid)
        assert before == []
        import repro.security.noninterference as ni
        base = observe(state, eid)
        state.monitor.phys.write_word(TINY.frame_base(frame), 0x666)
        assert observe(state, eid) != base  # the poke is observable


class TestLemma53Confidentiality:
    def test_host_moves_keep_worlds_indistinguishable(self):
        worlds, app, _eid = make_worlds()
        steps = [
            LocalCompute(HOST_ID, "rax", value=3),
            MemStore(HOST_ID, 0x200, "rax"),
            MemLoad(HOST_ID, 12 * PAGE, "rbx", via_app=app.app_id),
        ]
        assert check_lemma_confidentiality(worlds, steps,
                                           actor=HOST_ID) == []

    def test_probing_epc_reveals_nothing(self):
        worlds, _app, eid = make_worlds()
        epc = TINY.frame_base(worlds.a.monitor.layout.epc_base)
        steps = [MemLoad(HOST_ID, epc + i * PAGE, "rax")
                 for i in range(4)]
        assert check_lemma_confidentiality(worlds, steps,
                                           actor=HOST_ID) == []


class TestLemma54Activation:
    def test_enter_into_enclave_keeps_worlds_equal_for_it(self):
        """Both worlds enter the same enclave whose state is identical;
        the activation must not create a distinction for it."""
        worlds, _app, eid = make_worlds(secrets=(41, 41))
        steps = [Hypercall(HOST_ID, "enter", (eid,))]
        assert check_lemma_activation(worlds, steps, observer=eid) == []


class TestTheorem51:
    def trace(self, eid):
        return [
            Hypercall(HOST_ID, "enter", (eid,)),
            (MemLoad(eid, 16 * PAGE, "rax"),
             MemLoad(eid, 16 * PAGE, "rax")),       # loads differing secret
            (LocalCompute(eid, "rbx", op="copy", src1="rax"),
             LocalCompute(eid, "rbx", op="copy", src1="rax")),
            (Hypercall(eid, "exit", (eid,)),
             Hypercall(eid, "exit", (eid,))),
            MemLoad(HOST_ID, 0x200, "rcx"),
            LocalCompute(HOST_ID, "rdx", op="copy", src1="rax"),
        ]

    def test_holds_on_correct_monitor(self):
        worlds, _app, eid = make_worlds()
        violations = check_theorem_noninterference(
            worlds, self.trace(eid), observers=[HOST_ID])
        assert violations == []

    def test_leaky_exit_violates_with_register_witness(self):
        worlds, _app, eid = make_worlds(monitor_cls=buggy.LeakyExitMonitor)
        violations = check_theorem_noninterference(
            worlds, self.trace(eid), observers=[HOST_ID])
        assert violations
        assert "cpu_regs" in violations[0].components

    def test_no_scrub_leaks_across_destroy_create(self):
        """World A's victim stored 41, world B's stored 42; destroy, then
        a new enclave adopts a recycled frame via EAUG and observes the
        residue."""
        worlds, _app, eid = make_worlds(monitor_cls=buggy.NoScrubMonitor,
                                        pages=2)
        trace = [
            Hypercall(HOST_ID, "destroy", (eid,)),
            Hypercall(HOST_ID, "create",
                      (48 * PAGE, 2 * PAGE, 8 * PAGE, 2 * PAGE, PAGE)),
            Hypercall(HOST_ID, "add_page", (eid + 1, 48 * PAGE, 0)),
            Hypercall(HOST_ID, "init", (eid + 1,)),
            Hypercall(HOST_ID, "aug_page", (eid + 1, 49 * PAGE)),
        ]
        violations = check_theorem_noninterference(
            worlds, trace, observers=[eid + 1])
        assert violations
        assert "memory_pages" in violations[-1].components

    def test_scrubbing_monitor_keeps_aug_pages_clean(self):
        """The same trace on the correct monitor leaks nothing — the
        destroy-time scrub is exactly what makes EAUG safe."""
        worlds, _app, eid = make_worlds(pages=2)
        trace = [
            Hypercall(HOST_ID, "destroy", (eid,)),
            Hypercall(HOST_ID, "create",
                      (48 * PAGE, 2 * PAGE, 8 * PAGE, 2 * PAGE, PAGE)),
            Hypercall(HOST_ID, "add_page", (eid + 1, 48 * PAGE, 0)),
            Hypercall(HOST_ID, "init", (eid + 1,)),
            Hypercall(HOST_ID, "aug_page", (eid + 1, 49 * PAGE)),
        ]
        violations = check_theorem_noninterference(
            worlds, trace, observers=[eid + 1, HOST_ID])
        assert violations == []

    def test_no_tlb_flush_leaks_through_stale_translation(self):
        """The §2.1 flush discipline: with the exit flush deleted, the
        app touching the victim's ELRANGE VA rides the stale TLB entry
        straight into EPC memory and loads the differing secret."""
        worlds, app, eid = make_worlds(monitor_cls=buggy.NoTlbFlushMonitor)
        trace = [
            Hypercall(HOST_ID, "enter", (eid,)),
            # the enclave touches its secret page — caching va -> EPC hpa
            (MemLoad(eid, 16 * PAGE, "rax"),
             MemLoad(eid, 16 * PAGE, "rax")),
            (Hypercall(eid, "exit", (eid,)),
             Hypercall(eid, "exit", (eid,))),
            # the app loads the same VA: stale hit, EPC read
            MemLoad(HOST_ID, 16 * PAGE, "rbx", via_app=app.app_id),
        ]
        violations = check_theorem_noninterference(
            worlds, trace, observers=[HOST_ID])
        assert violations
        assert "cpu_regs" in violations[0].components
        assert worlds.a.monitor.vcpu.read_reg("rbx") == 41  # the secret

    def test_correct_monitor_immune_to_the_same_tlb_trace(self):
        worlds, app, eid = make_worlds()
        trace = [
            Hypercall(HOST_ID, "enter", (eid,)),
            (MemLoad(eid, 16 * PAGE, "rax"),
             MemLoad(eid, 16 * PAGE, "rax")),
            (Hypercall(eid, "exit", (eid,)),
             Hypercall(eid, "exit", (eid,))),
            MemLoad(HOST_ID, 16 * PAGE, "rbx", via_app=app.app_id),
        ]
        violations = check_theorem_noninterference(
            worlds, trace, observers=[HOST_ID])
        assert violations == []

    def test_indistinguishable_helper(self):
        worlds, _app, _eid = make_worlds()
        assert indistinguishable(worlds.a, worlds.b, HOST_ID)

    def test_initial_distinction_reported(self):
        worlds, _app, eid = make_worlds()
        violations = check_theorem_noninterference(
            worlds, [], observers=[eid])
        assert violations and violations[0].step_index == -1


class TestThreePrincipals:
    """An enclave observing another enclave — the paper's symmetric
    noninterference: *no* principal may learn another's secret."""

    def build_pair_world(self, secret):
        monitor = RustMonitor(TINY)
        primary_os = monitor.primary_os
        src = TINY.frame_base(primary_os.reserve_data_frame())
        primary_os.gpa_write_word(src, secret)
        mbuf_v = TINY.frame_base(primary_os.reserve_data_frame())
        mbuf_s = TINY.frame_base(primary_os.reserve_data_frame())
        victim = monitor.hc_create(16 * PAGE, PAGE, 4 * PAGE, mbuf_v,
                                   PAGE)
        monitor.hc_add_page(victim, 16 * PAGE, src)
        primary_os.gpa_write_word(src, 0)
        spy = monitor.hc_create(32 * PAGE, PAGE, 5 * PAGE, mbuf_s, PAGE)
        monitor.hc_add_page(spy, 32 * PAGE, src)
        monitor.hc_init(victim)
        monitor.hc_init(spy)
        return SystemState(monitor, oracle=DataOracle.seeded(4)), \
            victim, spy

    def test_spy_enclave_learns_nothing(self):
        state_a, victim, spy = self.build_pair_world(41)
        state_b, _, _ = self.build_pair_world(42)
        worlds = TwoWorlds(state_a, state_b)
        trace = [
            Hypercall(HOST_ID, "enter", (victim,)),
            (MemLoad(victim, 16 * PAGE, "rax"),
             MemLoad(victim, 16 * PAGE, "rax")),
            (Hypercall(victim, "exit", (victim,)),
             Hypercall(victim, "exit", (victim,))),
            Hypercall(HOST_ID, "enter", (spy,)),
            (MemLoad(spy, 32 * PAGE, "rbx"),
             MemLoad(spy, 32 * PAGE, "rbx")),
            (MemLoad(spy, 16 * PAGE, "rcx"),   # victim's VA: faults
             MemLoad(spy, 16 * PAGE, "rcx")),
            (Hypercall(spy, "exit", (spy,)),
             Hypercall(spy, "exit", (spy,))),
        ]
        violations = check_theorem_noninterference(
            worlds, trace, observers=[spy, HOST_ID])
        assert violations == []

    def test_victim_still_sees_its_own_secret(self):
        state_a, victim, _spy = self.build_pair_world(41)
        state_b, _, _ = self.build_pair_world(42)
        assert not indistinguishable(state_a, state_b, victim)
