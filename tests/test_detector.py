"""Rule-table classification, register stickiness, and the software view."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rares_sim.detector import (
    AccessEvent,
    CtrlRegister,
    DETECT_MASK,
    ExecContext,
    MASK_KINDS,
    RESET_MASK,
    ViolationKind,
    WriteAccessDenied,
    classify,
    cycle_mask,
    decode_bits,
    event_cycle,
    exec_context,
    software_read_ctrl,
    software_write_ctrl,
    step,
)
from conftest import slotted_layouts
from rares_sim.memory import RegionKind
from rares_sim.scenario import classify_trace_naive

V = ViolationKind

# Minimal one-cycle trigger for each of the ten violation kinds, using the
# default map: app RAM 0x4000.., boot ROM 0x6000.., key ROM 0x6A00..,
# reserved stack 0x0200.., flash 0xE000.. (an "other" execution context).
ATTACK_EVENTS = {
    V.IRQ_RAM: AccessEvent(pc=0x4000, irq=True),
    V.IRQ_STACK: AccessEvent(pc=0x6000, irq=True),
    V.DMA_RAM_WR: AccessEvent(pc=0x6000, wen=True, dma_en=True, dma_addr=0x4000),
    V.DMA_RAM_RD: AccessEvent(pc=0x6000, ren=True, dma_en=True, dma_addr=0x4000),
    V.DMA_STACK_RD: AccessEvent(pc=0xE000, ren=True, dma_en=True, dma_addr=0x0200),
    V.DMA_ROM_RD: AccessEvent(pc=0x4000, ren=True, dma_en=True, dma_addr=0x6A00),
    V.CPU_RAM_WR: AccessEvent(pc=0x6000, wen=True, daddr=0x4000),
    V.CPU_RAM_RD: AccessEvent(pc=0x6000, ren=True, daddr=0x4000),
    V.CPU_STACK_RD: AccessEvent(pc=0xE000, ren=True, daddr=0x0200),
    V.CPU_ROM_RD: AccessEvent(pc=0x4000, ren=True, daddr=0x6A00),
}

BENIGN_EVENTS = [
    AccessEvent(pc=0x4000),  # app code, no access
    AccessEvent(pc=0x4000, ren=True, daddr=0x4100),  # app reads its own RAM
    AccessEvent(pc=0x4000, wen=True, daddr=0x4100),  # app writes its own RAM
    AccessEvent(pc=0x4000, ren=True, daddr=0xE000),  # app reads flash
    AccessEvent(pc=0x6000, ren=True, daddr=0x6A00),  # attestation code reads the key
    AccessEvent(pc=0x6000, ren=True, daddr=0x6001),  # attestation code reads itself
    AccessEvent(pc=0x6000, ren=True, daddr=0x0200),  # attestation walks the stack
    AccessEvent(pc=0x6000, ren=True, daddr=0xE010),  # attestation hashes flash
    AccessEvent(pc=0xE000, irq=True),  # interrupt outside both guarded contexts
    AccessEvent(pc=0xE000, ren=True, daddr=0x4000),  # other context reads app RAM
    AccessEvent(pc=0x4000, ren=True, dma_en=True, dma_addr=0x4100),  # app-side DMA
]


@pytest.mark.parametrize("kind", list(V), ids=lambda k: k.name)
def test_each_attack_event_sets_exactly_its_bit(layout, kind):
    assert classify(layout, ATTACK_EVENTS[kind]) == {kind}
    assert cycle_mask(layout, *event_cycle(ATTACK_EVENTS[kind])) == 1 << kind.value
    assert MASK_KINDS[1 << kind.value] == (kind,)


@pytest.mark.parametrize("event", BENIGN_EVENTS)
def test_benign_events_classify_empty(layout, event):
    assert classify(layout, event) == set()


def test_exec_context(layout):
    assert exec_context(layout, 0x4000) is ExecContext.IN_APP
    assert exec_context(layout, 0x5FFF) is ExecContext.IN_APP
    assert exec_context(layout, 0x6000) is ExecContext.IN_SW_ATT
    assert exec_context(layout, 0x69FF) is ExecContext.IN_SW_ATT
    for pc in (0x0000, 0x0200, 0x6A00, 0x7000, 0xE000, 0xFFFF):
        assert exec_context(layout, pc) is ExecContext.OTHER


def test_event_with_both_strobes_rejected():
    with pytest.raises(ValueError):
        AccessEvent(pc=0x4000, ren=True, wen=True)


def test_event_address_out_of_range_rejected():
    with pytest.raises(ValueError, match=r"pc=0x10000 outside"):
        AccessEvent(pc=0x10000)
    with pytest.raises(ValueError, match=r"daddr=-0x1 outside"):
        AccessEvent(daddr=-1)


def test_one_event_can_set_two_bits(layout):
    # interrupt fired while the attestation routine drives a DMA read of app RAM
    event = AccessEvent(pc=0x6000, irq=True, ren=True, dma_en=True, dma_addr=0x4000)
    assert classify(layout, event) == {V.IRQ_STACK, V.DMA_RAM_RD}


def test_dma_and_cpu_rules_use_their_own_address(layout):
    # benign daddr, hostile dma_addr: only the DMA rule may fire
    event = AccessEvent(pc=0x4000, ren=True, dma_en=True, daddr=0x4100, dma_addr=0x6A00)
    assert classify(layout, event) == {V.DMA_ROM_RD}
    # hostile daddr is ignored while DMA drives the bus
    event = AccessEvent(pc=0x4000, ren=True, dma_en=True, daddr=0x6A00, dma_addr=0x4100)
    assert classify(layout, event) == set()


def test_boot_rom_read_from_other_context_flags(layout):
    assert classify(layout, AccessEvent(pc=0xE000, ren=True, daddr=0x6000)) == {V.CPU_ROM_RD}
    assert classify(
        layout, AccessEvent(pc=0xE000, ren=True, dma_en=True, dma_addr=0x6000)
    ) == {V.DMA_ROM_RD}
    # ... but reading boot ROM from the app is an ordinary call into it
    assert classify(layout, AccessEvent(pc=0x4000, ren=True, daddr=0x6000)) == set()


def test_key_rom_read_exemption_is_swatt_only(layout):
    assert classify(layout, AccessEvent(pc=0x6000, ren=True, daddr=0x6A00)) == set()
    assert classify(layout, AccessEvent(pc=0xE000, ren=True, daddr=0x6A00)) == {V.CPU_ROM_RD}
    # DMA reads of the key are flagged even from the app context
    assert classify(
        layout, AccessEvent(pc=0x4000, ren=True, dma_en=True, dma_addr=0x6A00)
    ) == {V.DMA_ROM_RD}


# -- register semantics ----------------------------------------------------


def test_bits_are_sticky(state):
    step(state, ATTACK_EVENTS[V.CPU_ROM_RD])
    assert state.ctrl.value == V.CPU_ROM_RD.mask
    for event in BENIGN_EVENTS:
        step(state, event)
    assert state.ctrl.value == V.CPU_ROM_RD.mask  # nothing cleared it


def test_bits_accumulate(state):
    step(state, ATTACK_EVENTS[V.IRQ_RAM])
    step(state, ATTACK_EVENTS[V.DMA_RAM_WR])
    step(state, ATTACK_EVENTS[V.CPU_STACK_RD])
    assert state.ctrl.value == 0x0001 | 0x0004 | 0x0100


def test_step_advances_cycle_and_latches_same_cycle(state):
    assert state.cycle == 0
    violations = step(state, ATTACK_EVENTS[V.CPU_ROM_RD])
    assert state.cycle == 1
    assert violations == {V.CPU_ROM_RD}
    assert state.ctrl.value & V.CPU_ROM_RD.mask  # visible before any further cycle


def test_latch_rejects_reserved_bits():
    reg = CtrlRegister()
    for bit in range(11, 16):
        with pytest.raises(ValueError):
            reg.latch(1 << bit)
    assert reg.value == 0


def test_constructor_rejects_reserved_bits():
    # the initial value goes through the latch path, which owns the rule
    for value in (0x0800, 0xF800, 0x10000):
        with pytest.raises(ValueError, match="reserved bits"):
            CtrlRegister(value)
    assert CtrlRegister(0x0401).value == 0x0401
    assert CtrlRegister(DETECT_MASK | RESET_MASK).value == 0x07FF


def test_clear_detection_bits_keeps_reset_flag():
    reg = CtrlRegister()
    reg.latch(DETECT_MASK | RESET_MASK)
    reg.clear_detection_bits()
    assert reg.value == RESET_MASK
    reg.clear_all()
    assert reg.value == 0


def test_decode_bits_names():
    assert decode_bits(0x0200) == ["D9:CPU_ROM_RD"]
    assert decode_bits(0x0401) == ["D0:IRQ_RAM", "D10:RESET"]
    assert decode_bits(0) == []


def test_software_can_read_but_never_write(state):
    step(state, ATTACK_EVENTS[V.DMA_ROM_RD])
    assert software_read_ctrl(state) == V.DMA_ROM_RD.mask
    with pytest.raises(WriteAccessDenied):
        software_write_ctrl(state, 0x0000)
    assert software_read_ctrl(state) == V.DMA_ROM_RD.mask


# -- randomized cross-check against the whole-trace oracle ------------------

_addr_pool = st.sampled_from(
    [0x0000, 0x01FF, 0x0200, 0x0AFF, 0x0B00, 0x3FFF, 0x4000, 0x5FFF,
     0x6000, 0x69FF, 0x6A00, 0x6A1F, 0x6A20, 0x7000, 0xE000, 0xFFFF]
)


@st.composite
def events(draw):
    ren = draw(st.booleans())
    return AccessEvent(
        pc=draw(_addr_pool),
        irq=draw(st.booleans()),
        ren=ren,
        wen=False if ren else draw(st.booleans()),
        daddr=draw(_addr_pool),
        dma_en=draw(st.booleans()),
        dma_addr=draw(_addr_pool),
    )


@given(event=events())
@settings(max_examples=500)
def test_single_event_matches_naive_word(layout, event):
    mask = cycle_mask(layout, *event_cycle(event))
    assert mask == classify_trace_naive(layout, [event])
    assert classify(layout, event) == {kind for kind in V if mask & kind.mask}


def test_mask_kinds_lists_every_masks_kinds_in_bit_order():
    assert len(MASK_KINDS) == 1 << 10
    for mask, kinds in enumerate(MASK_KINDS):
        assert kinds == tuple(kind for kind in sorted(V, key=lambda k: k.value) if mask & kind.mask)


# -- the rule table against the naive scanner, signal by signal -------------


def assert_rule_table_matches_naive(layout, places):
    """Every (pc place, target place, bus, none/ren/wen, irq) event: the
    table's mask equals the whole-trace oracle's word.  The idle bus points
    at the key ROM, so a rule read off the wrong bus shows."""
    key_rom = layout.region(RegionKind.KEY_ROM).start
    for pc in places:
        for target in places:
            for dma_en in (False, True):
                for ren, wen in ((False, False), (True, False), (False, True)):
                    for irq in (False, True):
                        event = AccessEvent(
                            pc=pc, irq=irq, ren=ren, wen=wen,
                            daddr=key_rom if dma_en else target,
                            dma_en=dma_en,
                            dma_addr=target if dma_en else key_rom,
                        )
                        assert cycle_mask(layout, *event_cycle(event)) == classify_trace_naive(
                            layout, [event]
                        ), event


def gap_address(layout):
    return next(
        addr for addr in (0x0000, 0xFFFF)
        if not any(r.start <= addr <= r.end for r in layout.regions)
    )


def test_rule_table_matches_naive_for_every_signal_combination(layout):
    # both ends of each region, and a gap
    places = [r.start for r in layout.regions] + [r.end for r in layout.regions]
    assert_rule_table_matches_naive(layout, places + [gap_address(layout)])


@given(layout=slotted_layouts(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_rule_table_matches_naive_on_drawn_layouts(layout, data):
    places = [data.draw(st.integers(r.start, r.end)) for r in layout.regions]
    assert_rule_table_matches_naive(layout, places + [gap_address(layout)])


@given(trace=st.lists(events(), max_size=40))
@settings(max_examples=200)
def test_stepped_register_matches_naive_word(make_state, trace):
    state = make_state()
    for event in trace:
        step(state, event)
    assert state.ctrl.value & DETECT_MASK == classify_trace_naive(state.layout, trace)
