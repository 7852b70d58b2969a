"""Mode-register semantics, chip-enable select, and the policy engine."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rares_sim.detector import AccessEvent, CtrlRegister, RESET_MASK, ViolationKind, step
from rares_sim.memory import WriteResult, apply_write
from rares_sim.prevention import (
    CHIP_GATE_AND_RECOVER,
    HARD_CPU_OFF,
    LPM_SWITCH_MASK,
    NO_ACTION,
    SYSTEM_RESET,
    ActionKind,
    ModeRegister,
    PreventionBinding,
    apply_prevention,
    ctrl_cen_sel,
    default_binding,
    mode_switch,
    soft_mode_switch,
)

V = ViolationKind


# -- r2 bit-set semantics --------------------------------------------------


def test_bit_set_from_active_mode():
    r2 = mode_switch(ModeRegister(0x0000), LPM_SWITCH_MASK)
    assert r2.value == 0x00F0
    assert r2.mode_name == "lpm4"


def test_bit_set_preserves_existing_bits():
    # GIE already set; entering LPM0 must keep it
    r2 = mode_switch(ModeRegister(0x0008), 0x0010)
    assert r2.value == 0x0018
    assert r2.mode_name == "lpm0"


def test_bit_set_is_idempotent_and_monotone():
    r2 = ModeRegister(0x0008)
    once = mode_switch(r2, LPM_SWITCH_MASK)
    twice = mode_switch(once, LPM_SWITCH_MASK)
    assert once == twice
    assert once.value & r2.value == r2.value


@pytest.mark.parametrize(
    "value,name",
    [
        (0x0000, "active"),
        (0x0008, "active"),  # GIE alone does not change the mode
        (0x0010, "lpm0"),
        (0x0050, "lpm1"),
        (0x0090, "lpm2"),
        (0x00D0, "lpm3"),
        (0x00F0, "lpm4"),
        (0x0020, "reserved(0x20)"),
        (0x0060, "reserved(0x60)"),
    ],
)
def test_mode_names(value, name):
    assert ModeRegister(value).mode_name == name


@given(value=st.integers(0, 0xFFFF), mask=st.integers(0, 0xFFFF))
def test_mode_switch_is_bitwise_or(value, mask):
    assert mode_switch(ModeRegister(value), mask).value == value | mask


# -- chip-enable select ------------------------------------------------------


def test_cen_sel_covers_the_memory_access_bits():
    for bit in range(2, 10):
        reg = CtrlRegister()
        reg.latch(1 << bit)
        assert ctrl_cen_sel(reg), f"D{bit} must raise the gate select"


def test_cen_sel_ignores_atomicity_and_reset_bits():
    assert not ctrl_cen_sel(CtrlRegister())
    for mask in (0x0001, 0x0002, 0x0003):
        reg = CtrlRegister()
        reg.latch(mask)
        assert not ctrl_cen_sel(reg)
    reg = CtrlRegister()
    reg.latch(RESET_MASK)
    assert not ctrl_cen_sel(reg)


# -- bindings -----------------------------------------------------------------


def test_default_binding_worked_policy():
    binding = default_binding()
    assert binding.action_for(V.CPU_ROM_RD) == HARD_CPU_OFF
    assert binding.action_for(V.IRQ_RAM) == SYSTEM_RESET
    assert binding.action_for(V.IRQ_STACK) == SYSTEM_RESET
    for kind in (V.DMA_RAM_WR, V.DMA_RAM_RD, V.DMA_STACK_RD, V.DMA_ROM_RD,
                 V.CPU_RAM_WR, V.CPU_RAM_RD, V.CPU_STACK_RD):
        assert binding.action_for(kind) == CHIP_GATE_AND_RECOVER


def test_binding_must_be_total():
    with pytest.raises(ValueError):
        PreventionBinding({V.IRQ_RAM: SYSTEM_RESET})


def test_with_overrides_replaces_selected_kinds():
    binding = default_binding().with_overrides({V.CPU_ROM_RD: soft_mode_switch()})
    assert binding.action_for(V.CPU_ROM_RD).kind is ActionKind.SOFT_MODE_SWITCH
    assert binding.action_for(V.IRQ_RAM) == SYSTEM_RESET


# -- action application -------------------------------------------------------


def _marks(state):
    """The one mark each action leaves: r2, CPU halt, queued recovery, D10."""
    return (state.r2.value, state.cpu_halted, state.recovery_queued, state.ctrl.value & RESET_MASK)


NO_MARKS = (0, False, False, 0)
_MARK_OF = {
    ActionKind.SOFT_MODE_SWITCH: 0,
    ActionKind.HARD_CPU_OFF: 1,
    ActionKind.CHIP_GATE_AND_RECOVER: 2,
    ActionKind.SYSTEM_RESET: 3,
}


def test_no_violations_no_records(state):
    assert apply_prevention(state, set(), default_binding()) == ()
    assert _marks(state) == NO_MARKS


def test_hard_cpu_off_latches_halt(state):
    records = apply_prevention(state, {V.CPU_ROM_RD}, default_binding())
    assert [(r.violation, r.applied) for r in records] == [(V.CPU_ROM_RD, True)]
    assert _marks(state) == (0, True, False, 0)


def test_gate_and_recover_raises_gate_and_queues(state):
    apply_prevention(state, {V.DMA_RAM_WR}, default_binding())
    assert _marks(state) == (0, False, True, 0)  # the queued recovery is the raised gate
    assert apply_write(state, 0x4000, 0x55) is WriteResult.SUPPRESSED


def test_system_reset_latches_d10(state):
    apply_prevention(state, {V.IRQ_STACK}, default_binding())
    assert _marks(state) == (0, False, False, RESET_MASK)  # D10 is the reset request


def test_soft_mode_switch_sets_r2(state):
    binding = default_binding().with_overrides({V.CPU_RAM_RD: soft_mode_switch()})
    apply_prevention(state, {V.CPU_RAM_RD}, binding)
    assert state.r2.value == LPM_SWITCH_MASK
    assert state.r2.mode_name == "lpm4"
    assert not state.cpu_halted


def test_strongest_action_wins_and_all_are_logged(state):
    # one cycle raising both a reset-bound and a halt-bound violation
    records = apply_prevention(state, {V.IRQ_RAM, V.CPU_ROM_RD}, default_binding())
    by_kind = {r.violation: r for r in records}
    assert by_kind[V.IRQ_RAM].applied is True
    assert by_kind[V.CPU_ROM_RD].applied is False  # subsumed, still logged
    assert state.ctrl.value & RESET_MASK
    assert not state.cpu_halted  # the weaker action must not fire


def test_equal_strength_soft_masks_all_apply(state):
    binding = default_binding().with_overrides(
        {V.CPU_RAM_RD: soft_mode_switch(0x0010), V.CPU_RAM_WR: soft_mode_switch(0x00C0)}
    )
    apply_prevention(state, {V.CPU_RAM_RD, V.CPU_RAM_WR}, binding)
    assert state.r2.value == 0x00D0  # both masks ORed in


def test_none_binding_records_nothing_applied(state):
    binding = default_binding().with_overrides({V.CPU_ROM_RD: NO_ACTION})
    records = apply_prevention(state, {V.CPU_ROM_RD}, binding)
    assert len(records) == 1 and records[0].applied is False
    assert _marks(state) == NO_MARKS


def test_detection_keeps_running_while_halted(state):
    apply_prevention(state, {V.CPU_ROM_RD}, default_binding())
    assert state.cpu_halted
    violations = step(state, AccessEvent(pc=0x6000, wen=True, dma_en=True, dma_addr=0x4000))
    assert violations == {V.DMA_RAM_WR}  # the monitor is hardware, not CPU code


_actions = st.sampled_from(
    [NO_ACTION, HARD_CPU_OFF, CHIP_GATE_AND_RECOVER, SYSTEM_RESET]
) | st.builds(soft_mode_switch, st.integers(0, 0xFFFF))


@given(
    kinds=st.sets(st.sampled_from(list(V)), min_size=1, max_size=10),
    table=st.fixed_dictionaries({kind: _actions for kind in V}),
)
def test_applied_records_are_exactly_the_strongest(make_state, kinds, table):
    state = make_state()
    binding = PreventionBinding(table)
    before = _marks(state)
    records = apply_prevention(state, kinds, binding)
    assert [r.violation for r in records] == sorted(kinds, key=lambda k: k.value)
    assert [r.action for r in records] == [table[r.violation] for r in records]
    strongest = max(table[k].kind for k in kinds)
    for record in records:
        expected = record.action.kind is strongest and strongest is not ActionKind.NONE
        assert record.applied is expected
    # the winner changes exactly its own mark and leaves the other three
    after = _marks(state)
    changed = [i for i in range(4) if after[i] != before[i]]
    soft = 0
    if strongest is ActionKind.SOFT_MODE_SWITCH:
        for kind in kinds:
            if table[kind].kind is ActionKind.SOFT_MODE_SWITCH:
                soft |= table[kind].mask
    assert state.r2.value == soft  # the OR of the winning masks, from r2 = 0
    marked = strongest is not ActionKind.NONE and (
        strongest is not ActionKind.SOFT_MODE_SWITCH or soft
    )
    assert changed == ([_MARK_OF[strongest]] if marked else [])


def test_plan_is_built_once_per_mask_and_not_inherited(make_state):
    binding = default_binding()
    plan = binding.plan(V.IRQ_RAM.mask | V.CPU_ROM_RD.mask)
    assert binding.plan(V.IRQ_RAM.mask | V.CPU_ROM_RD.mask) is plan
    first = apply_prevention(make_state(), {V.CPU_ROM_RD, V.IRQ_RAM}, binding)
    again = apply_prevention(make_state(), {V.IRQ_RAM, V.CPU_ROM_RD}, binding)
    assert first == again == plan[0]
    assert all(a is b for a, b in zip(first, again))  # the plan's records, shared
    assert plan[1] is ActionKind.SYSTEM_RESET and plan[2] == 0

    # a derived binding starts with no plans: its override must show up
    derived = binding.with_overrides({V.IRQ_RAM: soft_mode_switch(0x0010)})
    state = make_state()
    records = apply_prevention(state, {V.CPU_ROM_RD, V.IRQ_RAM}, derived)
    assert [(r.violation, r.action, r.applied) for r in records] == [
        (V.IRQ_RAM, soft_mode_switch(0x0010), False),
        (V.CPU_ROM_RD, HARD_CPU_OFF, True),
    ]
    assert _marks(state) == (0, True, False, 0)
    # and the parent keeps its own plan
    assert binding.plan(V.IRQ_RAM.mask | V.CPU_ROM_RD.mask) is plan


def test_apply_prevention_returns_the_plans_own_records(state):
    binding = default_binding()
    records = apply_prevention(state, (V.DMA_ROM_RD, V.CPU_RAM_RD), binding)
    assert records is binding.plan(V.DMA_ROM_RD.mask | V.CPU_RAM_RD.mask)[0]
