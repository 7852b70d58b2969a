"""Violation-to-action policy engine.

Four prevention mechanisms, bindable per violation kind, each leaving one
mark on the device state: a software status register mode switch (bit-set
into `r2`, the `bis #240, r2` idiom), a hardware CPU-off idle (`cpu_halted`)
that leaves DMA and peripherals running, chip-enable gating that suppresses
the offending access for as long as its onboard recovery is queued
(`recovery_queued`), and a full system reset requested by register bit D10.

When several bound actions fire in one cycle the strongest wins
(reset > gate+recover > cpu-off > mode switch > none); every bound action is
still logged.  The outcome depends only on the binding and the cycle's
10-bit violation mask, so each binding compiles a mask into its plan once,
the first time the mask occurs, and every later cycle with that mask reads
it back.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from enum import IntEnum

from .detector import MASK_KINDS, RESET_MASK, CtrlRegister, ViolationKind
from .memory import DeviceState

# r2 status word named bits
GIE = 0x0008
CPUOFF = 0x0010
OSCOFF = 0x0020
SCG0 = 0x0040
SCG1 = 0x0080

# the `#240` operand: sets CPUOFF+OSCOFF+SCG0+SCG1
LPM_SWITCH_MASK = 0x00F0

_MODE_NAMES = {
    0x00: "active",
    CPUOFF: "lpm0",
    CPUOFF | SCG0: "lpm1",
    CPUOFF | SCG1: "lpm2",
    CPUOFF | SCG0 | SCG1: "lpm3",
    CPUOFF | OSCOFF | SCG0 | SCG1: "lpm4",
}


@dataclass(frozen=True)
class ModeRegister:
    """16-bit r2 status word; operating mode is a pure function of bits 4-7."""

    value: int = 0

    @property
    def mode_name(self) -> str:
        bits = self.value & (CPUOFF | OSCOFF | SCG0 | SCG1)
        return _MODE_NAMES.get(bits, f"reserved(0x{bits:02X})")


def mode_switch(r2: ModeRegister, mask: int) -> ModeRegister:
    """Bit-set semantics: r2 OR mask (monotone, idempotent)."""
    return ModeRegister(value=(r2.value | mask) & 0xFFFF)


class ActionKind(IntEnum):
    """Prevention actions ordered by precedence (higher wins)."""

    NONE = 0
    SOFT_MODE_SWITCH = 1
    HARD_CPU_OFF = 2
    CHIP_GATE_AND_RECOVER = 3
    SYSTEM_RESET = 4


@dataclass(frozen=True)
class PreventionAction:
    kind: ActionKind
    mask: int = 0  # meaningful for SOFT_MODE_SWITCH only

    def label(self) -> str:
        if self.kind is ActionKind.SOFT_MODE_SWITCH:
            return f"soft_mode_switch(0x{self.mask:04X})"
        return self.kind.name.lower()


NO_ACTION = PreventionAction(ActionKind.NONE)
HARD_CPU_OFF = PreventionAction(ActionKind.HARD_CPU_OFF)
CHIP_GATE_AND_RECOVER = PreventionAction(ActionKind.CHIP_GATE_AND_RECOVER)
SYSTEM_RESET = PreventionAction(ActionKind.SYSTEM_RESET)


def soft_mode_switch(mask: int = LPM_SWITCH_MASK) -> PreventionAction:
    return PreventionAction(ActionKind.SOFT_MODE_SWITCH, mask=mask & 0xFFFF)


class PreventionBinding:
    """Total map from the ten violation kinds to prevention actions."""

    def __init__(self, actions: dict[ViolationKind, PreventionAction]):
        missing = set(ViolationKind) - set(actions)
        if missing:
            names = ", ".join(sorted(k.name for k in missing))
            raise ValueError(f"binding must cover every kind; missing {names}")
        self._actions = dict(actions)
        self._plans: dict[int, tuple[tuple[ActionRecord, ...], ActionKind, int]] = {}

    def action_for(self, kind: ViolationKind) -> PreventionAction:
        return self._actions[kind]

    def with_overrides(
        self, overrides: dict[ViolationKind, PreventionAction]
    ) -> PreventionBinding:
        merged = dict(self._actions)
        merged.update(overrides)
        return PreventionBinding(merged)

    def plan(self, mask: int) -> tuple[tuple[ActionRecord, ...], ActionKind, int]:
        """What a cycle with violation mask `mask` does: its records in bit
        order, the strongest bound kind, and the OR of the soft-mode masks
        that win (0 unless a soft mode switch is strongest).

        Built on the first call for each mask and cached; the records are
        frozen, so every row with this mask shares them.
        """
        plan = self._plans.get(mask)
        if plan is None:
            bound = [(kind, self._actions[kind]) for kind in MASK_KINDS[mask]]
            strongest = max((action.kind for _, action in bound), default=ActionKind.NONE)
            live = strongest is not ActionKind.NONE
            records = tuple(
                ActionRecord(kind, action, applied=live and action.kind is strongest)
                for kind, action in bound
            )
            soft = 0
            if strongest is ActionKind.SOFT_MODE_SWITCH:
                # several masks may share the top precedence; OR them all in
                for _, action in bound:
                    if action.kind is ActionKind.SOFT_MODE_SWITCH:
                        soft |= action.mask
            plan = self._plans[mask] = (records, strongest, soft)
        return plan


def default_binding() -> PreventionBinding:
    """Worked-example policy: key-ROM reads idle the CPU, atomicity resets,
    everything else gates the access and recovers."""
    actions = {kind: CHIP_GATE_AND_RECOVER for kind in ViolationKind}
    actions[ViolationKind.CPU_ROM_RD] = HARD_CPU_OFF
    actions[ViolationKind.IRQ_RAM] = SYSTEM_RESET
    actions[ViolationKind.IRQ_STACK] = SYSTEM_RESET
    return PreventionBinding(actions)


def ctrl_cen_sel(ctrl: CtrlRegister) -> bool:
    """Chip-enable select: OR of the memory-access violation bits D2-D9.

    The atomicity bits D0/D1 are excluded; they bind to the reset path.
    """
    return bool(ctrl.value & 0x03FC)


@dataclass(frozen=True)
class ActionRecord:
    violation: ViolationKind
    action: PreventionAction
    applied: bool


def apply_prevention(
    state: DeviceState,
    violations: Iterable[ViolationKind],
    binding: PreventionBinding,
) -> tuple[ActionRecord, ...]:
    """Apply the strongest bound action for this cycle's violations.

    The winner changes exactly one mark: mode switch ORs the mask into r2;
    CPU-off sets `cpu_halted` (DMA and peripherals stay usable); gate+recover
    sets `recovery_queued`, the raised chip-enable gate, which suppresses the
    offending access in this same cycle; reset latches D10, the reset
    request.  Subsumed actions are logged with applied=False.  Arbitration
    is the binding's cached `plan` for the violation mask, and the records
    returned are that plan's tuple itself, shared by every cycle with the
    same mask; no violation returns ().
    """
    mask = 0
    for kind in violations:
        mask |= 1 << kind._value_  # `.value` without the enum descriptor call
    if not mask:
        return ()
    records, strongest, soft = binding.plan(mask)
    if strongest is ActionKind.CHIP_GATE_AND_RECOVER:
        state.recovery_queued = True
    elif strongest is ActionKind.SYSTEM_RESET:
        state.ctrl.latch(RESET_MASK)
    elif strongest is ActionKind.HARD_CPU_OFF:
        state.cpu_halted = True
    elif strongest is ActionKind.SOFT_MODE_SWITCH:
        state.r2 = mode_switch(state.r2, soft)
    return records
