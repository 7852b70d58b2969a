"""Hardware-monitor detection logic.

Seven tapped bus control signals are classified against a fixed rule table
every machine clock cycle, and matched violations latch sticky bits into a
16-bit detection register in that same cycle.

Register bit map (one bit per violation kind, fixed):

    D0  IRQ_RAM        interrupt during application-RAM execution
    D1  IRQ_STACK      interrupt during attestation-code execution
    D2  DMA_RAM_WR     DMA write to app RAM during attestation code
    D3  DMA_RAM_RD     DMA read of app RAM during attestation code
    D4  DMA_STACK_RD   DMA read of reserved stack from foreign context
    D5  DMA_ROM_RD     DMA read of key ROM (or boot ROM from foreign context)
    D6  CPU_RAM_WR     CPU write to app RAM during attestation code
    D7  CPU_RAM_RD     CPU read of app RAM during attestation code
    D8  CPU_STACK_RD   CPU read of reserved stack from foreign context
    D9  CPU_ROM_RD     CPU read of key ROM (or boot ROM from foreign context)
    D10 reset trigger (set only by the prevention engine)
    D11-D15 reserved, always zero

Bits are sticky: only a system reset or a completed recovery clears them.
Software has read access but no write path.

Rule table (normative):

    R1  IRQ_RAM       irq while executing in app RAM
    R2  IRQ_STACK     irq while executing attestation code (boot ROM)
    R3  CPU_ROM_RD    CPU read of key ROM outside attestation code;
                      CPU read of boot ROM from a foreign context
    R4  CPU_STACK_RD  CPU read of reserved stack from a foreign context
    R5  CPU_RAM_RD/WR CPU access to app RAM during attestation code
    R6  DMA_ROM_RD    DMA read of key ROM outside attestation code;
                      DMA read of boot ROM from a foreign context
    R7  DMA_STACK_RD  DMA read of reserved stack from a foreign context
    R8  DMA_RAM_RD/WR DMA access to app RAM during attestation code

"Foreign context" means the program counter is neither in app RAM nor in
boot ROM.  Stack and boot-ROM reads from app-RAM context are allowed.

The rules read only region kinds, so they are evaluated once, at import,
into `RULE_MASKS`: one 10-bit mask per (pc kind, target kind, dma_en, wen,
ren, irq).  A cycle's classification is then one lookup through the
layout's address index.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .attestation import pox_observe
from .memory import ADDR_MASK, KIND_BY_CODE, DeviceState, MemoryLayout, RegionKind, addr_text


class WriteAccessDenied(PermissionError):
    """The detection register has no software write path."""


class ExecContext(Enum):
    IN_APP = "in_app"
    IN_SW_ATT = "in_sw_att"
    OTHER = "other"


class ViolationKind(Enum):
    """Ten classified violation kinds; the enum value is the register bit."""

    IRQ_RAM = 0
    IRQ_STACK = 1
    DMA_RAM_WR = 2
    DMA_RAM_RD = 3
    DMA_STACK_RD = 4
    DMA_ROM_RD = 5
    CPU_RAM_WR = 6
    CPU_RAM_RD = 7
    CPU_STACK_RD = 8
    CPU_ROM_RD = 9

    __hash__ = object.__hash__  # singletons: identity hashing, no Python call

    @property
    def mask(self) -> int:
        return 1 << self.value


RESET_BIT = 10
RESET_MASK = 1 << RESET_BIT
DETECT_MASK = 0x03FF  # D0-D9


class CtrlRegister:
    """16-bit sticky detection register; software-readable, never writable.

    An initial value is set through `latch`, so it cannot hold reserved bits.
    """

    def __init__(self, value: int = 0):
        self._value = 0
        self.latch(value)

    @property
    def value(self) -> int:
        return self._value

    def latch(self, mask: int) -> None:
        """Hardware latch path; reserved bits cannot be set."""
        if mask & ~(DETECT_MASK | RESET_MASK):
            raise ValueError(f"mask 0x{mask:04X} touches reserved bits")
        self._value |= mask

    def clear_detection_bits(self) -> None:
        """Recovery completion clears D0-D9 (D10 untouched)."""
        self._value &= ~DETECT_MASK

    def clear_all(self) -> None:
        """System reset clears every bit."""
        self._value = 0

    def __repr__(self) -> str:
        return f"CtrlRegister(0x{self._value:04X})"


def decode_bits(value: int) -> list[str]:
    """Human names of the set bits, e.g. ['D9:CPU_ROM_RD']."""
    names = [f"D{k.value}:{k.name}" for k in MASK_KINDS[value & DETECT_MASK]]
    if value & RESET_MASK:
        names.append(f"D{RESET_BIT}:RESET")
    return names


@dataclass(frozen=True, slots=True)
class AccessEvent:
    """One cycle's snapshot of the seven tapped control signals.

    With dma_en set, ren/wen give the DMA transfer direction and dma_addr
    the target; otherwise they describe the CPU access at daddr.  The
    constructor checks the fields; the scenario parser, which has made the
    same checks on each trace row, fills the slots directly.
    """

    pc: int = 0
    irq: bool = False
    ren: bool = False
    wen: bool = False
    daddr: int = 0
    dma_en: bool = False
    dma_addr: int = 0

    def __post_init__(self):
        if self.ren and self.wen:
            raise ValueError("ren and wen cannot both be set in one event")
        for name in ("pc", "daddr", "dma_addr"):
            addr = getattr(self, name)
            if not 0 <= addr <= ADDR_MASK:
                raise ValueError(f"{name}={addr_text(addr)} outside 16-bit space")


def _context_of(kind: RegionKind | None) -> ExecContext:
    if kind is RegionKind.APP_RAM:
        return ExecContext.IN_APP
    if kind is RegionKind.BOOT_ROM:
        return ExecContext.IN_SW_ATT
    return ExecContext.OTHER


def exec_context(layout: MemoryLayout, pc: int) -> ExecContext:
    return _context_of(layout.classify(pc))


def _irq_mask(ctx: ExecContext) -> int:
    """R1-R2: the bit an interrupt latches in execution context `ctx`."""
    if ctx is ExecContext.IN_APP:
        return ViolationKind.IRQ_RAM.mask
    if ctx is ExecContext.IN_SW_ATT:
        return ViolationKind.IRQ_STACK.mask
    return 0


def _cpu_access_mask(ctx: ExecContext, target: RegionKind | None, ren: bool, wen: bool) -> int:
    """R3-R5: the bits of one CPU access from `ctx` to a `target` kind.

    R6-R8 are the same rules on the DMA bus, whose bits sit 4 lower
    (D2-D5 against D6-D9).
    """
    mask = 0
    if wen and target is RegionKind.APP_RAM and ctx is ExecContext.IN_SW_ATT:
        mask |= ViolationKind.CPU_RAM_WR.mask
    if ren:
        if target is RegionKind.APP_RAM and ctx is ExecContext.IN_SW_ATT:
            mask |= ViolationKind.CPU_RAM_RD.mask
        if target is RegionKind.RESERVED_STACK and ctx is ExecContext.OTHER:
            mask |= ViolationKind.CPU_STACK_RD.mask
        if target is RegionKind.KEY_ROM and ctx is not ExecContext.IN_SW_ATT:
            mask |= ViolationKind.CPU_ROM_RD.mask
        if target is RegionKind.BOOT_ROM and ctx is ExecContext.OTHER:
            mask |= ViolationKind.CPU_ROM_RD.mask
    return mask


_DMA_SHIFT = 4


def _build_rule_masks() -> tuple[int, ...]:
    """R1-R8 for every signal combination, in `cycle_mask`'s index order:
    pc kind code, target kind code, dma_en, wen, ren, irq (lowest bit)."""
    by_context: dict[ExecContext, list[int]] = {}
    for ctx in ExecContext:
        irq = _irq_mask(ctx)
        row = by_context[ctx] = []
        for target in KIND_BY_CODE:
            for shift in (0, _DMA_SHIFT):
                for wen in (False, True):
                    for ren in (False, True):
                        access = _cpu_access_mask(ctx, target, ren, wen) >> shift
                        row += (access, access | irq)
    return tuple(m for pc_kind in KIND_BY_CODE for m in by_context[_context_of(pc_kind)])


def _build_mask_kinds() -> tuple[tuple[ViolationKind, ...], ...]:
    """Each 10-bit mask's kinds in bit order, built by doubling: the masks
    with bit b set are those below 2**b plus that bit's kind."""
    table: list[tuple[ViolationKind, ...]] = [()]
    for kind in ViolationKind:  # declared in bit order
        table += [kinds + (kind,) for kinds in table]
    return tuple(table)


RULE_MASKS = _build_rule_masks()
MASK_KINDS = _build_mask_kinds()


# An event's four flags packed into one integer: the low four bits of a
# `RULE_MASKS` index, in the order `_build_rule_masks` nests them.
IRQ, REN, WEN, DMA_EN = 1, 2, 4, 8


def event_flags(event: AccessEvent) -> int:
    """`event`'s flags, packed as IRQ | REN | WEN | DMA_EN."""
    return event.irq * IRQ | event.ren * REN | event.wen * WEN | event.dma_en * DMA_EN


def event_cycle(event: AccessEvent) -> tuple[int, int, int]:
    """`event` as the detection core reads a cycle: its pc, its target
    address (the DMA address when DMA is enabled) and its packed flags."""
    return event.pc, event.dma_addr if event.dma_en else event.daddr, event_flags(event)


def cycle_mask(layout: MemoryLayout, pc: int, target: int, flags: int) -> int:
    """The detection bits a cycle matches: R1-R8 as one table lookup.

    Kind codes take 3 bits (seven kinds and the gap), so the index packs
    pc code, target code and the four flags into 10 bits.
    """
    index = layout.index
    return RULE_MASKS[index[pc] << 7 | index[target] << 4 | flags]


def classify(layout: MemoryLayout, event: AccessEvent) -> set[ViolationKind]:
    """Pure rule-table match; benign events yield the empty set."""
    return set(MASK_KINDS[cycle_mask(layout, *event_cycle(event))])


def latch_cycle(state: DeviceState, pc: int, target: int, flags: int) -> int:
    """Advance one machine clock cycle; return the matched mask.

    The one detection path, for a cycle given as `cycle_mask` takes it.
    Latches the matched bits within the same cycle, bumps the cycle counter,
    and feeds the cycle to the proof-of-execution observer.
    """
    mask = cycle_mask(state.layout, pc, target, flags)
    if mask:
        state.ctrl.latch(mask)
    state.cycle += 1
    pox_observe(state, pc, flags & IRQ, mask)
    return mask


def step(state: DeviceState, event: AccessEvent) -> set[ViolationKind]:
    """`latch_cycle` for one event, returning the violations matched this
    cycle (already latched) as a set."""
    return set(MASK_KINDS[latch_cycle(state, *event_cycle(event))])


def software_read_ctrl(state: DeviceState) -> int:
    """The register's one software-facing operation."""
    return state.ctrl.value


def software_write_ctrl(state: DeviceState, word: int) -> None:
    """Always fails: no write API exists.  State is untouched."""
    raise WriteAccessDenied(
        f"detection register is read-only to software (attempted write 0x{word & 0xFFFF:04X})"
    )
