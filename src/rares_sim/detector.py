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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .attestation import pox_observe
from .memory import ADDR_MASK, DeviceState, MemoryLayout, RegionKind


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

    @property
    def bit(self) -> int:
        return self.value

    @property
    def mask(self) -> int:
        return 1 << self.value


RESET_BIT = 10
RESET_MASK = 1 << RESET_BIT
DETECT_MASK = 0x03FF  # D0-D9
RESERVED_MASK = 0xF800  # D11-D15

_BIT_TO_KIND = {k.bit: k for k in ViolationKind}


class CtrlRegister:
    """16-bit sticky detection register; software-readable, never writable."""

    def __init__(self, value: int = 0):
        self._value = value & 0xFFFF

    @property
    def value(self) -> int:
        return self._value

    def latch(self, mask: int) -> None:
        """Hardware latch path; reserved bits cannot be set."""
        if mask & ~(DETECT_MASK | RESET_MASK):
            raise ValueError(f"mask 0x{mask:04X} touches reserved bits")
        self._value |= mask

    def has(self, kind: ViolationKind) -> bool:
        return bool(self._value & kind.mask)

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
    names = [f"D{b}:{_BIT_TO_KIND[b].name}" for b in range(10) if value & (1 << b)]
    if value & RESET_MASK:
        names.append(f"D{RESET_BIT}:RESET")
    return names


@dataclass(frozen=True)
class AccessEvent:
    """One cycle's snapshot of the seven tapped control signals.

    With dma_en set, ren/wen give the DMA transfer direction and dma_addr
    the target; otherwise they describe the CPU access at daddr.
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
                raise ValueError(f"{name}=0x{addr:X} outside 16-bit space")


def exec_context(layout: MemoryLayout, pc: int) -> ExecContext:
    kind = layout.classify(pc)
    if kind is RegionKind.APP_RAM:
        return ExecContext.IN_APP
    if kind is RegionKind.BOOT_ROM:
        return ExecContext.IN_SW_ATT
    return ExecContext.OTHER


# Each bus's (RAM write, RAM read, stack read, ROM read) kinds, indexed by
# dma_en; every DMA bit is its CPU bit - 4 (D2-D5 vs D6-D9).
_BUS_KINDS = (
    (ViolationKind.CPU_RAM_WR, ViolationKind.CPU_RAM_RD,
     ViolationKind.CPU_STACK_RD, ViolationKind.CPU_ROM_RD),
    (ViolationKind.DMA_RAM_WR, ViolationKind.DMA_RAM_RD,
     ViolationKind.DMA_STACK_RD, ViolationKind.DMA_ROM_RD),
)


def classify(layout: MemoryLayout, event: AccessEvent) -> set[ViolationKind]:
    """Pure rule-table match; benign events yield the empty set."""
    out: set[ViolationKind] = set()
    ctx = exec_context(layout, event.pc)
    if event.irq:
        if ctx is ExecContext.IN_APP:
            out.add(ViolationKind.IRQ_RAM)
        elif ctx is ExecContext.IN_SW_ATT:
            out.add(ViolationKind.IRQ_STACK)
    ram_wr, ram_rd, stack_rd, rom_rd = _BUS_KINDS[event.dma_en]
    target = layout.classify(event.dma_addr if event.dma_en else event.daddr)
    if event.wen and target is RegionKind.APP_RAM and ctx is ExecContext.IN_SW_ATT:
        out.add(ram_wr)
    if event.ren:
        if target is RegionKind.APP_RAM and ctx is ExecContext.IN_SW_ATT:
            out.add(ram_rd)
        if target is RegionKind.RESERVED_STACK and ctx is ExecContext.OTHER:
            out.add(stack_rd)
        if target is RegionKind.KEY_ROM and ctx is not ExecContext.IN_SW_ATT:
            out.add(rom_rd)
        if target is RegionKind.BOOT_ROM and ctx is ExecContext.OTHER:
            out.add(rom_rd)
    return out


def violations_mask(violations: set[ViolationKind]) -> int:
    mask = 0
    for kind in violations:
        mask |= kind.mask
    return mask


def step(state: DeviceState, event: AccessEvent) -> set[ViolationKind]:
    """Advance one machine clock cycle.

    Latches the matched bits within the same cycle, bumps the cycle counter,
    and feeds the event to the proof-of-execution observer.  Returns the
    violations matched this cycle (already latched).
    """
    violations = classify(state.layout, event)
    state.ctrl.latch(violations_mask(violations))
    state.cycle += 1
    pox_observe(state, event, violations)
    return violations


def software_read_ctrl(state: DeviceState) -> int:
    """The register's one software-facing operation."""
    return state.ctrl.value


def software_write_ctrl(state: DeviceState, word: int) -> None:
    """Always fails: no write API exists.  State is untouched."""
    raise WriteAccessDenied(
        f"detection register is read-only to software (attempted write 0x{word & 0xFFFF:04X})"
    )
