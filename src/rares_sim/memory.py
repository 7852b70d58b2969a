"""Device memory geography and mutable state.

A 16-bit flat address space split into seven regions (boot ROM, key ROM,
recovery ROM, flash, application RAM, reserved stack, metadata).  Region
bounds are configuration, not constants; :data:`DEFAULT_REGIONS` is one
workable arrangement.  The three ROM kinds and the metadata region are
never writable through simulated accesses; the metadata region is a
read-only view of state that :class:`DeviceState` owns.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from enum import Enum

ADDR_MASK = 0xFFFF
KEY_SIZE = 32
DIGEST_SIZE = 32

# Metadata region byte offsets.  The first two bytes hold the detection
# register image (little-endian); the flash reference digest and the
# proof-of-execution window (er_min, er_max little-endian, exec flag) follow
# when the region is large enough to hold them.  These header bytes of
# mem[METADATA] are rendered by the read accessors; code that reads
# ``state.mem`` directly calls ``sync_metadata`` first.
META_CTRL_OFF = 0
META_DIGEST_OFF = 2
META_EXEC_OFF = META_DIGEST_OFF + DIGEST_SIZE


class LayoutError(ValueError):
    """An invalid region map definition."""


class UnmappedAddressError(KeyError):
    """Write issued to an address outside every mapped region."""


class RegionKind(Enum):
    BOOT_ROM = "boot_rom"
    KEY_ROM = "key_rom"
    RECOVERY_ROM = "recovery_rom"
    FLASH = "flash"
    APP_RAM = "app_ram"
    RESERVED_STACK = "reserved_stack"
    METADATA = "metadata"

    # members are singletons, so identity hashing is enough; Enum's own
    # `__hash__` is a Python call on every `mem[kind]` or `region(kind)`
    __hash__ = object.__hash__


ROM_KINDS = frozenset({RegionKind.BOOT_ROM, RegionKind.KEY_ROM, RegionKind.RECOVERY_ROM})


@dataclass(frozen=True)
class Region:
    kind: RegionKind
    start: int
    end: int  # inclusive

    @property
    def size(self) -> int:
        return self.end - self.start + 1


DEFAULT_REGIONS = [
    (RegionKind.RESERVED_STACK, 0x0200, 0x0AFF),
    (RegionKind.METADATA, 0x0B00, 0x0B3F),
    (RegionKind.APP_RAM, 0x4000, 0x5FFF),
    (RegionKind.BOOT_ROM, 0x6000, 0x69FF),
    (RegionKind.KEY_ROM, 0x6A00, 0x6A1F),
    (RegionKind.RECOVERY_ROM, 0x7000, 0x77FF),
    (RegionKind.FLASH, 0xE000, 0xE7FF),
]


# Region-kind codes of `MemoryLayout.index`: 0 marks a gap, then the kinds
# in declaration order.  The detector's rule table is indexed by these codes.
KIND_BY_CODE: tuple[RegionKind | None, ...] = (None, *RegionKind)
_CODE_BY_KIND = {kind: code for code, kind in enumerate(KIND_BY_CODE) if kind}


def addr_text(addr: int) -> str:
    """An address in hex for messages, with the sign in front: -0x1, 0x10000."""
    return f"-0x{-addr:X}" if addr < 0 else f"0x{addr:X}"


class MemoryLayout:
    """Validated, non-overlapping region map with total address lookup.

    ``index`` holds one byte per 16-bit address: the code in `KIND_BY_CODE`
    of the region kind mapped there, 0 in a gap.
    """

    def __init__(self, regions: list[Region]):
        self.regions = sorted(regions, key=lambda r: r.start)
        self._by_kind = {r.kind: r for r in self.regions}
        self._by_code = tuple(self._by_kind.get(kind) for kind in KIND_BY_CODE)
        index = bytearray(ADDR_MASK + 1)
        for r in self.regions:
            index[r.start:r.end + 1] = bytes([_CODE_BY_KIND[r.kind]]) * r.size
        self.index = bytes(index)

    def region(self, kind: RegionKind) -> Region:
        return self._by_kind[kind]

    def classify(self, addr: int) -> RegionKind | None:
        if 0 <= addr <= ADDR_MASK:
            return KIND_BY_CODE[self.index[addr]]
        return None

    def span(self, start: int, end: int) -> Region | None:
        """The region holding all of [start, end]; None when the range is
        inverted, starts in a gap, or leaves its region."""
        if 0 <= start <= end <= ADDR_MASK:
            code = self.index[start]
            # each kind maps one contiguous region, so equal codes at both
            # ends cover everything between them
            if code and self.index[end] == code:
                return self._by_code[code]
        return None


def build_layout(regions: list[tuple[RegionKind, int, int]] | None = None) -> MemoryLayout:
    """Validate a region list (each kind exactly once, disjoint, 16-bit bounds).

    Raises LayoutError on a malformed map.
    """
    if regions is None:
        regions = DEFAULT_REGIONS
    seen: set[RegionKind] = set()
    built: list[Region] = []
    for kind, start, end in regions:
        if kind in seen:
            raise LayoutError(f"region {kind.value} supplied twice")
        seen.add(kind)
        if not (0 <= start <= ADDR_MASK and 0 <= end <= ADDR_MASK):
            raise LayoutError(f"region {kind.value} bounds outside 16-bit space")
        if start > end:
            raise LayoutError(f"region {kind.value} has start 0x{start:04X} > end 0x{end:04X}")
        built.append(Region(kind, start, end))
    for kind in RegionKind:
        if kind not in seen:
            raise LayoutError(f"region {kind.value} missing")
    built.sort(key=lambda r: r.start)
    for a, b in zip(built, built[1:]):
        if b.start <= a.end:
            raise LayoutError(
                f"regions {a.kind.value} and {b.kind.value} overlap at 0x{b.start:04X}"
            )
    key_rom = next(r for r in built if r.kind == RegionKind.KEY_ROM)
    if key_rom.size != KEY_SIZE:
        raise LayoutError(f"key ROM must be {KEY_SIZE} bytes, got {key_rom.size}")
    meta = next(r for r in built if r.kind == RegionKind.METADATA)
    if meta.size < 2:
        raise LayoutError("metadata region must hold at least the 2-byte register image")
    return MemoryLayout(built)


@dataclass(frozen=True)
class GoldenImage:
    """Untampered flash copy plus the digest the boot check compares against."""

    image: bytes
    reference_digest: bytes


class WriteResult(Enum):
    APPLIED = "applied"
    SUPPRESSED = "suppressed"


@dataclass
class ExecMetadata:
    """Proof-of-execution bookkeeping for one executable-region window."""

    er_min: int = 0
    er_max: int = 0
    exec_flag: bool = False
    armed: bool = False
    window_clean: bool = False


class DeviceState:
    """One device's memories, detection register, and prevention latches.

    The register, the reference digest and the exec metadata are owned here;
    the header of ``mem[METADATA]`` is only their rendering, written by
    `sync_metadata` when `read_byte`, `region_bytes` or `region_digests`
    reads it.  Code that reads ``mem`` directly calls `sync_metadata` first.

    Single-threaded during a run; independent instances may run in parallel.
    """

    def __init__(self, layout: MemoryLayout):
        from .detector import CtrlRegister
        from .prevention import ModeRegister

        self.layout = layout
        self.mem: dict[RegionKind, bytearray] = {
            r.kind: bytearray(r.size) for r in layout.regions
        }
        # `apply_write`'s view of the map, indexed by `layout.index` code:
        # None for the gap, else (buffer, region start) with no buffer for
        # the ROMs and the metadata view.  The buffers are only ever changed
        # in place, so the view never goes stale.
        read_only = ROM_KINDS | {RegionKind.METADATA}
        self._write_targets = tuple(
            None if region is None else (
                None if region.kind in read_only else self.mem[region.kind],
                region.start,
            )
            for region in layout._by_code
        )
        self.ctrl = CtrlRegister()
        self.r2 = ModeRegister()
        self.cpu_halted = False
        self.recovery_queued = False
        self.exec_meta = ExecMetadata()
        self.reference_digest = bytes(DIGEST_SIZE)
        self.cycle = 0

    # -- provisioning -------------------------------------------------

    def set_region_bytes(self, kind: RegionKind, data: bytes) -> None:
        """Load region contents directly (scenario provisioning, not a bus access)."""
        buf = self.mem[kind]
        if len(data) > len(buf):
            raise ValueError(f"{len(data)} bytes exceed region {kind.value}")
        buf[:len(data)] = data

    def provision_golden(self, golden: GoldenImage) -> None:
        """Install the recovery image and its reference digest.

        The image bytes live in the recovery ROM; the digest is kept in
        `reference_digest`, which the metadata view renders when it fits.
        """
        flash_size = self.layout.region(RegionKind.FLASH).size
        if len(golden.image) != flash_size:
            raise ValueError(
                f"golden image is {len(golden.image)} bytes, flash region is {flash_size}"
            )
        recovery = self.layout.region(RegionKind.RECOVERY_ROM)
        if recovery.size < flash_size:
            raise ValueError("recovery ROM smaller than the flash region")
        self.set_region_bytes(RegionKind.RECOVERY_ROM, golden.image)
        if len(golden.reference_digest) != DIGEST_SIZE:
            raise ValueError("reference digest must be 32 bytes")
        self.reference_digest = bytes(golden.reference_digest)

    # -- accessors ----------------------------------------------------

    def key(self) -> bytes:
        return bytes(self.mem[RegionKind.KEY_ROM])

    def flash_bytes(self) -> bytes:
        return bytes(self.mem[RegionKind.FLASH])

    def read_byte(self, addr: int) -> int:
        """Bus read; gap addresses read as 0x00."""
        kind = self.layout.classify(addr)
        if kind is None:
            return 0x00
        if kind is RegionKind.METADATA:
            self.sync_metadata()
        region = self.layout.region(kind)
        return self.mem[kind][addr - region.start]

    def region_bytes(self, start: int, end: int) -> bytes:
        """Contents of [start, end] inclusive; bounds must share one region."""
        region = self.layout.span(start, end)
        if region is None:
            raise ValueError(f"range {addr_text(start)}-{addr_text(end)} not within one region")
        if region.kind is RegionKind.METADATA:
            self.sync_metadata()
        return bytes(self.mem[region.kind][start - region.start:end - region.start + 1])

    def region_digests(self) -> dict[str, str]:
        self.sync_metadata()
        return {
            kind.value: hashlib.sha256(bytes(buf)).hexdigest()
            for kind, buf in sorted(self.mem.items(), key=lambda kv: kv[0].value)
        }

    # -- metadata view ------------------------------------------------

    def sync_metadata(self) -> None:
        """Render the metadata header (register, digest, exec state) into
        ``mem[METADATA]``, writing only the fields that fit the region."""
        meta = self.mem[RegionKind.METADATA]
        struct.pack_into("<H", meta, META_CTRL_OFF, self.ctrl.value)
        if len(meta) >= META_EXEC_OFF:
            meta[META_DIGEST_OFF:META_EXEC_OFF] = self.reference_digest
        if len(meta) >= META_EXEC_OFF + 5:
            em = self.exec_meta
            struct.pack_into("<HH?", meta, META_EXEC_OFF, em.er_min, em.er_max, em.exec_flag)


def apply_write(state: DeviceState, addr: int, byte: int) -> WriteResult:
    """Store one byte through the memory backbone.

    Suppressed (memory untouched) while the chip-enable gate is raised, that
    is while `state.recovery_queued` holds, or when the target is a ROM kind
    or the metadata view.  Raises UnmappedAddressError for gap addresses.
    """
    if not 0 <= byte <= 0xFF:
        raise ValueError(f"byte value {byte!r} out of range")
    target = state._write_targets[state.layout.index[addr]] if 0 <= addr <= ADDR_MASK else None
    if target is None:
        raise UnmappedAddressError(addr_text(addr))
    buf, start = target
    if buf is None or state.recovery_queued:
        return WriteResult.SUPPRESSED
    buf[addr - start] = byte
    return WriteResult.APPLIED
