"""Region map validation, address classification, and the write backbone."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import slotted_layouts

from rares_sim.attestation import (
    AttestRequest,
    attest,
    hmac_sha256,
    pox_begin,
    pox_end,
    verify_report,
)
from rares_sim.detector import AccessEvent, step
from rares_sim.memory import (
    DEFAULT_REGIONS,
    DeviceState,
    GoldenImage,
    LayoutError,
    Region,
    RegionKind,
    ROM_KINDS,
    UnmappedAddressError,
    WriteResult,
    apply_write,
    build_layout,
)
from rares_sim.prevention import apply_prevention, default_binding
from rares_sim.scenario import parse_scenario, run
from rares_sim.secureboot import reflash


def classify_linear(regions, addr):
    """Straight linear scan over the region list: the lookup oracle."""
    for region in regions:
        if region.start <= addr <= region.end:
            return region.kind
    return None


# -- layout validation ---------------------------------------------------


def test_default_layout_builds():
    layout = build_layout()
    assert {r.kind for r in layout.regions} == set(RegionKind)


@pytest.mark.parametrize(
    "addr,kind",
    [
        (0x0200, RegionKind.RESERVED_STACK),
        (0x0AFF, RegionKind.RESERVED_STACK),
        (0x0B00, RegionKind.METADATA),
        (0x4000, RegionKind.APP_RAM),
        (0x5FFF, RegionKind.APP_RAM),
        (0x6000, RegionKind.BOOT_ROM),
        (0x6A00, RegionKind.KEY_ROM),
        (0x6A1F, RegionKind.KEY_ROM),
        (0x7000, RegionKind.RECOVERY_ROM),
        (0xE000, RegionKind.FLASH),
        (0x0000, None),
        (0x01FF, None),
        (0x3FFF, None),
        (0x6A20, None),
        (0xFFFF, None),
    ],
)
def test_classify_known_addresses(layout, addr, kind):
    assert layout.classify(addr) == kind


def test_duplicate_region_rejected():
    regions = DEFAULT_REGIONS + [(RegionKind.FLASH, 0xF000, 0xF7FF)]
    with pytest.raises(LayoutError, match="^region flash supplied twice$"):
        build_layout(regions)


def test_missing_region_rejected():
    regions = [r for r in DEFAULT_REGIONS if r[0] is not RegionKind.METADATA]
    with pytest.raises(LayoutError, match="^region metadata missing$"):
        build_layout(regions)


def test_overlap_rejected():
    regions = [
        (RegionKind.APP_RAM, 0x4000, 0x5FFF) if kind is RegionKind.APP_RAM else (kind, s, e)
        for kind, s, e in DEFAULT_REGIONS
    ]
    regions = [
        (RegionKind.BOOT_ROM, 0x5F00, 0x69FF) if kind is RegionKind.BOOT_ROM else (kind, s, e)
        for kind, s, e in regions
    ]
    with pytest.raises(LayoutError, match="^regions app_ram and boot_rom overlap at 0x5F00$"):
        build_layout(regions)


def test_inverted_bounds_rejected():
    regions = [
        (kind, 0x5FFF, 0x4000) if kind is RegionKind.APP_RAM else (kind, s, e)
        for kind, s, e in DEFAULT_REGIONS
    ]
    with pytest.raises(LayoutError):
        build_layout(regions)


def test_key_rom_must_hold_exactly_the_key():
    regions = [
        (kind, 0x6A00, 0x6A0F) if kind is RegionKind.KEY_ROM else (kind, s, e)
        for kind, s, e in DEFAULT_REGIONS
    ]
    with pytest.raises(LayoutError, match="^key ROM must be 32 bytes, got 16$"):
        build_layout(regions)


def test_bounds_outside_address_space_rejected():
    regions = [
        (kind, 0xE000, 0x10000) if kind is RegionKind.FLASH else (kind, s, e)
        for kind, s, e in DEFAULT_REGIONS
    ]
    with pytest.raises(LayoutError):
        build_layout(regions)


# -- classification against the linear-scan oracle ------------------------


@st.composite
def disjoint_layouts(draw):
    """Seven disjoint regions packed left to right with random gaps."""
    kinds = list(RegionKind)
    order = draw(st.permutations(kinds))
    cursor = draw(st.integers(0, 64))
    rows = []
    for kind in order:
        size = 32 if kind is RegionKind.KEY_ROM else draw(st.integers(2, 512))
        start = cursor + draw(st.integers(0, 128))
        rows.append((kind, start, start + size - 1))
        cursor = start + size
    return rows


@given(rows=disjoint_layouts(), addr=st.integers(0, 0xFFFF))
@settings(max_examples=300)
def test_classify_matches_linear_scan(rows, addr):
    layout = build_layout(rows)
    assert layout.classify(addr) == classify_linear(layout.regions, addr)


@given(addr=st.integers(0, 0xFFFF))
def test_default_classify_matches_linear_scan(layout, addr):
    assert layout.classify(addr) == classify_linear(layout.regions, addr)


@given(rows=disjoint_layouts(), start=st.integers(0, 0x1400), length=st.integers(-8, 600))
@settings(max_examples=300)
def test_span_matches_linear_scan(rows, start, length):
    layout = build_layout(rows)
    end = start + length
    kind = classify_linear(layout.regions, start)
    same = kind is not None and start <= end and classify_linear(layout.regions, end) is kind
    assert layout.span(start, end) == (layout.region(kind) if same else None)
    assert list(map(layout.classify, range(0x10000))) == kinds_by_linear_scan(layout.regions)


def kinds_by_linear_scan(regions):
    """The kind at each of the 65 536 addresses, walking the disjoint
    regions in address order and filling the gaps with None."""
    kinds = []
    for region in sorted(regions, key=lambda r: r.start):
        kinds += [None] * (region.start - len(kinds)) + [region.kind] * region.size
    return kinds + [None] * (0x10000 - len(kinds))


def test_region_fenceposts(layout):
    for region in layout.regions:
        assert layout.classify(region.start) == region.kind
        assert layout.classify(region.end) == region.kind
        before = layout.classify(region.start - 1) if region.start else None
        assert before != region.kind


# -- write backbone -------------------------------------------------------


def test_write_to_ram_applies(state):
    assert apply_write(state, 0x4010, 0xAB) is WriteResult.APPLIED
    assert state.read_byte(0x4010) == 0xAB


def test_rom_regions_reject_every_write(state):
    before = state.region_digests()
    for kind in ROM_KINDS:
        region = state.layout.region(kind)
        for addr in range(region.start, region.end + 1):
            assert apply_write(state, addr, 0xFF) is WriteResult.SUPPRESSED
    assert state.region_digests() == before


def test_gate_suppresses_all_writes(state):
    state.recovery_queued = True  # the chip-enable gate holds until the recovery runs
    before = state.region_digests()
    for addr in (0x4000, 0x0200, 0xE000, 0x0B00):
        assert apply_write(state, addr, 0x55) is WriteResult.SUPPRESSED
    assert state.region_digests() == before


def test_unmapped_write_raises(state):
    with pytest.raises(UnmappedAddressError):
        apply_write(state, 0x0000, 0x01)


def test_byte_out_of_range_rejected(state):
    with pytest.raises(ValueError):
        apply_write(state, 0x4000, 0x100)


def test_gap_reads_as_zero(state):
    assert state.read_byte(0x0000) == 0
    assert state.read_byte(0x3FFF) == 0


def test_region_bytes_must_stay_in_one_region(state):
    with pytest.raises(ValueError):
        state.region_bytes(0x5FF0, 0x6010)  # app RAM into boot ROM
    with pytest.raises(ValueError):
        state.region_bytes(0x4010, 0x4000)  # inverted
    assert state.region_bytes(0x4000, 0x4003) == bytes(4)


@given(
    addr=st.sampled_from([0x4000, 0x4100, 0x5FFF, 0x0200, 0xE000]),
    byte=st.integers(0, 0xFF),
)
def test_write_then_read_back(make_state, addr, byte):
    state = make_state()
    apply_write(state, addr, byte)
    assert state.read_byte(addr) == byte


@pytest.mark.parametrize("addr,text", [(-1, "-0x1"), (0x10000, "0x10000")])
def test_out_of_range_addresses_are_named_with_their_sign(state, addr, text):
    with pytest.raises(UnmappedAddressError) as err:
        apply_write(state, addr, 0x01)
    assert err.value.args == (text,)
    with pytest.raises(ValueError, match=f"^range {text}-0x4000 not within one region$"):
        state.region_bytes(addr, 0x4000)


def _contents(state):
    return {kind: bytes(buf) for kind, buf in state.mem.items()}


@given(layout=slotted_layouts(), byte=st.integers(0, 0xFF))
@settings(max_examples=100, deadline=None)
def test_apply_write_matches_linear_scan(layout, byte):
    # both ends of every region, the gaps next to them, and both sides of
    # the address space, each against the linear-scan oracle
    probes = {-1, 0x10000}
    for region in layout.regions:
        probes |= {region.start - 1, region.start, region.end, region.end + 1}
    state = DeviceState(layout)
    for addr in sorted(probes):
        kind = classify_linear(layout.regions, addr)
        before = _contents(state)
        if kind is None:
            with pytest.raises(UnmappedAddressError):
                apply_write(state, addr, byte)
            assert _contents(state) == before
            continue
        result = apply_write(state, addr, byte)
        if kind in ROM_KINDS or kind is RegionKind.METADATA:
            assert result is WriteResult.SUPPRESSED
            assert _contents(state) == before
        else:
            assert result is WriteResult.APPLIED
            offset = addr - layout.region(kind).start
            buf = before[kind]
            before[kind] = buf[:offset] + bytes([byte]) + buf[offset + 1:]
            assert _contents(state) == before


def test_writes_after_reflash_and_reset_land_in_live_flash(make_state):
    state = make_state()
    flash = state.layout.region(RegionKind.FLASH)
    reflash(state)
    assert apply_write(state, flash.start + 3, 0xA5) is WriteResult.APPLIED
    assert state.read_byte(flash.start + 3) == 0xA5
    assert state.flash_bytes()[3] == 0xA5

    # through the runner: a write tampers flash, an interrupt in app RAM
    # resets and the reboot reflashes, a DMA key-ROM read gates and
    # reflashes; the write after each recovery must be in the final flash
    trace = [
        {"cycle": 1, "pc": "0x4000", "wen": True, "daddr": "0xE000", "data": "0x11"},
        {"cycle": 2, "pc": "0x4000", "irq": True},
        {"cycle": 3, "pc": "0x4000", "wen": True, "daddr": "0xE001", "data": "0x22"},
        {"cycle": 4, "pc": "0x4000", "ren": True, "dma_en": True, "dma_addr": "0x6A00"},
        {"cycle": 5, "pc": "0x4000", "wen": True, "daddr": "0xE002", "data": "0x33"},
    ]
    report = run(parse_scenario(json.dumps({"golden": {"image": "00"}, "trace": trace})))
    assert [(ev.after_cycle, ev.kind) for ev in report.recovery_events] == [
        (2, "reset"), (4, "reflash")
    ]
    assert [row.mem_effect for row in report.rows] == [
        "applied", "none", "applied", "none", "applied"
    ]
    expected = bytearray(flash.size)
    expected[2] = 0x33
    assert report.final_digests["flash"] == hashlib.sha256(expected).hexdigest()


# -- provisioning and the metadata mirror ---------------------------------


def test_golden_image_must_match_flash_size(layout):
    state = DeviceState(layout)
    with pytest.raises(ValueError):
        state.provision_golden(GoldenImage(image=b"\x00" * 3, reference_digest=bytes(32)))


def test_metadata_mirrors_register_and_digest(state):
    state.ctrl.latch(0x0204)
    state.sync_metadata()
    meta = state.mem[RegionKind.METADATA]
    assert meta[0] == 0x04 and meta[1] == 0x02  # little-endian image
    assert bytes(meta[2:34]) == state.reference_digest


def expected_metadata(state, size):
    """The metadata view built field by field: register (2 LE), reference
    digest, er_min/er_max (2 LE each), exec byte; a field that does not fit
    the region is left out, and the bytes after the header stay zero."""
    em = state.exec_meta
    fields = [
        state.ctrl.value.to_bytes(2, "little"),
        state.reference_digest,
        em.er_min.to_bytes(2, "little") + em.er_max.to_bytes(2, "little")
        + bytes([em.exec_flag]),
    ]
    header = b""
    for field in fields:
        if len(header) + len(field) > size:
            break
        header += field
    return header + bytes(size - len(header))


# Each reader must render on its own, so a test reads with only one of them.
METADATA_READERS = {
    "region_bytes": lambda state, meta: state.region_bytes(meta.start, meta.end),
    "read_byte": lambda state, meta: bytes(
        map(state.read_byte, range(meta.start, meta.end + 1))
    ),
}


@pytest.mark.parametrize("reader", METADATA_READERS)
@pytest.mark.parametrize("meta_size", [2, 34, 36, 64])
def test_metadata_view_is_rendered_on_read(meta_size, reader):
    meta_end = 0x0B00 + meta_size - 1
    layout = build_layout(
        [(k, s, meta_end if k is RegionKind.METADATA else e) for k, s, e in DEFAULT_REGIONS]
    )
    meta = layout.region(RegionKind.METADATA)
    key = bytes(range(32))
    image = bytes(layout.region(RegionKind.FLASH).size)
    state = DeviceState(layout)
    state.set_region_bytes(RegionKind.KEY_ROM, key)
    state.provision_golden(GoldenImage(image=image, reference_digest=hmac_sha256(key, image)))

    def check():
        expected = expected_metadata(state, meta.size)
        assert METADATA_READERS[reader](state, meta) == expected
        req = AttestRequest(nonce=b"\x5a" * 32, region_start=meta.start, region_end=meta.end)
        assert verify_report(key, req, attest(state, req), expected)

    violations = step(state, AccessEvent(pc=0x4000, irq=True))  # latches D0
    assert state.ctrl.value == 0x0001
    check()
    apply_prevention(state, violations, default_binding())  # system reset sets D10
    assert state.ctrl.value == 0x0401
    check()
    pox_begin(state, 0x4000, 0x40FF)
    check()
    pox_end(state)
    assert state.exec_meta.exec_flag
    check()
    reflash(state)  # clears D0-D9, keeps D10
    assert state.ctrl.value == 0x0400
    check()


def test_region_sizes():
    layout = build_layout()
    assert layout.region(RegionKind.KEY_ROM).size == 32
    assert Region(RegionKind.FLASH, 0xE000, 0xE7FF).size == 0x800
