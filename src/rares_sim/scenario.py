"""Declarative scenarios and the deterministic runner.

A scenario is a JSON document (conventionally ``*.rares.json``) describing
one device run: memory provisioning, prevention-policy overrides, an
optional proof-of-execution window, attestation challenges, and the bus
trace itself.  All byte content is hex strings; addresses are ``"0x...."``
strings or integers.

Top-level keys (all optional except none):

    name     run label
    layout   {region: [start, end]} overrides merged over the defaults;
             region names: boot_rom key_rom recovery_rom flash app_ram
             reserved_stack metadata; recovery_rom at least flash's size
    key      32-byte hex device key (default 000102...1f)
    golden   {"image": hex, "reference_digest": hex?}; image is zero-padded
             to the flash size; digest computed from the image when absent
    regions  {region: hex} initial contents (zero-padded); flash defaults
             to the golden image; key_rom/recovery_rom are provisioned via
             "key"/"golden" and are rejected here, as is metadata, a
             read-only view of the device state
    binding  {VIOLATION_KIND: action} overrides; actions: none,
             soft_mode_switch (optionally {"action": ..., "mask": hex}),
             hard_cpu_off, chip_gate_and_recover, system_reset
    pox      {"begin_cycle": n, "end_cycle": n, "er_min": a, "er_max": a}
    attest   [{"cycle": n, "nonce": 32-byte hex, "region_start": a,
               "region_end": a}]
    trace    [{"cycle": n, "pc": a, "irq": b, "ren": b, "wen": b,
               "daddr": a, "dma_en": b, "dma_addr": a, "data": byte}]
             cycles strictly increase; omitted fields default to 0/false;
             "data" is the byte a write event stores

Bad input raises a ScenarioError with a located message: JSON errors give
line and column (or say the nesting or an integer is too large), every
other error names its field.  The decoder's hook checks each object as it
is decoded, so a trace row goes into the columns and its dict is dropped at
once (`_decode_with_columns`).  When that does not yield the whole trace (a
row it refuses, or a row-shaped object outside the trace), the text is
decoded again without the hook, and every row goes through the per-field
helpers (`_parse_step`), which own each message.  The hook takes only rows
those helpers accept, so both decodes build the same trace.

The parsed trace is a `Trace`: one column per field (cycle labels in a list,
so they stay unbounded; addresses in 16-bit arrays; data and the packed
flags in byte arrays), read as a sequence of `TraceStep`s built on demand.
A run's rows are columns too (`Rows`), indexing into that trace; the report
writers read the columns, and `rows[i]` builds a `CycleRow`.  Each writer
(`write_json`, `write_text`) hands its text to a `write` callable in pieces
of at most one row; `to_json` and `to_text` join the pieces, and the CLI
writes them to stdout in chunks.

Unknown keys are rejected at every level: at the top, in trace rows, in
the golden, pox and attest objects and in binding entries; only
soft_mode_switch takes a mask.

Run order within one trace cycle: detection (bits latch the same cycle) ->
prevention -> memory effect (suppressed under the gate or, for CPU events,
while halted) -> cycle boundary, where a queued recovery reflashes and a
reset requested by D10 reboots the device.  Idle cycles between trace
labels carry no bus activity.

The proof-of-execution window and the challenges share one timeline.  The
window opens half a cycle before begin_cycle and closes at the end of
end_cycle; each challenge is answered at the end of its cycle, before that
cycle's boundary.  At equal times a close comes before answers, and answers
keep document order.  One rule serves the timeline: before each event, the
items timed before it; after the event, those timed at its cycle; after the
trace, the rest.  So no answer sees an event labelled after its cycle, and
no event after end_cycle reaches the window.  An unrecoverable boot or
reboot ends the run and serves nothing more.
"""

from __future__ import annotations

import json
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from functools import partial
from operator import itemgetter

from .attestation import (
    NONCE_SIZE,
    AttestReport,
    AttestRequest,
    BadBoundsError,
    attest,
    check_window,
    hmac_sha256,
    pox_abort,
    pox_begin,
    pox_end,
)
from .detector import (
    DETECT_MASK,
    DMA_EN,
    IRQ,
    MASK_KINDS,
    REN,
    RESET_MASK,
    WEN,
    AccessEvent,
    ViolationKind,
    decode_bits,
    event_flags,
    latch_cycle,
)
from .memory import (
    DEFAULT_REGIONS,
    DIGEST_SIZE,
    DeviceState,
    GoldenImage,
    KEY_SIZE,
    LayoutError,
    MemoryLayout,
    RegionKind,
    UnmappedAddressError,
    addr_text,
    apply_write,
    build_layout,
)
from .prevention import (
    CHIP_GATE_AND_RECOVER,
    HARD_CPU_OFF,
    NO_ACTION,
    SYSTEM_RESET,
    ActionRecord,
    ModeRegister,
    PreventionAction,
    PreventionBinding,
    apply_prevention,
    default_binding,
    soft_mode_switch,
)
from .secureboot import BootOutcome, BootReport, fsbl_boot, reflash

DEFAULT_KEY = bytes(range(KEY_SIZE))


class ScenarioError(Exception):
    pass


class ScenarioSyntaxError(ScenarioError):
    pass


class ScenarioSemanticError(ScenarioError):
    pass


@dataclass(frozen=True, slots=True)
class TraceStep:
    cycle: int
    event: AccessEvent
    data: int = 0x00


def _slot_setters(cls) -> tuple:
    """The slot descriptors' setters of a slotted dataclass, in field order."""
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


_SET_EVENT = _slot_setters(AccessEvent)
_SET_STEP = _slot_setters(TraceStep)
# Each packed flags value's (irq, ren, wen, dma_en), as booleans.
_FLAG_BOOLS = tuple(
    tuple(bool(flags & bit) for bit in (IRQ, REN, WEN, DMA_EN)) for flags in range(16)
)


def _steps(columns):
    """The TraceSteps of a `Trace`'s columns (or of slices of them), built
    through the slot setters: the columns hold values the parser or
    `AccessEvent` has checked."""
    set_pc, set_irq, set_ren, set_wen, set_daddr, set_dma_en, set_dma_addr = _SET_EVENT
    set_cycle, set_event, set_data = _SET_STEP
    for cycle, pc, daddr, dma_addr, data, flags in zip(*columns):
        irq, ren, wen, dma_en = _FLAG_BOOLS[flags]
        event = object.__new__(AccessEvent)
        set_pc(event, pc)
        set_irq(event, irq)
        set_ren(event, ren)
        set_wen(event, wen)
        set_daddr(event, daddr)
        set_dma_en(event, dma_en)
        set_dma_addr(event, dma_addr)
        step = object.__new__(TraceStep)
        set_cycle(step, cycle)
        set_event(step, event)
        set_data(step, data)
        yield step


class _Columns(Sequence):
    """A read-only sequence held as columns; `_item(i)` builds item i, for
    `0 <= i < len(self)`, when it is indexed."""

    __slots__ = ()

    def __getitem__(self, i):
        picked = range(len(self))[i]
        if isinstance(picked, range):
            return [self._item(k) for k in picked]
        return self._item(picked)


class Trace(_Columns):
    """A bus trace as columns, one entry per cycle: the labels (a list, since
    labels are unbounded), pc, daddr and dma_addr (16-bit arrays), the data
    byte, and the flags packed as `event_flags` packs them, the low four bits
    of a `RULE_MASKS` index.  Read as a sequence of `TraceStep`s."""

    __slots__ = ("cycle", "pc", "daddr", "dma_addr", "data", "flags")

    def __init__(self):
        self.cycle: list[int] = []
        self.pc = array("H")
        self.daddr = array("H")
        self.dma_addr = array("H")
        self.data = bytearray()
        self.flags = bytearray()

    @classmethod
    def from_steps(cls, steps) -> Trace:
        """The trace of `steps`, TraceSteps in cycle order."""
        trace = cls()
        for step in steps:
            trace._add(step)
        return trace

    def _add(self, step: TraceStep) -> None:
        event = step.event
        self.cycle.append(step.cycle)
        self.pc.append(event.pc)
        self.daddr.append(event.daddr)
        self.dma_addr.append(event.dma_addr)
        self.data.append(step.data)
        self.flags.append(event_flags(event))

    def columns(self) -> tuple:
        """The columns, in the order `_steps` reads them."""
        return self.cycle, self.pc, self.daddr, self.dma_addr, self.data, self.flags

    def __len__(self) -> int:
        return len(self.cycle)

    def _item(self, i: int) -> TraceStep:
        return next(_steps([column[i:i + 1] for column in self.columns()]))

    def __iter__(self):
        return _steps(self.columns())


@dataclass(frozen=True)
class PoxWindow:
    begin_cycle: int
    end_cycle: int
    er_min: int
    er_max: int


@dataclass(frozen=True)
class AttestAt:
    cycle: int
    request: AttestRequest


@dataclass
class Scenario:
    name: str
    layout: MemoryLayout
    key: bytes
    golden: GoldenImage
    region_contents: dict[RegionKind, bytes]
    binding: PreventionBinding
    pox: PoxWindow | None
    attest_requests: list[AttestAt]
    trace: Trace


# -- parsing helpers ----------------------------------------------------


def _parse_addr(value, where: str) -> int:
    if isinstance(value, bool):
        raise ScenarioSemanticError(f"{where}: expected an address, got a boolean")
    if isinstance(value, int):
        addr = value
    elif isinstance(value, str):
        try:
            addr = int(value, 0)
        except ValueError:
            raise ScenarioSemanticError(f"{where}: bad address {value!r}") from None
    else:
        raise ScenarioSemanticError(f"{where}: bad address {value!r}")
    if not 0 <= addr <= 0xFFFF:
        raise ScenarioSemanticError(f"{where}: address {addr_text(addr)} outside 16-bit space")
    return addr


def _parse_byte(value, where: str) -> int:
    if isinstance(value, str):
        try:
            value = int(value, 0)
        except ValueError:
            raise ScenarioSemanticError(f"{where}: bad byte {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioSemanticError(f"{where}: expected a byte")
    if not 0 <= value <= 0xFF:
        raise ScenarioSemanticError(f"{where}: byte value out of range")
    return value


def _parse_hex(value, where: str) -> bytes:
    if not isinstance(value, str):
        raise ScenarioSemanticError(f"{where}: expected a hex string")
    text = value[2:] if value.startswith(("0x", "0X")) else value
    text = text.replace(" ", "")
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise ScenarioSemanticError(f"{where}: bad hex {value!r}") from None


def _parse_flag(obj: dict, key: str, where: str) -> bool:
    value = obj.get(key, False)
    if not isinstance(value, bool):
        raise ScenarioSemanticError(f"{where}.{key}: expected a boolean")
    return value


def _section(obj, known, where: str) -> dict:
    """`obj`, checked to be an object with no field outside `known`."""
    if not isinstance(obj, dict):
        raise ScenarioSemanticError(f"{where}: expected an object")
    unknown = set(obj) - known
    if unknown:
        raise ScenarioSemanticError(f"{where}: unknown fields {', '.join(sorted(unknown))}")
    return obj


def _parse_cycle(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ScenarioSemanticError(f"{where}: cycle must be a positive integer")
    return value


_REGION_NAMES = {kind.value: kind for kind in RegionKind}
_ACTION_NAMES = {
    action.label(): action
    for action in (NO_ACTION, HARD_CPU_OFF, CHIP_GATE_AND_RECOVER, SYSTEM_RESET)
}

_TOP_KEYS = {"name", "layout", "key", "golden", "regions", "binding", "pox", "attest", "trace"}
_GOLDEN_KEYS = {"image", "reference_digest"}
_BINDING_KEYS = {"action", "mask"}
_POX_KEYS = {"begin_cycle", "end_cycle", "er_min", "er_max"}
_ATTEST_KEYS = {"cycle", "nonce", "region_start", "region_end"}
# A trace row's fields and the values they default to ("cycle" has none), in
# the order `_decode_with_columns` unpacks them.
_TRACE_DEFAULTS = {
    "cycle": None, "pc": 0, "irq": False, "ren": False, "wen": False,
    "daddr": 0, "dma_en": False, "dma_addr": 0, "data": 0,
}


# The layout of every scenario that names none; nothing changes a
# MemoryLayout after it is built, so parses share this one.
_DEFAULT_LAYOUT = build_layout()


def _parse_layout(obj) -> MemoryLayout:
    if obj is None:
        return _DEFAULT_LAYOUT
    if not isinstance(obj, dict):
        raise ScenarioSemanticError("layout: expected an object of region bounds")
    bounds = {kind: (start, end) for kind, start, end in DEFAULT_REGIONS}
    for name, pair in obj.items():
        kind = _REGION_NAMES.get(name)
        if kind is None:
            raise ScenarioSemanticError(f"layout: unknown region {name!r}")
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ScenarioSemanticError(f"layout.{name}: expected [start, end]")
        bounds[kind] = (
            _parse_addr(pair[0], f"layout.{name}[0]"),
            _parse_addr(pair[1], f"layout.{name}[1]"),
        )
    try:
        return build_layout([(kind, s, e) for kind, (s, e) in bounds.items()])
    except LayoutError as exc:
        raise ScenarioSemanticError(f"layout: {exc}") from None


def _parse_binding(obj) -> PreventionBinding:
    binding = default_binding()
    if obj is None:
        return binding
    if not isinstance(obj, dict):
        raise ScenarioSemanticError("binding: expected an object")
    overrides: dict[ViolationKind, PreventionAction] = {}
    for name, entry in obj.items():
        try:
            kind = ViolationKind[name]
        except KeyError:
            raise ScenarioSemanticError(f"binding: unknown violation kind {name!r}") from None
        if isinstance(entry, str):
            action_name, mask = entry, None
        elif isinstance(entry, dict):
            _section(entry, _BINDING_KEYS, f"binding.{name}")
            action_name = entry.get("action")
            mask = entry.get("mask")
        else:
            raise ScenarioSemanticError(f"binding.{name}: expected a string or object")
        if not isinstance(action_name, str):
            raise ScenarioSemanticError(f"binding.{name}.action: expected a string")
        if action_name == "soft_mode_switch":
            if mask is None:
                overrides[kind] = soft_mode_switch()
            else:
                overrides[kind] = soft_mode_switch(_parse_addr(mask, f"binding.{name}.mask"))
        elif action_name not in _ACTION_NAMES:
            raise ScenarioSemanticError(f"binding.{name}: unknown action {action_name!r}")
        elif mask is not None:
            raise ScenarioSemanticError(f"binding.{name}.mask: only soft_mode_switch takes a mask")
        else:
            overrides[kind] = _ACTION_NAMES[action_name]
    return binding.with_overrides(overrides)


def _region_fill(data: bytes, size: int, where: str) -> bytes:
    if len(data) > size:
        raise ScenarioSemanticError(f"{where}: {len(data)} bytes exceed region size {size}")
    return data + bytes(size - len(data))


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario text; raises ScenarioSyntaxError /
    ScenarioSemanticError with a field location on bad input."""
    try:
        obj = _decode_with_columns(text)
        if obj is None:
            obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioSyntaxError(f"line {exc.lineno} col {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ScenarioSyntaxError("JSON nesting too deep") from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise ScenarioSyntaxError("JSON integer has too many digits") from None
    if not isinstance(obj, dict):
        raise ScenarioSemanticError("scenario must be a JSON object")
    unknown = set(obj) - _TOP_KEYS
    if unknown:
        raise ScenarioSemanticError(f"unknown top-level keys: {', '.join(sorted(unknown))}")

    name = obj.get("name", "scenario")
    if not isinstance(name, str):
        raise ScenarioSemanticError("name: expected a string")
    try:
        name.encode("utf-8")
    except UnicodeEncodeError as exc:  # JSON admits lone surrogates such as "\ud800"
        raise ScenarioSemanticError(
            f"name: not UTF-8 text: lone surrogate at character {exc.start}"
        ) from None
    layout = _parse_layout(obj.get("layout"))
    flash_size = layout.region(RegionKind.FLASH).size

    if "key" in obj:
        key = _parse_hex(obj["key"], "key")
        if len(key) != KEY_SIZE:
            raise ScenarioSemanticError(f"key length must be {KEY_SIZE} bytes, got {len(key)}")
    else:
        key = DEFAULT_KEY

    if layout.region(RegionKind.RECOVERY_ROM).size < flash_size:
        raise ScenarioSemanticError(f"layout: recovery_rom smaller than flash ({flash_size} bytes)")
    golden_obj = _section(obj.get("golden", {}), _GOLDEN_KEYS, "golden")
    image = _region_fill(
        _parse_hex(golden_obj.get("image", ""), "golden.image"), flash_size, "golden.image"
    )
    if "reference_digest" in golden_obj:
        reference = _parse_hex(golden_obj["reference_digest"], "golden.reference_digest")
        if len(reference) != DIGEST_SIZE:
            raise ScenarioSemanticError(
                f"golden.reference_digest length must be {DIGEST_SIZE} bytes"
            )
    else:
        reference = hmac_sha256(key, image)
    golden = GoldenImage(image=image, reference_digest=reference)

    regions_obj = obj.get("regions", {})
    if not isinstance(regions_obj, dict):
        raise ScenarioSemanticError("regions: expected an object")
    region_contents: dict[RegionKind, bytes] = {}
    for rname, hexstr in regions_obj.items():
        kind = _REGION_NAMES.get(rname)
        if kind is None:
            raise ScenarioSemanticError(f"regions: unknown region {rname!r}")
        if kind in (RegionKind.KEY_ROM, RegionKind.RECOVERY_ROM):
            raise ScenarioSemanticError(
                f"regions.{rname}: provisioned via 'key'/'golden', not here"
            )
        if kind is RegionKind.METADATA:
            raise ScenarioSemanticError(
                f"regions.{rname}: a read-only view of the device state, not provisioned"
            )
        size = layout.region(kind).size
        region_contents[kind] = _region_fill(
            _parse_hex(hexstr, f"regions.{rname}"), size, f"regions.{rname}"
        )
    if RegionKind.FLASH not in region_contents:
        region_contents[RegionKind.FLASH] = image

    binding = _parse_binding(obj.get("binding"))

    pox = None
    if "pox" in obj:
        pobj = _section(obj["pox"], _POX_KEYS, "pox")
        pox = PoxWindow(
            begin_cycle=_parse_cycle(pobj.get("begin_cycle"), "pox.begin_cycle"),
            end_cycle=_parse_cycle(pobj.get("end_cycle"), "pox.end_cycle"),
            er_min=_parse_addr(pobj.get("er_min"), "pox.er_min"),
            er_max=_parse_addr(pobj.get("er_max"), "pox.er_max"),
        )
        if pox.begin_cycle > pox.end_cycle:
            raise ScenarioSemanticError("pox: begin_cycle after end_cycle")
        try:
            check_window(layout, pox.er_min, pox.er_max)
        except BadBoundsError:
            raise ScenarioSemanticError("pox: window bounds outside app RAM") from None

    attest_requests: list[AttestAt] = []
    raw_attest = obj.get("attest", [])
    if not isinstance(raw_attest, list):
        raise ScenarioSemanticError("attest: expected an array")
    for i, aobj in enumerate(raw_attest):
        where = f"attest[{i}]"
        _section(aobj, _ATTEST_KEYS, where)
        nonce = _parse_hex(aobj.get("nonce", ""), f"{where}.nonce")
        if len(nonce) != NONCE_SIZE:
            raise ScenarioSemanticError(f"{where}.nonce: must be {NONCE_SIZE} bytes")
        start = _parse_addr(aobj.get("region_start"), f"{where}.region_start")
        end = _parse_addr(aobj.get("region_end"), f"{where}.region_end")
        if layout.span(start, end) is None:
            raise ScenarioSemanticError(f"{where}: bounds must lie within one mapped region")
        attest_requests.append(
            AttestAt(
                cycle=_parse_cycle(aobj.get("cycle"), f"{where}.cycle"),
                request=AttestRequest(nonce=nonce, region_start=start, region_end=end),
            )
        )

    trace = obj.get("trace", [])
    if not isinstance(trace, Trace):
        if not isinstance(trace, list):
            raise ScenarioSemanticError("trace: expected an array")
        trace = _parse_trace(trace)

    return Scenario(
        name=name,
        layout=layout,
        key=key,
        golden=golden,
        region_contents=region_contents,
        binding=binding,
        pox=pox,
        attest_requests=attest_requests,
        trace=trace,
    )


def _parse_step(tobj, where: str, last_cycle: int) -> TraceStep:
    """One trace row through the per-field helpers, which own every
    trace-row message: raises the row's located error or builds it."""
    _section(tobj, _TRACE_DEFAULTS.keys(), where)
    cycle = _parse_cycle(tobj.get("cycle"), f"{where}.cycle")
    if cycle <= last_cycle:
        raise ScenarioSemanticError(f"{where}.cycle: non-monotone cycle {cycle}")
    try:
        event = AccessEvent(
            pc=_parse_addr(tobj.get("pc", 0), f"{where}.pc"),
            irq=_parse_flag(tobj, "irq", where),
            ren=_parse_flag(tobj, "ren", where),
            wen=_parse_flag(tobj, "wen", where),
            daddr=_parse_addr(tobj.get("daddr", 0), f"{where}.daddr"),
            dma_en=_parse_flag(tobj, "dma_en", where),
            dma_addr=_parse_addr(tobj.get("dma_addr", 0), f"{where}.dma_addr"),
        )
    except ValueError as exc:
        raise ScenarioSemanticError(f"{where}: {exc}") from None
    data = _parse_byte(tobj.get("data", 0), f"{where}.data")
    return TraceStep(cycle=cycle, event=event, data=data)


# What the decoder's hook returns for a row it has put into the columns.
_ROW = object()


def _decode_with_columns(text: str) -> dict | None:
    """The JSON document `text` with its trace rows read into columns as they
    decode, so that no row's dict outlives its decoding; None when the
    columns are not the whole trace.

    The decoder's hook sees each object, not where it sits.  A trace row
    labelled after the last one taken goes into the columns and becomes
    `_ROW`; any other object comes back unchanged, and the hook never
    raises.  It takes only rows the per-field helpers accept, with the
    values they give: merged over `_TRACE_DEFAULTS`, a row keeps nine keys,
    in field order, exactly when it names no unknown key, and it goes in
    when those are of exact JSON types, in range, not both ren and wen, and
    its cycle increases.

    So the columns are the trace only when the top level is an object whose
    "trace" (an empty one when absent) is a list of exactly as many `_ROW`s
    as the hook took; then "trace" holds that `Trace`.  Otherwise a row was
    refused, or a row-shaped object sits outside the trace (say
    ``"pox": {"cycle": 1}``, a row inside a row, or a second "trace" key),
    and the caller decodes the text again without the hook, for
    `_parse_trace` and the section parsers to read.  A JSON error is raised
    as plain decoding raises it.
    """
    trace = Trace()
    add_cycle, add_pc, add_daddr = trace.cycle.append, trace.pc.append, trace.daddr.append
    add_dma_addr, add_data, add_flags = (
        trace.dma_addr.append, trace.data.append, trace.flags.append
    )
    defaults = _TRACE_DEFAULTS
    nkeys = len(defaults)
    last_cycle = 0

    def read_row(obj: dict):
        nonlocal last_cycle
        if "cycle" not in obj:
            return obj
        row = defaults | obj
        if len(row) != nkeys:
            return obj
        cycle, pc, irq, ren, wen, daddr, dma_en, dma_addr, data = row.values()
        try:
            if type(pc) is str:
                pc = int(pc, 0)
            if type(daddr) is str:
                daddr = int(daddr, 0)
            if type(dma_addr) is str:
                dma_addr = int(dma_addr, 0)
            if type(data) is str:
                data = int(data, 0)
        except ValueError:
            return obj
        if (
            type(cycle) is int and cycle > last_cycle
            and type(pc) is int and 0 <= pc <= 0xFFFF
            and type(daddr) is int and 0 <= daddr <= 0xFFFF
            and type(dma_addr) is int and 0 <= dma_addr <= 0xFFFF
            and type(data) is int and 0 <= data <= 0xFF
            and type(irq) is bool and type(ren) is bool
            and type(wen) is bool and type(dma_en) is bool
            and not (ren and wen)
        ):
            add_cycle(cycle)
            add_pc(pc)
            add_daddr(daddr)
            add_dma_addr(dma_addr)
            add_data(data)
            add_flags(irq * IRQ | ren * REN | wen * WEN | dma_en * DMA_EN)
            last_cycle = cycle
            return _ROW
        return obj

    try:
        obj = json.loads(text, object_hook=read_row)
    except RecursionError:  # the hook's frame takes a document at the limit past it
        return None
    if type(obj) is dict:
        rows = obj.get("trace", [])
        if type(rows) is list and len(rows) == len(trace) == rows.count(_ROW):
            obj["trace"] = trace
            return obj
    return None


def _parse_trace(raw_trace: list) -> Trace:
    """The rows of a trace that did not go into columns as it decoded
    (`_decode_with_columns`), each through `_parse_step`, so the per-field
    helpers decide what is accepted and say what is wrong, as they do for
    the rest of the scenario."""
    trace = Trace()
    for i, tobj in enumerate(raw_trace):
        trace._add(_parse_step(tobj, f"trace[{i}]", trace.cycle[-1] if trace else 0))
    return trace


def parse_scenario_file(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ScenarioSyntaxError(
                f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02X} at offset {exc.start}"
            ) from None
    return parse_scenario(text)


# -- device provisioning ------------------------------------------------


def build_device(scenario: Scenario) -> DeviceState:
    state = DeviceState(scenario.layout)
    state.set_region_bytes(RegionKind.KEY_ROM, scenario.key)
    state.provision_golden(scenario.golden)
    for kind, data in scenario.region_contents.items():
        state.set_region_bytes(kind, data)
    return state


# -- run report ---------------------------------------------------------


@dataclass(slots=True)
class CycleRow:
    """One replayed cycle, as `Rows` builds it.  `violations` and `actions`
    are the immutable tuples its violation mask already has,
    `MASK_KINDS[mask]` and the binding's plan records, so rows with one mask
    share them; benign rows share ()."""

    cycle: int
    event: AccessEvent
    data: int
    violations: tuple[ViolationKind, ...]
    ctrl_after: int
    actions: tuple[ActionRecord, ...]
    mem_effect: str  # applied | suppressed | unmapped | none


# A row's memory effect, stored as its index in this tuple.
MEM_EFFECTS = ("none", "applied", "suppressed", "unmapped")
_EFFECT_CODES = {name: code for code, name in enumerate(MEM_EFFECTS)}


class Rows(_Columns):
    """The replayed cycles of a run as columns: the register after each
    cycle, its violation mask and its memory effect's code, beside the
    trace and binding they index into.  Read as a sequence of `CycleRow`s.

    The rows cover the trace's first `len(self)` cycles: fewer than the
    trace holds when an unrecoverable reboot ends the run.
    """

    __slots__ = ("trace", "binding", "ctrl_after", "mask", "mem_effect")

    def __init__(self, trace: Trace, binding: PreventionBinding):
        self.trace = trace
        self.binding = binding
        self.ctrl_after = array("H")
        self.mask = array("H")
        self.mem_effect = bytearray()

    def __len__(self) -> int:
        return len(self.mask)

    def _row(self, step: TraceStep, ctrl_after: int, mask: int, effect: int) -> CycleRow:
        return CycleRow(
            step.cycle, step.event, step.data, MASK_KINDS[mask], ctrl_after,
            self.binding.plan(mask)[0], MEM_EFFECTS[effect],
        )

    def _item(self, i: int) -> CycleRow:
        return self._row(self.trace[i], self.ctrl_after[i], self.mask[i], self.mem_effect[i])

    def __iter__(self):
        return map(self._row, self.trace, self.ctrl_after, self.mask, self.mem_effect)

    def columns(self) -> tuple:
        """The trace's columns, then ctrl_after, mask and mem_effect; zipped,
        they stop at the last row."""
        return *self.trace.columns(), self.ctrl_after, self.mask, self.mem_effect


@dataclass
class RecoveryEvent:
    after_cycle: int
    kind: str  # reflash | reset
    boot: BootReport | None = None  # reset path reboots


@dataclass
class AttestAnswer:
    cycle: int
    request: AttestRequest
    report: AttestReport


@dataclass
class RunReport:
    scenario_name: str
    boot: BootReport
    rows: Rows
    recovery_events: list[RecoveryEvent] = field(default_factory=list)
    attest_answers: list[AttestAnswer] = field(default_factory=list)
    pre_clear_ctrl: int = 0
    final_ctrl: int = 0
    final_r2: int = 0
    final_mode: str = "active"
    final_digests: dict[str, str] = field(default_factory=dict)
    exit_class: str = "clean"  # clean | violations | unrecoverable

    def to_dict(self) -> dict:
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """Machine form; byte-identical across repeated runs: the text
        `write_json` writes, joined once."""
        out: list[str] = []
        self.write_json(out.append)
        return "".join(out)

    def write_json(self, write) -> None:
        """Write the machine form through `write`, in pieces.

        The document is written as ``json.dumps(doc, sort_keys=True,
        indent=2) + "\\n"`` would write it: the rows straight from their
        columns and the recovery events from their objects, by the
        hand-written templates of `_rows_json` and `_events_json`, every
        other section by `_dumps`.  No piece holds more than one row or one
        section outside the rows, so a caller that writes each piece out
        never holds the report.  This is the report's one schema: `to_dict`
        parses it back.
        """
        fields = {
            "scenario": self.scenario_name,
            "boot": _boot_to_dict(self.boot),
            "attest_reports": [
                {"cycle": ans.cycle, **_attest_to_dict(ans.request, ans.report)}
                for ans in self.attest_answers
            ],
            "pre_clear_ctrl": f"0x{self.pre_clear_ctrl:04X}",
            "pre_clear_ctrl_bits": decode_bits(self.pre_clear_ctrl),
            "final_ctrl": f"0x{self.final_ctrl:04X}",
            "final_ctrl_bits": decode_bits(self.final_ctrl),
            "final_r2": f"0x{self.final_r2:04X}",
            "final_mode": self.final_mode,
            "final_digests": self.final_digests,
            "exit": self.exit_class,
        }
        sep = "{\n"
        for key in sorted([*fields, "rows", "recovery_events"]):
            write(f'{sep}  "{key}": ')
            if key == "rows":
                _rows_json(self.rows, write)
            elif key == "recovery_events":
                _events_json(self.recovery_events, write)
            else:
                write(_dumps(fields[key], "  "))
            sep = ",\n"
        write("\n}\n")

    def to_text(self, show_pre_clear: bool = False) -> str:
        """Human form: the text `write_text` writes, joined once."""
        out: list[str] = []
        self.write_text(out.append, show_pre_clear)
        return "".join(out)

    def write_text(self, write, show_pre_clear: bool = False) -> None:
        """Write the human form through `write`, one line per piece."""
        write(f"scenario: {self.scenario_name}\n")
        for line in _boot_lines(self.boot):
            write(line + "\n")
        boundary = {ev.after_cycle: ev for ev in self.recovery_events}
        plan = self.rows.binding.plan
        pair_texts: dict[int, tuple[str, str]] = {}
        for cycle, pc, daddr, dma_addr, _, flags, ctrl, mask, effect in zip(*self.rows.columns()):
            parts = [f"pc=0x{_HEX_BYTE[pc >> 8]}{_HEX_BYTE[pc & 0xFF]}"]
            if flags & IRQ:
                parts.append("irq")
            if flags & DMA_EN:
                op = "ren" if flags & REN else ("wen" if flags & WEN else "idle")
                parts.append(f"dma {op} 0x{_HEX_BYTE[dma_addr >> 8]}{_HEX_BYTE[dma_addr & 0xFF]}")
            elif flags & (REN | WEN):
                op = "ren" if flags & REN else "wen"
                parts.append(f"{op} 0x{_HEX_BYTE[daddr >> 8]}{_HEX_BYTE[daddr & 0xFF]}")
            if mask:
                viol, acts = _pair_text(mask, pair_texts, plan, _pair_line)
            else:
                viol = acts = "-"
            write(
                f"cycle {cycle:>4}: {' '.join(parts)} | {viol} | "
                f"ctrl=0x{_HEX_BYTE[ctrl >> 8]}{_HEX_BYTE[ctrl & 0xFF]} | {acts} | "
                f"mem={MEM_EFFECTS[effect]}\n"
            )
            ev = boundary.get(cycle)
            if ev is not None:
                tail = f" -> boot {ev.boot.outcome.value}" if ev.boot else ""
                write(f"  [boundary {cycle}] {ev.kind}{tail}\n")
        for ans in self.attest_answers:
            r = ans.report
            write(
                f"attest @ cycle {ans.cycle}: exec_flag={str(r.exec_flag).lower()} "
                f"er=0x{r.er_min:04X}-0x{r.er_max:04X} tag={r.tag.hex()}\n"
            )
        if show_pre_clear:
            write(
                f"pre-clear ctrl: 0x{self.pre_clear_ctrl:04X} "
                f"{' '.join(decode_bits(self.pre_clear_ctrl)) or '-'}\n"
            )
        write(
            f"final ctrl: 0x{self.final_ctrl:04X} "
            f"{' '.join(decode_bits(self.final_ctrl)) or '-'}\n"
        )
        write(f"final r2: 0x{self.final_r2:04X} mode={self.final_mode}\n")
        write(f"exit: {self.exit_class}\n")


def _boot_to_dict(boot: BootReport) -> dict:
    return {
        "outcome": boot.outcome.value,
        "attempts": boot.attempts,
        "digests": [
            {"computed": computed.hex(), "reference": reference.hex()}
            for computed, reference in boot.digests
        ],
    }


def _boot_lines(boot: BootReport) -> list[str]:
    """The text form of a boot report, one string per line."""
    return [f"boot: {boot.outcome.value} attempts={boot.attempts}"] + [
        f"  digest computed={computed.hex()} reference={reference.hex()}"
        for computed, reference in boot.digests
    ]


def _attest_to_dict(request: AttestRequest, report: AttestReport) -> dict:
    return {
        "nonce": request.nonce.hex(),
        "region_start": f"0x{request.region_start:04X}",
        "region_end": f"0x{request.region_end:04X}",
        "exec_flag": report.exec_flag,
        "er_min": f"0x{report.er_min:04X}",
        "er_max": f"0x{report.er_max:04X}",
        "tag": report.tag.hex(),
    }


def _dumps(value, indent: str) -> str:
    """`json.dumps(value, sort_keys=True, indent=2)` for a value whose key is
    indented by `indent`.  The JSON writer's rule: only text written once per
    row or once per recovery event is hand-written, because that is where a
    report's time goes; text written once per distinct value (kept in a
    writer's cache) or once per report comes from here."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + indent)


# Two upper-case hex digits per byte value: two lookups write a 16-bit word
# in about half the time of an f-string format spec.
_HEX_BYTE = tuple(f"{b:02X}" for b in range(256))


def _pair_text(mask: int, texts: dict, plan, render) -> tuple[str, str]:
    """`render(violations, actions)` of a row with violation mask `mask`,
    worked out once per mask and kept in `texts`; `plan` is the binding's.
    Writers call it only for rows with violations; a benign row's text is a
    constant."""
    text = texts.get(mask)
    if text is None:
        text = texts[mask] = render(MASK_KINDS[mask], plan(mask)[0])
    return text


def _pair_json(violations, actions) -> tuple[str, str]:
    """A row's "actions" and "violations" values, indented as a row's keys."""
    records = [
        {"action": rec.action.label(), "applied": rec.applied, "violation": rec.violation.name}
        for rec in actions
    ]
    return _dumps(records, "      "), _dumps([v.name for v in violations], "      ")


def _rows_json(rows: Rows, write) -> None:
    """Write the "rows" list through `write`, one piece per row, indented as
    the value of a top-level key: each row in the layout
    `json.dumps(sort_keys=True, indent=2)` gives an object, keys sorted, each
    nesting level two spaces deeper.

    Every value is a number, a boolean or a string from a fixed ASCII
    vocabulary (hex words, enum names, action labels, write outcomes), so
    nothing needs escaping.  The "ctrl" value and "ctrl_bits" entry are
    worked out once per register value, and the "actions" and "violations"
    values once per violation mask by `_pair_json`.
    """
    if not rows:
        write("[]")
        return
    plan = rows.binding.plan
    ctrl_texts: dict[int, str] = {}
    pair_texts: dict[int, tuple[str, str]] = {}
    sep = "[\n"
    for cycle, pc, daddr, dma_addr, data, flags, value, mask, effect in zip(*rows.columns()):
        ctrl = ctrl_texts.get(value)
        if ctrl is None:
            bits = _dumps(decode_bits(value), "      ")
            ctrl = ctrl_texts[value] = f'"0x{value:04X}",\n      "ctrl_bits": {bits}'
        if mask:
            actions, violations = _pair_text(mask, pair_texts, plan, _pair_json)
        else:
            actions = violations = "[]"  # a benign row has neither
        write(
            f"{sep}    {{\n"
            f'      "actions": {actions},\n'
            f'      "ctrl": {ctrl},\n'
            f'      "cycle": {cycle},\n'
            '      "event": {\n'
            f'        "daddr": "0x{_HEX_BYTE[daddr >> 8]}{_HEX_BYTE[daddr & 0xFF]}",\n'
            f'        "data": "0x{_HEX_BYTE[data]}",\n'
            f'        "dma_addr": "0x{_HEX_BYTE[dma_addr >> 8]}{_HEX_BYTE[dma_addr & 0xFF]}",\n'
            f'        "dma_en": {"true" if flags & DMA_EN else "false"},\n'
            f'        "irq": {"true" if flags & IRQ else "false"},\n'
            f'        "pc": "0x{_HEX_BYTE[pc >> 8]}{_HEX_BYTE[pc & 0xFF]}",\n'
            f'        "ren": {"true" if flags & REN else "false"},\n'
            f'        "wen": {"true" if flags & WEN else "false"}\n'
            "      },\n"
            f'      "mem_effect": "{MEM_EFFECTS[effect]}",\n'
            f'      "violations": {violations}\n'
            "    }"
        )
        sep = ",\n"
    write("\n  ]")


def _events_json(events: list[RecoveryEvent], write) -> None:
    """Write the "recovery_events" list through `write`, in the layout of
    `_rows_json`: each event's "after_cycle", "kind" and "boot", which is
    null for a reflash and the reboot's report after a reset.  A reset's
    "boot" object is hand-written too, since it is written once per event.

    Event kinds and boot outcomes are fixed ASCII words and the digests
    hex, so nothing needs escaping.  A reboot records at least one digest.
    """
    if not events:
        write("[]")
        return
    sep = "[\n"
    for ev in events:
        boot = ev.boot
        if boot is None:
            boot_text = "null"
        else:
            digests = ",\n".join(
                "          {\n"
                f'            "computed": "{computed.hex()}",\n'
                f'            "reference": "{reference.hex()}"\n'
                "          }"
                for computed, reference in boot.digests
            )
            boot_text = (
                "{\n"
                f'        "attempts": {boot.attempts},\n'
                f'        "digests": [\n{digests}\n        ],\n'
                f'        "outcome": "{boot.outcome.value}"\n'
                "      }"
            )
        write(
            f"{sep}    {{\n"
            f'      "after_cycle": {ev.after_cycle},\n'
            f'      "boot": {boot_text},\n'
            f'      "kind": "{ev.kind}"\n'
            "    }"
        )
        sep = ",\n"
    write("\n  ]")


def _pair_line(violations, actions) -> tuple[str, str]:
    """A row's violation and action columns in the text form.  The row has a
    violation and a binding maps every kind, so neither column is empty."""
    return (
        " ".join(v.name for v in violations),
        " ".join(f"{rec.action.label()}{'' if rec.applied else '(subsumed)'}" for rec in actions),
    )


# -- runner -------------------------------------------------------------


def run(scenario: Scenario) -> RunReport:
    """Boot, replay the trace, service recoveries, answer challenges.

    Deterministic: identical scenario text yields a byte-identical machine
    report.  All runtime outcomes are report content, never exceptions.
    """
    state = build_device(scenario)
    boot = fsbl_boot(state)
    report = RunReport(
        scenario_name=scenario.name, boot=boot, rows=Rows(scenario.trace, scenario.binding)
    )

    # The timeline of the module docstring, in half-cycle ticks: tick 2c ends
    # cycle c.  The stable sort puts a close before the answers timed with it
    # and keeps answers in document order; `schedule` runs latest first,
    # behind a sentinel that is never served.
    pox = scenario.pox
    timeline = [] if pox is None else [
        (2 * pox.begin_cycle - 1, partial(pox_begin, state, pox.er_min, pox.er_max)),
        (2 * pox.end_cycle, partial(pox_end, state)),
    ]

    def answer(entry: AttestAt) -> None:
        report.attest_answers.append(
            AttestAnswer(entry.cycle, entry.request, attest(state, entry.request))
        )

    timeline += [(2 * entry.cycle, partial(answer, entry)) for entry in scenario.attest_requests]
    schedule = [(math.inf, None), *sorted(timeline, key=itemgetter(0))[::-1]]

    def serve(until):
        """Serve the items timed before tick `until`; return the next one's tick."""
        while schedule[-1][0] < until:
            schedule.pop()[1]()
        return schedule[-1][0]

    next_at = schedule[-1][0]
    binding = scenario.binding
    ctrl = state.ctrl
    rows = report.rows
    add_ctrl, add_mask = rows.ctrl_after.append, rows.mask.append
    add_effect = rows.mem_effect.append
    pre_clear = 0

    # an unrecoverable boot halts the device before the trace
    columns = () if boot.outcome is BootOutcome.UNRECOVERABLE else scenario.trace.columns()
    for label, pc, daddr, dma_addr, data, flags in zip(*columns):
        tick = 2 * label
        if next_at < tick:
            next_at = serve(tick)

        target = dma_addr if flags & DMA_EN else daddr
        mask = latch_cycle(state, pc, target, flags)
        if mask:
            apply_prevention(state, MASK_KINDS[mask], binding)
        # bits are sticky and clear only at the cycle boundary, so the
        # register now holds every bit latched since the last clear
        ctrl_after = ctrl.value
        pre_clear |= ctrl_after

        mem_effect = "none"
        if flags & WEN:
            if state.cpu_halted and not flags & DMA_EN:
                mem_effect = "suppressed"
            else:
                try:
                    # `._value_`: `.value` without the enum descriptor call
                    mem_effect = apply_write(state, target, data)._value_
                except UnmappedAddressError:
                    mem_effect = "unmapped"

        add_ctrl(ctrl_after)
        add_mask(mask)
        add_effect(_EFFECT_CODES[mem_effect])

        if next_at <= tick:
            next_at = serve(tick + 1)

        if state.recovery_queued:
            reflash(state)
            report.recovery_events.append(RecoveryEvent(after_cycle=label, kind="reflash"))
        if ctrl_after & RESET_MASK:
            boot = _service_reset(state)
            report.recovery_events.append(
                RecoveryEvent(after_cycle=label, kind="reset", boot=boot)
            )
            if boot.outcome is BootOutcome.UNRECOVERABLE:
                break

    report.pre_clear_ctrl = pre_clear
    # `boot` is the last boot: power-on, or the reboot of the last reset
    if boot.outcome is BootOutcome.UNRECOVERABLE:
        report.exit_class = "unrecoverable"
    else:
        serve(math.inf)
        report.exit_class = "violations" if pre_clear & DETECT_MASK else "clean"
    report.final_ctrl = state.ctrl.value
    report.final_r2 = state.r2.value
    report.final_mode = state.r2.mode_name
    report.final_digests = state.region_digests()
    return report


def _service_reset(state: DeviceState) -> BootReport:
    """Full system reset: wipe latches, register, mode, and proof; reboot."""
    pox_abort(state)
    state.ctrl.clear_all()
    state.cpu_halted = False
    state.recovery_queued = False
    state.r2 = ModeRegister()
    return fsbl_boot(state)


# -- independent whole-trace oracle --------------------------------------


def classify_trace_naive(layout: MemoryLayout, trace) -> int:
    """Brute-force re-scan of a trace: OR of the detection bits D0-D9.

    Re-derives every rule from region bounds directly, with none of the
    incremental register machinery, so it can arbitrate against the
    cycle-stepped detector.
    """
    app = layout.region(RegionKind.APP_RAM)
    boot = layout.region(RegionKind.BOOT_ROM)
    key = layout.region(RegionKind.KEY_ROM)
    stack = layout.region(RegionKind.RESERVED_STACK)
    word = 0
    for event in trace:
        in_app = app.start <= event.pc <= app.end
        in_att = boot.start <= event.pc <= boot.end
        foreign = not in_app and not in_att
        if event.irq and in_app:
            word |= 0x0001  # D0
        if event.irq and in_att:
            word |= 0x0002  # D1
        if event.dma_en:
            t = event.dma_addr
            if event.wen and in_att and app.start <= t <= app.end:
                word |= 0x0004  # D2
            if event.ren:
                if in_att and app.start <= t <= app.end:
                    word |= 0x0008  # D3
                if foreign and stack.start <= t <= stack.end:
                    word |= 0x0010  # D4
                if not in_att and key.start <= t <= key.end:
                    word |= 0x0020  # D5
                if foreign and boot.start <= t <= boot.end:
                    word |= 0x0020  # D5
        else:
            t = event.daddr
            if event.wen and in_att and app.start <= t <= app.end:
                word |= 0x0040  # D6
            if event.ren:
                if in_att and app.start <= t <= app.end:
                    word |= 0x0080  # D7
                if foreign and stack.start <= t <= stack.end:
                    word |= 0x0100  # D8
                if not in_att and key.start <= t <= key.end:
                    word |= 0x0200  # D9
                if foreign and boot.start <= t <= boot.end:
                    word |= 0x0200  # D9
    return word
