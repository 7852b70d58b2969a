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
             reserved_stack metadata
    key      32-byte hex device key (default 000102...1f)
    golden   {"image": hex, "reference_digest": hex?}; image is zero-padded
             to the flash size; digest computed from the image when absent
    regions  {region: hex} initial contents (zero-padded); flash defaults
             to the golden image; key_rom/recovery_rom are provisioned via
             "key"/"golden" and are rejected here
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

Run order within one trace cycle: detection (bits latch the same cycle) ->
prevention -> memory effect (suppressed under the gate or, for CPU events,
while halted) -> window close if this is its end cycle -> attestation
answers due at this cycle -> cycle boundary, where a queued recovery
reflashes and a pending reset reboots the device.  Idle cycles between
trace labels carry no bus activity.  Attestation requests falling in a gap
are answered after the next processed event, or after the trace ends.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import detector as det
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
from .detector import AccessEvent, ViolationKind, decode_bits, violations_mask
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


@dataclass(frozen=True)
class TraceStep:
    cycle: int
    event: AccessEvent
    data: int = 0x00


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
    trace: list[TraceStep]


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
        raise ScenarioSemanticError(f"{where}: address 0x{addr:X} outside 16-bit space")
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
_TRACE_KEYS = {"cycle", "pc", "irq", "ren", "wen", "daddr", "dma_en", "dma_addr", "data"}


def _parse_layout(obj) -> MemoryLayout:
    if obj is None:
        return build_layout()
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
        elif action_name in _ACTION_NAMES:
            overrides[kind] = _ACTION_NAMES[action_name]
        else:
            raise ScenarioSemanticError(f"binding.{name}: unknown action {action_name!r}")
    return binding.with_overrides(overrides)


def _region_fill(data: bytes, size: int, where: str) -> bytes:
    if len(data) > size:
        raise ScenarioSemanticError(f"{where}: {len(data)} bytes exceed region size {size}")
    return data + bytes(size - len(data))


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario text; raises ScenarioSyntaxError /
    ScenarioSemanticError with a field location on bad input."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioSyntaxError(f"line {exc.lineno} col {exc.colno}: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise ScenarioSemanticError("scenario must be a JSON object")
    unknown = set(obj) - _TOP_KEYS
    if unknown:
        raise ScenarioSemanticError(f"unknown top-level keys: {', '.join(sorted(unknown))}")

    name = obj.get("name", "scenario")
    if not isinstance(name, str):
        raise ScenarioSemanticError("name: expected a string")
    layout = _parse_layout(obj.get("layout"))
    flash_size = layout.region(RegionKind.FLASH).size

    if "key" in obj:
        key = _parse_hex(obj["key"], "key")
        if len(key) != KEY_SIZE:
            raise ScenarioSemanticError(f"key length must be {KEY_SIZE} bytes, got {len(key)}")
    else:
        key = DEFAULT_KEY

    golden_obj = obj.get("golden", {})
    if not isinstance(golden_obj, dict):
        raise ScenarioSemanticError("golden: expected an object")
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
        size = layout.region(kind).size
        region_contents[kind] = _region_fill(
            _parse_hex(hexstr, f"regions.{rname}"), size, f"regions.{rname}"
        )
    if RegionKind.FLASH not in region_contents:
        region_contents[RegionKind.FLASH] = image

    binding = _parse_binding(obj.get("binding"))

    pox = None
    if "pox" in obj:
        pobj = obj["pox"]
        if not isinstance(pobj, dict):
            raise ScenarioSemanticError("pox: expected an object")
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
        if not isinstance(aobj, dict):
            raise ScenarioSemanticError(f"{where}: expected an object")
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
    attest_requests.sort(key=lambda a: a.cycle)

    trace: list[TraceStep] = []
    last_cycle = 0
    raw_trace = obj.get("trace", [])
    if not isinstance(raw_trace, list):
        raise ScenarioSemanticError("trace: expected an array")
    for i, tobj in enumerate(raw_trace):
        where = f"trace[{i}]"
        if not isinstance(tobj, dict):
            raise ScenarioSemanticError(f"{where}: expected an object")
        unknown = set(tobj) - _TRACE_KEYS
        if unknown:
            raise ScenarioSemanticError(f"{where}: unknown fields {', '.join(sorted(unknown))}")
        cycle = _parse_cycle(tobj.get("cycle"), f"{where}.cycle")
        if cycle <= last_cycle:
            raise ScenarioSemanticError(f"{where}.cycle: non-monotone cycle {cycle}")
        last_cycle = cycle
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
        trace.append(TraceStep(cycle=cycle, event=event, data=data))

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


def parse_scenario_file(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


# -- device provisioning ------------------------------------------------


def build_device(scenario: Scenario) -> DeviceState:
    state = DeviceState(scenario.layout)
    state.set_region_bytes(RegionKind.KEY_ROM, scenario.key)
    state.provision_golden(scenario.golden)
    for kind, data in scenario.region_contents.items():
        state.set_region_bytes(kind, data)
    state.sync_metadata()
    return state


# -- run report ---------------------------------------------------------


@dataclass
class CycleRow:
    cycle: int
    event: AccessEvent
    data: int
    violations: list[ViolationKind]
    ctrl_after: int
    actions: list[ActionRecord]
    mem_effect: str  # applied | suppressed | unmapped | none


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
    rows: list[CycleRow] = field(default_factory=list)
    recovery_events: list[RecoveryEvent] = field(default_factory=list)
    attest_answers: list[AttestAnswer] = field(default_factory=list)
    pre_clear_ctrl: int = 0
    final_ctrl: int = 0
    final_r2: int = 0
    final_mode: str = "active"
    final_digests: dict[str, str] = field(default_factory=dict)
    exit_class: str = "clean"  # clean | violations | unrecoverable

    def _fields(self, rows) -> dict:
        """The report sections of `to_dict`, with the caller's `rows` value."""
        return {
            "scenario": self.scenario_name,
            "boot": _boot_to_dict(self.boot),
            "rows": rows,
            "recovery_events": [
                {
                    "after_cycle": ev.after_cycle,
                    "kind": ev.kind,
                    "boot": _boot_to_dict(ev.boot) if ev.boot else None,
                }
                for ev in self.recovery_events
            ],
            "attest_reports": [
                {
                    "cycle": ans.cycle,
                    "nonce": ans.request.nonce.hex(),
                    "region_start": f"0x{ans.request.region_start:04X}",
                    "region_end": f"0x{ans.request.region_end:04X}",
                    "exec_flag": ans.report.exec_flag,
                    "er_min": f"0x{ans.report.er_min:04X}",
                    "er_max": f"0x{ans.report.er_max:04X}",
                    "tag": ans.report.tag.hex(),
                }
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

    def to_dict(self) -> dict:
        return self._fields([_row_to_dict(r) for r in self.rows])

    def to_json(self) -> str:
        """Machine form; byte-identical across repeated runs.

        Equal to ``json.dumps(self.to_dict(), sort_keys=True, indent=2) +
        "\\n"``, but the rows are written straight from the CycleRow objects
        by `_row_json` rather than built as dicts; the other sections go
        through `json.dumps`, indented one level.
        """
        fields = self._fields(None)
        parts = []
        for key in sorted(fields):
            if key == "rows":
                text = _rows_json(self.rows)
            else:
                text = json.dumps(fields[key], sort_keys=True, indent=2).replace("\n", "\n  ")
            parts.append(f'  "{key}": {text}')
        return "{\n" + ",\n".join(parts) + "\n}\n"

    def to_text(self, show_pre_clear: bool = False) -> str:
        lines = [f"scenario: {self.scenario_name}"]
        boot = self.boot
        lines.append(f"boot: {boot.outcome.value} attempts={boot.attempts}")
        for computed, reference in boot.digests:
            lines.append(f"  digest computed={computed.hex()} reference={reference.hex()}")
        boundary = {ev.after_cycle: ev for ev in self.recovery_events}
        answers = {}
        for ans in self.attest_answers:
            answers.setdefault(ans.cycle, []).append(ans)
        for row in self.rows:
            lines.append(_row_to_text(row))
            ev = boundary.get(row.cycle)
            if ev is not None:
                tail = f" -> boot {ev.boot.outcome.value}" if ev.boot else ""
                lines.append(f"  [boundary {row.cycle}] {ev.kind}{tail}")
        for ans_list in answers.values():
            for ans in ans_list:
                r = ans.report
                lines.append(
                    f"attest @ cycle {ans.cycle}: exec_flag={str(r.exec_flag).lower()} "
                    f"er=0x{r.er_min:04X}-0x{r.er_max:04X} tag={r.tag.hex()}"
                )
        if show_pre_clear:
            lines.append(
                f"pre-clear ctrl: 0x{self.pre_clear_ctrl:04X} "
                f"{' '.join(decode_bits(self.pre_clear_ctrl)) or '-'}"
            )
        lines.append(
            f"final ctrl: 0x{self.final_ctrl:04X} "
            f"{' '.join(decode_bits(self.final_ctrl)) or '-'}"
        )
        lines.append(f"final r2: 0x{self.final_r2:04X} mode={self.final_mode}")
        lines.append(f"exit: {self.exit_class}")
        return "\n".join(lines) + "\n"


def _boot_to_dict(boot: BootReport) -> dict:
    return {
        "outcome": boot.outcome.value,
        "attempts": boot.attempts,
        "digests": [
            {"computed": computed.hex(), "reference": reference.hex()}
            for computed, reference in boot.digests
        ],
    }


def _event_to_dict(event: AccessEvent, data: int) -> dict:
    return {
        "pc": f"0x{event.pc:04X}",
        "irq": event.irq,
        "ren": event.ren,
        "wen": event.wen,
        "daddr": f"0x{event.daddr:04X}",
        "dma_en": event.dma_en,
        "dma_addr": f"0x{event.dma_addr:04X}",
        "data": f"0x{data:02X}",
    }


def _row_to_dict(row: CycleRow) -> dict:
    return {
        "cycle": row.cycle,
        "event": _event_to_dict(row.event, row.data),
        "violations": [v.name for v in row.violations],
        "ctrl": f"0x{row.ctrl_after:04X}",
        "ctrl_bits": decode_bits(row.ctrl_after),
        "actions": [
            {
                "violation": rec.violation.name,
                "action": rec.action.label(),
                "applied": rec.applied,
            }
            for rec in row.actions
        ],
        "mem_effect": row.mem_effect,
    }


_JSON_BOOL = ("false", "true")


def _json_names(names: list[str], indent: str) -> str:
    """A list of plain-ASCII strings as `json.dumps(indent=2)` writes it when
    the list's own line is indented by `indent`."""
    if not names:
        return "[]"
    items = ",\n".join(f'{indent}  "{name}"' for name in names)
    return f"[\n{items}\n{indent}]"


def _row_json(row: CycleRow, ctrl_bits: str) -> str:
    """One row exactly as `json.dumps(_row_to_dict(row), sort_keys=True,
    indent=2)` writes it as an element of the top-level "rows" list.

    Every value is a number, a boolean or a string from a fixed ASCII
    vocabulary (hex words, enum names, action labels, write outcomes), so
    nothing needs escaping.  `ctrl_bits` is the encoded `decode_bits` list,
    which the caller computes once per register value.
    """
    ev = row.event
    if row.actions:
        items = ",\n".join(
            "        {\n"
            f'          "action": "{rec.action.label()}",\n'
            f'          "applied": {_JSON_BOOL[rec.applied]},\n'
            f'          "violation": "{rec.violation.name}"\n'
            "        }"
            for rec in row.actions
        )
        actions = f"[\n{items}\n      ]"
    else:
        actions = "[]"
    violations = _json_names([v.name for v in row.violations], "      ")
    return (
        "    {\n"
        f'      "actions": {actions},\n'
        f'      "ctrl": "0x{row.ctrl_after:04X}",\n'
        f'      "ctrl_bits": {ctrl_bits},\n'
        f'      "cycle": {row.cycle},\n'
        '      "event": {\n'
        f'        "daddr": "0x{ev.daddr:04X}",\n'
        f'        "data": "0x{row.data:02X}",\n'
        f'        "dma_addr": "0x{ev.dma_addr:04X}",\n'
        f'        "dma_en": {_JSON_BOOL[ev.dma_en]},\n'
        f'        "irq": {_JSON_BOOL[ev.irq]},\n'
        f'        "pc": "0x{ev.pc:04X}",\n'
        f'        "ren": {_JSON_BOOL[ev.ren]},\n'
        f'        "wen": {_JSON_BOOL[ev.wen]}\n'
        "      },\n"
        f'      "mem_effect": "{row.mem_effect}",\n'
        f'      "violations": {violations}\n'
        "    }"
    )


def _rows_json(rows: list[CycleRow]) -> str:
    """The "rows" list, indented as the value of a top-level key."""
    if not rows:
        return "[]"
    ctrl_bits: dict[int, str] = {}
    parts = []
    for row in rows:
        bits = ctrl_bits.get(row.ctrl_after)
        if bits is None:
            bits = ctrl_bits[row.ctrl_after] = _json_names(decode_bits(row.ctrl_after), "      ")
        parts.append(_row_json(row, bits))
    return "[\n" + ",\n".join(parts) + "\n  ]"


def _row_to_text(row: CycleRow) -> str:
    ev = row.event
    parts = [f"pc=0x{ev.pc:04X}"]
    if ev.irq:
        parts.append("irq")
    if ev.dma_en:
        op = "ren" if ev.ren else ("wen" if ev.wen else "idle")
        parts.append(f"dma {op} 0x{ev.dma_addr:04X}")
    elif ev.ren or ev.wen:
        parts.append(f"{'ren' if ev.ren else 'wen'} 0x{ev.daddr:04X}")
    viol = " ".join(v.name for v in row.violations) or "-"
    acts = " ".join(
        f"{rec.action.label()}{'' if rec.applied else '(subsumed)'}" for rec in row.actions
    ) or "-"
    return (
        f"cycle {row.cycle:>4}: {' '.join(parts)} | {viol} | "
        f"ctrl=0x{row.ctrl_after:04X} | {acts} | mem={row.mem_effect}"
    )


# -- runner -------------------------------------------------------------


def run(scenario: Scenario) -> RunReport:
    """Boot, replay the trace, service recoveries, answer challenges.

    Deterministic: identical scenario text yields a byte-identical machine
    report.  All runtime outcomes are report content, never exceptions.
    """
    state = build_device(scenario)
    boot = fsbl_boot(state)
    report = RunReport(scenario_name=scenario.name, boot=boot)
    if boot.outcome is BootOutcome.UNRECOVERABLE:
        report.exit_class = "unrecoverable"
        _finalize(report, state)
        return report

    pox = scenario.pox
    pox_armed = False
    pox_done = pox is None
    pending = scenario.attest_requests
    next_attest = 0
    halted_for_good = False

    def answer_due(last_cycle: float) -> None:
        """Answer every pending challenge due by last_cycle, in order."""
        nonlocal next_attest
        while next_attest < len(pending) and pending[next_attest].cycle <= last_cycle:
            entry = pending[next_attest]
            next_attest += 1
            report.attest_answers.append(
                AttestAnswer(entry.cycle, entry.request, attest(state, entry.request))
            )

    for step_rec in scenario.trace:
        label = step_rec.cycle
        if not pox_done and not pox_armed and label >= pox.begin_cycle:
            pox_begin(state, pox.er_min, pox.er_max)
            pox_armed = True
            if label > pox.end_cycle:  # window fell entirely inside a gap
                pox_end(state)
                pox_done = True

        # idle gap cycles carry no bus activity; land the step on its label
        state.cycle = label - 1
        violations = det.step(state, step_rec.event)
        report.pre_clear_ctrl |= violations_mask(violations)
        actions = apply_prevention(state, violations, scenario.binding)
        report.pre_clear_ctrl |= state.ctrl.value & det.RESET_MASK

        mem_effect = "none"
        if step_rec.event.wen:
            if state.cpu_halted and not step_rec.event.dma_en:
                mem_effect = "suppressed"
            else:
                target = step_rec.event.dma_addr if step_rec.event.dma_en else step_rec.event.daddr
                try:
                    mem_effect = apply_write(state, target, step_rec.data).value
                except UnmappedAddressError:
                    mem_effect = "unmapped"

        report.rows.append(
            CycleRow(
                cycle=label,
                event=step_rec.event,
                data=step_rec.data,
                violations=sorted(violations, key=lambda v: v.bit),
                ctrl_after=state.ctrl.value,
                actions=actions,
                mem_effect=mem_effect,
            )
        )

        if not pox_done and pox_armed and label >= pox.end_cycle:
            pox_end(state)
            pox_done = True

        answer_due(label)

        if state.recovery_queued:
            reflash(state)
            report.recovery_events.append(RecoveryEvent(after_cycle=label, kind="reflash"))
        if state.reset_pending:
            reboot = _service_reset(state)
            report.recovery_events.append(
                RecoveryEvent(after_cycle=label, kind="reset", boot=reboot)
            )
            if reboot.outcome is BootOutcome.UNRECOVERABLE:
                report.exit_class = "unrecoverable"
                halted_for_good = True
                break

    if not halted_for_good:
        if not pox_done:
            if not pox_armed:
                pox_begin(state, pox.er_min, pox.er_max)
            pox_end(state)
        answer_due(math.inf)
        violated = bool(report.pre_clear_ctrl & det.DETECT_MASK)
        report.exit_class = "violations" if violated else "clean"

    _finalize(report, state)
    return report


def _service_reset(state: DeviceState) -> BootReport:
    """Full system reset: wipe latches, register, mode, and proof; reboot."""
    pox_abort(state)
    state.ctrl.clear_all()
    state.chip_gate_active = False
    state.cpu_halted = False
    state.recovery_queued = False
    state.reset_pending = False
    state.r2 = ModeRegister()
    state.sync_metadata()
    return fsbl_boot(state)


def _finalize(report: RunReport, state: DeviceState) -> None:
    report.final_ctrl = state.ctrl.value
    report.final_r2 = state.r2.value
    report.final_mode = state.r2.mode_name
    report.final_digests = state.region_digests()


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
