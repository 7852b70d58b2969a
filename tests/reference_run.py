"""The whole-run oracle: the `RunReport.to_dict()` document of a scenario,
rebuilt from the README's rules with plain loops.

It shares no code with what it checks.  From `rares_sim` it reads only the
scenario's data, the actions its binding returns from `action_for`, and
`classify_trace_naive`, the whole-trace scanner of rules R1-R8.  Everything
else (arbitration and marks, write suppression, recovery, reset and reboot,
the timeline, the metadata view, tags, digests, the report's layout) is
stated again here, so a change to any of it in the package shows.
"""

import hashlib
import hmac
import math

from rares_sim.detector import ViolationKind
from rares_sim.scenario import classify_trace_naive

# Register bits D0-D9, one per violation kind; D10 is the reset request and
# D11-D15 stay zero.  A recovery clears D0-D9; only a reset clears D10.
BIT_NAMES = [
    "IRQ_RAM", "IRQ_STACK", "DMA_RAM_WR", "DMA_RAM_RD", "DMA_STACK_RD",
    "DMA_ROM_RD", "CPU_RAM_WR", "CPU_RAM_RD", "CPU_STACK_RD", "CPU_ROM_RD",
]
DETECT = 0x03FF
RESET = 0x0400
# Prevention actions, weakest first: in one cycle only the strongest bound
# action is applied, and every bound action is logged.
PRECEDENCE = ["NONE", "SOFT_MODE_SWITCH", "HARD_CPU_OFF", "CHIP_GATE_AND_RECOVER", "SYSTEM_RESET"]
# The operating mode is named by r2 bits 4-7 (CPUOFF 0x10, OSCOFF 0x20,
# SCG0 0x40, SCG1 0x80); any other combination is reserved.
MODES = {0x00: "active", 0x10: "lpm0", 0x50: "lpm1", 0x90: "lpm2", 0xD0: "lpm3", 0xF0: "lpm4"}
# Bus writes to these regions never land.
READ_ONLY = {"boot_rom", "key_rom", "recovery_rom", "metadata"}


def word(value):
    return f"0x{value:04X}"


def bits(value):
    names = [f"D{b}:{name}" for b, name in enumerate(BIT_NAMES) if value >> b & 1]
    return names + ["D10:RESET"] if value & RESET else names


def sha256_hmac(key, data):
    return hmac.new(key, data, hashlib.sha256).digest()


class Device:
    """The device state, each prevention action's one mark held once: `r2`
    (mode switch), `halted` (CPU off), `gate` (chip-enable gate, that is a
    queued recovery) and D10 of `ctrl` (reset)."""

    def __init__(self, scenario):
        self.layout = scenario.layout
        self.binding = scenario.binding
        self.regions = {r.kind.value: (r.start, r.end) for r in scenario.layout.regions}
        self.mem = {name: bytearray(end - start + 1) for name, (start, end) in self.regions.items()}
        # the recovery ROM holds the golden image; contents are zero-padded
        loads = [("key_rom", scenario.key), ("recovery_rom", scenario.golden.image)]
        for name, data in loads + [(k.value, d) for k, d in scenario.region_contents.items()]:
            self.mem[name][:len(data)] = data
        self.reference = scenario.golden.reference_digest
        self.ctrl = self.r2 = 0
        self.halted = self.gate = False
        self.er_min = self.er_max = 0
        self.armed = self.clean = self.exec_flag = False

    def region_of(self, addr):
        for name, (start, end) in self.regions.items():
            if start <= addr <= end:
                return name
        return None

    def view(self, name):
        """A region's bytes.  The metadata region is rendered when read: the
        register (2 bytes little-endian), then the reference digest, then
        er_min, er_max (little-endian) and the exec flag, each field only if
        the region holds it."""
        buf = self.mem[name]
        if name == "metadata":
            header = self.ctrl.to_bytes(2, "little")
            if len(buf) >= 2 + 32:
                header += self.reference
            if len(buf) >= 2 + 32 + 5:
                header += self.er_min.to_bytes(2, "little") + self.er_max.to_bytes(2, "little")
                header += bytes([self.exec_flag])
            buf[:len(header)] = header
        return bytes(buf)

    def reflash(self):
        """Rewrite flash from the recovery ROM; D0-D9, the halt and the gate
        clear, D10 stays."""
        flash = self.mem["flash"]
        flash[:] = self.mem["recovery_rom"][:len(flash)]
        self.ctrl &= ~DETECT
        self.halted = self.gate = False

    def flash_ok(self, digests):
        computed = sha256_hmac(bytes(self.mem["key_rom"]), bytes(self.mem["flash"]))
        digests.append({"computed": computed.hex(), "reference": self.reference.hex()})
        return computed == self.reference

    def boot(self):
        """Check flash; on a mismatch reflash and check once more.  A second
        mismatch halts the device for good."""
        digests, outcome = [], "verified_clean"
        if not self.flash_ok(digests):
            self.reflash()
            outcome = "recovered_then_verified" if self.flash_ok(digests) else "unrecoverable"
            self.halted = outcome == "unrecoverable"
        return {"outcome": outcome, "attempts": len(digests), "digests": digests}

    def reset(self):
        """Clear the register, the mode, the halt, the gate and any window
        and proof (the window bounds stay), then reboot."""
        self.ctrl = self.r2 = 0
        self.halted = self.gate = False
        self.armed = self.clean = self.exec_flag = False
        return self.boot()

    def prevent(self, names):
        bound = [(name, self.binding.action_for(ViolationKind[name])) for name in names]
        rank = max((PRECEDENCE.index(action.kind.name) for _, action in bound), default=0)
        records = []
        for name, action in bound:
            kind = action.kind.name
            label = kind.lower() + (f"({word(action.mask)})" if kind == "SOFT_MODE_SWITCH" else "")
            applied = rank > 0 and PRECEDENCE.index(kind) == rank
            records.append({"violation": name, "action": label, "applied": applied})
            if applied and kind == "SOFT_MODE_SWITCH":
                self.r2 |= action.mask  # every winning mask is set
        winner = PRECEDENCE[rank]
        if winner == "HARD_CPU_OFF":
            self.halted = True
        elif winner == "CHIP_GATE_AND_RECOVER":
            self.gate = True
        elif winner == "SYSTEM_RESET":
            self.ctrl |= RESET
        return records

    def write(self, event, data):
        if self.halted and not event.dma_en:
            return "suppressed"  # a halted CPU writes nothing; DMA runs on
        addr = event.dma_addr if event.dma_en else event.daddr
        name = self.region_of(addr)
        if name is None:
            return "unmapped"
        if name in READ_ONLY or self.gate:
            return "suppressed"  # the raised gate stops the access in its own cycle
        self.mem[name][addr - self.regions[name][0]] = data
        return "applied"

    def cycle(self, step):
        """Detect, latch, watch the window, prevent, then the memory effect."""
        event = step.event
        mask = classify_trace_naive(self.layout, [event])
        self.ctrl |= mask
        # any violation, interrupt or pc outside [er_min, er_max] breaches
        # an open window, and the flag drops at once
        if self.armed and (mask or event.irq or not self.er_min <= event.pc <= self.er_max):
            self.clean = self.exec_flag = False
        names = [name for b, name in enumerate(BIT_NAMES) if mask >> b & 1]
        actions = self.prevent(names)
        return {
            "cycle": step.cycle,
            "event": {
                "pc": word(event.pc), "irq": event.irq, "ren": event.ren, "wen": event.wen,
                "daddr": word(event.daddr), "dma_en": event.dma_en,
                "dma_addr": word(event.dma_addr), "data": f"0x{step.data:02X}",
            },
            "violations": names,
            "ctrl": word(self.ctrl),
            "ctrl_bits": bits(self.ctrl),
            "actions": actions,
            "mem_effect": self.write(event, step.data) if event.wen else "none",
        }

    def answer(self, entry):
        """The tag covers nonce, er_min and er_max (big-endian), the exec
        flag byte and the region's bytes, the metadata view as rendered."""
        req = entry.request
        name = self.region_of(req.region_start)
        offset = req.region_start - self.regions[name][0]
        data = self.view(name)[offset:offset + req.region_end - req.region_start + 1]
        message = req.nonce + self.er_min.to_bytes(2, "big") + self.er_max.to_bytes(2, "big")
        message += bytes([self.exec_flag]) + data
        return {
            "cycle": entry.cycle, "nonce": req.nonce.hex(),
            "region_start": word(req.region_start), "region_end": word(req.region_end),
            "exec_flag": self.exec_flag, "er_min": word(self.er_min), "er_max": word(self.er_max),
            "tag": sha256_hmac(bytes(self.mem["key_rom"]), message).hex(),
        }


def reference_run(scenario):
    """The report document `run(scenario).to_dict()` must equal."""
    device = Device(scenario)
    boot = device.boot()
    doc = {"scenario": scenario.name, "boot": boot, "rows": [], "recovery_events": [],
           "attest_reports": []}
    # One timeline in half-cycle ticks: tick 2c is the end of cycle c.  The
    # window opens half a cycle before begin_cycle and closes at the end of
    # end_cycle; a challenge is answered at the end of its cycle.  At equal
    # ticks the close (rank 0) comes before the answers (rank 1), and the
    # stable sort keeps the answers in document order.
    timeline = [(2 * entry.cycle, 1, entry) for entry in scenario.attest_requests]
    pox = scenario.pox
    if pox is not None:
        timeline += [(2 * pox.begin_cycle - 1, 0, "open"), (2 * pox.end_cycle, 0, "close")]
    timeline.sort(key=lambda item: item[:2])

    def serve_before(tick):
        while timeline and timeline[0][0] < tick:
            what = timeline.pop(0)[2]
            if what == "open":
                device.er_min, device.er_max = pox.er_min, pox.er_max
                device.armed = device.clean = True
            elif what == "close":
                if device.armed:
                    device.exec_flag, device.armed = device.clean, False
            else:
                doc["attest_reports"].append(device.answer(what))

    events, pre_clear = doc["recovery_events"], 0
    # an unrecoverable power-on boot halts the device before the trace
    steps = [] if boot["outcome"] == "unrecoverable" else scenario.trace
    for step in steps:
        serve_before(2 * step.cycle)  # what is timed before the event
        doc["rows"].append(device.cycle(step))
        ctrl = device.ctrl
        pre_clear |= ctrl
        serve_before(2 * step.cycle + 1)  # what is timed at its cycle
        # the cycle boundary: a queued recovery reflashes, D10 resets
        if device.gate:
            device.reflash()
            events.append({"after_cycle": step.cycle, "kind": "reflash", "boot": None})
        if ctrl & RESET:
            boot = device.reset()
            events.append({"after_cycle": step.cycle, "kind": "reset", "boot": boot})
            if boot["outcome"] == "unrecoverable":
                break  # the device halts; nothing more is served
    if boot["outcome"] == "unrecoverable":
        exit_class = "unrecoverable"
    else:
        serve_before(math.inf)  # after the trace, the rest
        exit_class = "violations" if pre_clear & DETECT else "clean"
    modes = device.r2 & 0xF0
    doc.update({
        "pre_clear_ctrl": word(pre_clear),
        "pre_clear_ctrl_bits": bits(pre_clear),
        "final_ctrl": word(device.ctrl),
        "final_ctrl_bits": bits(device.ctrl),
        "final_r2": word(device.r2),
        "final_mode": MODES.get(modes, f"reserved(0x{modes:02X})"),
        "final_digests": {n: hashlib.sha256(device.view(n)).hexdigest() for n in device.mem},
        "exit": exit_class,
    })
    return doc
