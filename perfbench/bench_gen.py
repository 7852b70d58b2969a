"""Seeded inputs for the rares-sim benchmark.

Every function here is a pure function of its seed: the same seed gives
byte-identical scenario text and the same challenge list.  Nothing here
imports rares_sim, so the program under test sees only the generated text,
never the seed.

The seed moves addresses, data bytes, keys, nonces and the positions of
hostile events.  The mix of work is fixed by construction (exact counts of
each hostile template, fixed region-size strata), so the cost of a workload
does not depend on which seed the benchmark was given.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# Default region map of the simulator (inclusive bounds), mirrored here so
# the generator and the oracles stay independent of the package under test.
REGIONS = {
    "reserved_stack": (0x0200, 0x0AFF),
    "metadata": (0x0B00, 0x0B3F),
    "app_ram": (0x4000, 0x5FFF),
    "boot_rom": (0x6000, 0x69FF),
    "key_rom": (0x6A00, 0x6A1F),
    "recovery_rom": (0x7000, 0x77FF),
    "flash": (0xE000, 0xE7FF),
}
FLASH_SIZE = 0x800
APP_RAM_SIZE = 0x2000

# Program-counter places for the three execution contexts.  "other" is any
# place that is neither app RAM nor boot ROM, including an unmapped gap.
CONTEXT_PCS = {
    "app": [REGIONS["app_ram"]],
    "att": [REGIONS["boot_rom"]],
    "other": [
        REGIONS["flash"],
        REGIONS["reserved_stack"],
        REGIONS["recovery_rom"],
        REGIONS["metadata"],
        (0x8000, 0xDFFF),
    ],
}

# Benign accesses from app context: none of them matches a detection rule.
BENIGN = [
    ("cpu", "ren", "app_ram"),
    ("cpu", "ren", "reserved_stack"),
    ("cpu", "ren", "flash"),
    ("cpu", "ren", "boot_rom"),
    ("cpu", "ren", "metadata"),
    ("cpu", "wen", "app_ram"),
    ("cpu", "wen", "reserved_stack"),
    ("dma", "ren", "app_ram"),
    ("dma", "ren", "reserved_stack"),
    ("dma", "ren", "flash"),
    ("dma", "wen", "app_ram"),
    ("dma", "wen", "reserved_stack"),
]

# long_trace hostile events: every context x every region x every access
# kind, plus a bare interrupt in each context.  Whether one matches a rule
# is for the detector (and the oracle) to decide.
SPREAD = [
    (ctx, unit, op, region, False)
    for ctx in ("app", "att", "other")
    for region in REGIONS
    for unit, op in (("cpu", "ren"), ("cpu", "wen"), ("dma", "ren"), ("dma", "wen"))
] + [(ctx, None, None, None, True) for ctx in ("app", "att", "other")]

# recovery_storm hostile events: each one matches at least one rule.  The
# last five match two kinds at once, so action arbitration has work to do;
# the flash write under an interrupt tampers the image the next reset checks.
STORM = [
    ("app", None, None, None, True),  # IRQ_RAM
    ("att", None, None, None, True),  # IRQ_STACK
    ("att", "dma", "wen", "app_ram", False),  # DMA_RAM_WR
    ("att", "dma", "ren", "app_ram", False),  # DMA_RAM_RD
    ("other", "dma", "ren", "reserved_stack", False),  # DMA_STACK_RD
    ("app", "dma", "ren", "key_rom", False),  # DMA_ROM_RD
    ("other", "dma", "ren", "boot_rom", False),  # DMA_ROM_RD
    ("att", "cpu", "wen", "app_ram", False),  # CPU_RAM_WR
    ("att", "cpu", "ren", "app_ram", False),  # CPU_RAM_RD
    ("other", "cpu", "ren", "reserved_stack", False),  # CPU_STACK_RD
    ("other", "cpu", "ren", "key_rom", False),  # CPU_ROM_RD
    ("other", "cpu", "ren", "boot_rom", False),  # CPU_ROM_RD
    ("att", "cpu", "ren", "app_ram", True),  # IRQ_STACK + CPU_RAM_RD
    ("app", "cpu", "ren", "key_rom", True),  # IRQ_RAM + CPU_ROM_RD
    ("att", "dma", "wen", "app_ram", True),  # IRQ_STACK + DMA_RAM_WR
    ("att", "cpu", "wen", "flash", True),  # IRQ_STACK, flash tampered
    ("app", "dma", "ren", "key_rom", True),  # IRQ_RAM + DMA_ROM_RD
]

# All five prevention actions are bound.
STORM_BINDING = {
    "IRQ_RAM": "system_reset",
    "IRQ_STACK": {"action": "soft_mode_switch", "mask": "0x0010"},
    "DMA_RAM_WR": "chip_gate_and_recover",
    "DMA_RAM_RD": "none",
    "DMA_STACK_RD": "soft_mode_switch",
    "DMA_ROM_RD": "chip_gate_and_recover",
    "CPU_RAM_WR": "chip_gate_and_recover",
    "CPU_RAM_RD": "hard_cpu_off",
    "CPU_STACK_RD": {"action": "soft_mode_switch", "mask": "0x00D0"},
    "CPU_ROM_RD": "system_reset",
}

LONG_TRACE_CYCLES = 50_000
LONG_TRACE_HOSTILE = 1_000  # 2 %
STORM_CYCLES = 20_000
STORM_HOSTILE = STORM_CYCLES // 3
TRACE_ATTESTS = 4

POX_WINDOW = (0x4000, 0x4FFF)
PREAMBLE_WINDOW = (0x4000, 0x40FF)
PREAMBLE_CYCLES = 64
CHALLENGES = 512
TAMPERED_SHARE = 8  # one challenge in eight carries a tampered expectation
APP_SIZES = (64, 128, 256, 512, 1024, 2048, 4096, 8192)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def _hex4(addr: int) -> str:
    return f"0x{addr:04X}"


def _pc(rng: random.Random, ctx: str) -> int:
    lo, hi = rng.choice(CONTEXT_PCS[ctx])
    return rng.randint(lo, hi)


def _event(rng, cycle, pc, unit, op, region, irq) -> dict:
    event = {"cycle": cycle, "pc": _hex4(pc)}
    if irq:
        event["irq"] = True
    if op is not None:
        addr = _hex4(rng.randint(*REGIONS[region]))
        event[op] = True
        if unit == "dma":
            event["dma_en"] = True
            event["dma_addr"] = addr
        else:
            event["daddr"] = addr
        if op == "wen":
            event["data"] = f"0x{rng.randrange(256):02X}"
    return event


def _mixed_trace(rng, cycles, hostile, templates, benign_pcs) -> list[dict]:
    """`cycles` events; exactly `hostile` of them come from `templates`,
    each template used a fixed number of times, at seeded positions."""
    picks = (templates * (hostile // len(templates) + 1))[:hostile]
    rng.shuffle(picks)
    at = dict(zip(sorted(rng.sample(range(cycles), hostile)), picks))
    trace = []
    for i in range(cycles):
        template = at.get(i)
        if template is None:
            unit, op, region = rng.choice(BENIGN)
            trace.append(_event(rng, i + 1, rng.randint(*benign_pcs), unit, op, region, False))
        else:
            ctx, unit, op, region, irq = template
            trace.append(_event(rng, i + 1, _pc(rng, ctx), unit, op, region, irq))
    return trace


def _attests(rng, cycles) -> list[dict]:
    out = []
    for k in range(1, TRACE_ATTESTS + 1):
        start = rng.randrange(REGIONS["app_ram"][0], REGIONS["app_ram"][1] - 255)
        out.append({
            "cycle": cycles * k // TRACE_ATTESTS,
            "nonce": rng.randbytes(32).hex(),
            "region_start": _hex4(start),
            "region_end": _hex4(start + 255),
        })
    return out


def long_trace(seed: int) -> str:
    """5*10^4 cycles, 98 % benign app-context traffic, one PoX window over all."""
    rng = _rng("long_trace", seed)
    doc = {
        "name": f"long-trace-{seed}",
        "golden": {"image": rng.randbytes(FLASH_SIZE).hex()},
        "regions": {"app_ram": rng.randbytes(APP_RAM_SIZE).hex()},
        "pox": {
            "begin_cycle": 1,
            "end_cycle": LONG_TRACE_CYCLES,
            "er_min": _hex4(POX_WINDOW[0]),
            "er_max": _hex4(POX_WINDOW[1]),
        },
        "attest": _attests(rng, LONG_TRACE_CYCLES),
        "trace": _mixed_trace(rng, LONG_TRACE_CYCLES, LONG_TRACE_HOSTILE, SPREAD, POX_WINDOW),
    }
    return json.dumps(doc)


def recovery_storm(seed: int) -> str:
    """A third of cycles violate; every action bound; flash starts tampered."""
    rng = _rng("recovery_storm", seed)
    golden = bytearray(rng.randbytes(FLASH_SIZE))
    tampered = bytearray(golden)
    for off in rng.sample(range(FLASH_SIZE), 4):
        tampered[off] ^= 0xFF
    doc = {
        "name": f"recovery-storm-{seed}",
        "key": rng.randbytes(32).hex(),
        "golden": {"image": golden.hex()},
        "regions": {"flash": tampered.hex(), "app_ram": rng.randbytes(APP_RAM_SIZE).hex()},
        "binding": STORM_BINDING,
        "attest": _attests(rng, STORM_CYCLES),
        "trace": _mixed_trace(rng, STORM_CYCLES, STORM_HOSTILE, STORM, POX_WINDOW),
    }
    return json.dumps(doc)


@dataclass(frozen=True)
class Challenge:
    nonce: bytes
    region: str
    start: int
    end: int
    tampered: bool


@dataclass(frozen=True)
class AttestSetup:
    text: str
    key: bytes
    challenges: list[Challenge]


def attest_exchange(seed: int) -> AttestSetup:
    """A device after a short clean PoX run, and the verifier's challenges.

    App-RAM regions come in eight size strata from 64 B to all of app RAM,
    plus whole-flash and whole-metadata regions; exactly one challenge in
    eight is paired with a tampered expectation.
    """
    rng = _rng("attest_exchange", seed)
    key = rng.randbytes(32)
    lo, hi = PREAMBLE_WINDOW
    trace = []
    for i in range(PREAMBLE_CYCLES):
        region = "app_ram" if i % 2 else "flash"
        trace.append(_event(rng, i + 1, rng.randint(lo, hi), "cpu", "ren", region, False))
    doc = {
        "name": f"attest-exchange-{seed}",
        "key": key.hex(),
        "golden": {"image": rng.randbytes(FLASH_SIZE).hex()},
        "regions": {"app_ram": rng.randbytes(APP_RAM_SIZE).hex()},
        "pox": {
            "begin_cycle": 1,
            "end_cycle": PREAMBLE_CYCLES,
            "er_min": _hex4(lo),
            "er_max": _hex4(hi),
        },
        "trace": trace,
    }
    shapes = []
    per_size = (CHALLENGES * 7 // 8) // len(APP_SIZES)
    for size in APP_SIZES:
        shapes += [("app_ram", size)] * per_size
    rest = CHALLENGES - len(shapes)
    shapes += [("flash", FLASH_SIZE)] * (rest // 2)
    shapes += [("metadata", 64)] * (rest - rest // 2)
    rng.shuffle(shapes)
    tampered = set(rng.sample(range(CHALLENGES), CHALLENGES // TAMPERED_SHARE))
    challenges = []
    for i, (region, size) in enumerate(shapes):
        base, top = REGIONS[region]
        start = rng.randint(base, top - size + 1)
        challenges.append(
            Challenge(rng.randbytes(32), region, start, start + size - 1, i in tampered)
        )
    return AttestSetup(json.dumps(doc), key, challenges)


def suite_order(seed: int, invocations: list):
    """Endless passes over the CLI invocations, each pass in a seeded order."""
    rng = _rng("scenario_suite", seed)
    while True:
        calls = list(invocations)
        rng.shuffle(calls)
        yield calls
