#!/usr/bin/env python3
"""Fire one minimal attack per violation kind and tabulate the outcome.

For each of the ten kinds this builds a fresh device, replays a single
hostile bus cycle, and prints which register bit latched, which prevention
action fired, and whether the access reached memory.
"""

import argparse
import dataclasses

from rares_sim.detector import AccessEvent, ViolationKind, decode_bits
from rares_sim.scenario import Scenario, Trace, TraceStep, parse_scenario, run

V = ViolationKind

ATTACKS = {
    V.IRQ_RAM: AccessEvent(pc=0x4000, irq=True),
    V.IRQ_STACK: AccessEvent(pc=0x6000, irq=True),
    V.DMA_RAM_WR: AccessEvent(pc=0x6000, wen=True, dma_en=True, dma_addr=0x4000),
    V.DMA_RAM_RD: AccessEvent(pc=0x6000, ren=True, dma_en=True, dma_addr=0x4000),
    V.DMA_STACK_RD: AccessEvent(pc=0xE000, ren=True, dma_en=True, dma_addr=0x0200),
    V.DMA_ROM_RD: AccessEvent(pc=0x4000, ren=True, dma_en=True, dma_addr=0x6A00),
    V.CPU_RAM_WR: AccessEvent(pc=0x6000, wen=True, daddr=0x4000),
    V.CPU_RAM_RD: AccessEvent(pc=0x6000, ren=True, daddr=0x4000),
    V.CPU_STACK_RD: AccessEvent(pc=0xE000, ren=True, daddr=0x0200),
    V.CPU_ROM_RD: AccessEvent(pc=0x4000, ren=True, daddr=0x6A00),
}


def single_attack_scenario(kind: ViolationKind) -> Scenario:
    """The default device and policy, with one hostile cycle as its trace."""
    return dataclasses.replace(
        parse_scenario("{}"),
        name=f"attack-{kind.name.lower()}",
        trace=Trace.from_steps([TraceStep(cycle=1, event=ATTACKS[kind], data=0xFF)]),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="store_true", help="print full machine reports")
    args = parser.parse_args()

    reports = [run(single_attack_scenario(kind)) for kind in V]
    bits = [" ".join(decode_bits(report.rows[0].ctrl_after)) for report in reports]
    width = max(map(len, bits))
    header = f"{'kind':<14} {'bit':<{width}} {'ctrl':>6}  {'action':<24} {'mem':<10} exit"
    print(header)
    print("-" * len(header))
    for kind, report, bit in zip(V, reports, bits):
        row = report.rows[0]
        applied = next(rec for rec in row.actions if rec.applied)
        print(
            f"{kind.name:<14} {bit:<{width}} 0x{row.ctrl_after:04X}  "
            f"{applied.action.label():<24} {row.mem_effect:<10} {report.exit_class}"
        )
        if args.json:
            print(report.to_json())


if __name__ == "__main__":
    main()
