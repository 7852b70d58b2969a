"""Command-line front end.

    rares-sim run SCENARIO [--format text|json] [--snapshot-pre-clear]
    rares-sim boot SCENARIO [--format text|json]
    rares-sim attest SCENARIO --nonce HEX [--start A --end A] [--require-exec]

Exit codes: 0 clean, 1 scenario/usage error, 2 violations detected (or a
failed attestation verdict), 3 unrecoverable device.  JSON output goes to
stdout with nothing else mixed in; diagnostics go to stderr.  Every command
stops quietly, with its own exit code, when stdout's reader leaves.
"""

from __future__ import annotations

import argparse
import enum
import json
import os
import sys

from .attestation import NONCE_SIZE, AttestRequest, verify_report
from .memory import DeviceState, RegionKind
from .scenario import (
    AttestAt,
    Scenario,
    ScenarioError,
    _attest_to_dict,
    _boot_lines,
    _boot_to_dict,
    build_device,
    parse_scenario_file,
    run,
)
from .secureboot import BootOutcome, BootReport, fsbl_boot


class ExitStatus(enum.IntEnum):
    OK = 0
    USAGE = 1
    VIOLATIONS = 2
    UNRECOVERABLE = 3


_EXIT_BY_CLASS = {
    "clean": ExitStatus.OK,
    "violations": ExitStatus.VIOLATIONS,
    "unrecoverable": ExitStatus.UNRECOVERABLE,
}


class _Parser(argparse.ArgumentParser):
    # scenario/usage problems are exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(int(ExitStatus.USAGE), f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rares-sim", description="attack-resilient device simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="boot the device and replay a bus trace")
    p_run.add_argument("scenario", help="path to a .rares.json scenario")
    p_run.add_argument("--format", choices=("text", "json"), default="text")
    p_run.add_argument(
        "--snapshot-pre-clear",
        action="store_true",
        help="include the control-register snapshot taken before any recovery clears it",
    )

    p_boot = sub.add_parser("boot", help="run secure boot only")
    p_boot.add_argument("scenario", help="path to a .rares.json scenario")
    p_boot.add_argument("--format", choices=("text", "json"), default="text")

    p_att = sub.add_parser(
        "attest", help="replay the trace, then challenge the device and verify the answer"
    )
    p_att.add_argument("scenario", help="path to a .rares.json scenario")
    p_att.add_argument("--nonce", required=True, help="challenge nonce, 32-byte hex")
    p_att.add_argument("--start", help="attested region start (default: app RAM start)")
    p_att.add_argument("--end", help="attested region end (default: app RAM end)")
    p_att.add_argument(
        "--require-exec",
        action="store_true",
        help="verdict additionally requires a clean proof-of-execution flag",
    )
    p_att.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _load(path: str) -> Scenario:
    try:
        return parse_scenario_file(path)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc.strerror or exc}") from None


def _boot_fresh(scenario: Scenario) -> tuple[DeviceState, BootReport]:
    state = build_device(scenario)
    return state, fsbl_boot(state)


class _StdoutChunks:
    """Joins a report writer's pieces and writes them to stdout about 64 KiB
    at a time.  Written one by one, a report's rows reached a pipe in
    stdout's 8 KiB flushes, one reader wake-up each, which made `run` on a
    5*10^4-cycle trace about a third slower through a pipe than one
    whole-report write."""

    SIZE = 1 << 16

    def __init__(self):
        self.pieces: list[str] = []
        self.size = 0

    def write(self, piece: str) -> None:
        self.pieces.append(piece)
        self.size += len(piece)
        if self.size >= self.SIZE:
            self.flush()

    def flush(self) -> None:
        try:
            sys.stdout.write("".join(self.pieces))
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has left: the rest, and the exit flush, go to the null device
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        self.pieces.clear()
        self.size = 0


def cmd_run(args, write) -> int:
    report = run(_load(args.scenario))
    if args.format == "json":
        report.write_json(write)
    else:
        report.write_text(write, show_pre_clear=args.snapshot_pre_clear)
    return _EXIT_BY_CLASS[report.exit_class]


def cmd_boot(args, write) -> int:
    scenario = _load(args.scenario)
    _, boot = _boot_fresh(scenario)
    if args.format == "json":
        payload = {"scenario": scenario.name, **_boot_to_dict(boot)}
        write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        write("\n".join(_boot_lines(boot)) + "\n")
    if boot.outcome is BootOutcome.UNRECOVERABLE:
        return ExitStatus.UNRECOVERABLE
    return ExitStatus.OK


def cmd_attest(args, write) -> int:
    scenario = _load(args.scenario)
    try:
        nonce = bytes.fromhex(args.nonce)
    except ValueError:
        raise ScenarioError(f"--nonce: bad hex {args.nonce!r}") from None
    if len(nonce) != NONCE_SIZE:
        raise ScenarioError(f"--nonce: must be {NONCE_SIZE} bytes, got {len(nonce)}")

    app = scenario.layout.region(RegionKind.APP_RAM)
    try:
        start = int(args.start, 0) if args.start is not None else app.start
        end = int(args.end, 0) if args.end is not None else app.end
    except ValueError:
        raise ScenarioError("--start/--end: bad address") from None
    if scenario.layout.span(start, end) is None:
        raise ScenarioError("--start/--end must lie within one mapped region")
    request = AttestRequest(nonce=nonce, region_start=start, region_end=end)

    # The verifier's reference view of the region: a freshly booted device.
    ref_state, ref_boot = _boot_fresh(scenario)
    if ref_boot.outcome is BootOutcome.UNRECOVERABLE:
        sys.stderr.write("attest: device image is unrecoverable\n")
        return ExitStatus.UNRECOVERABLE
    expected = ref_state.region_bytes(start, end)

    # Challenge the device one cycle after all the scenario schedules (its last
    # label, its challenges, its window's end), so the last answer is this one.
    scheduled = scenario.trace.cycle[-1:] + [item.cycle for item in scenario.attest_requests]
    challenge_cycle = max(scheduled + [scenario.pox.end_cycle if scenario.pox else 0]) + 1
    scenario.attest_requests = list(scenario.attest_requests) + [
        AttestAt(cycle=challenge_cycle, request=request)
    ]
    report = run(scenario)
    if report.exit_class == "unrecoverable":
        sys.stderr.write("attest: device became unrecoverable during the trace\n")
        return ExitStatus.UNRECOVERABLE
    answer = report.attest_answers[-1]
    verdict = verify_report(
        scenario.key, request, answer.report, expected, require_exec=args.require_exec
    )

    if args.format == "json":
        payload = {
            "scenario": scenario.name,
            **_attest_to_dict(request, answer.report),
            "verdict": verdict,
        }
        write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        r = answer.report
        write(
            f"attest: region=0x{start:04X}-0x{end:04X} exec_flag={str(r.exec_flag).lower()} "
            f"er=0x{r.er_min:04X}-0x{r.er_max:04X}\n"
            f"tag: {r.tag.hex()}\n"
            f"verdict: {'pass' if verdict else 'FAIL'}\n"
        )
    return ExitStatus.OK if verdict else ExitStatus.VIOLATIONS


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "boot": cmd_boot, "attest": cmd_attest}
    out = _StdoutChunks()
    try:
        code = handlers[args.command](args, out.write)
    except ScenarioError as exc:
        sys.stderr.write(f"rares-sim: {exc}\n")
        return int(ExitStatus.USAGE)
    out.flush()
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
