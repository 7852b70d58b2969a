#!/usr/bin/env python3
"""rares-sim benchmark: one command, one process, no worker threads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a rares-sim checkout; the package is imported from
``src/`` there and the CLI workload runs ``scenarios/*.rares.json``.  The
seed only shapes the generated inputs, which the program receives as
scenario text.

Workloads (see README.md for why each exists and what it should move):

  long_trace      parse -> run -> to_json over a 5*10^4-cycle mixed trace
  recovery_storm  the same pipeline where a third of cycles violate
  attest_exchange closed-loop challenge/answer/verify over the wire codec
  scenario_suite  every checked-in scenario through a fresh CLI process

Every operation is checked against an oracle that does not share code with
the path it checks; a mismatch counts as a failed operation.  Simulated
statistics must repeat exactly between repeats of one input, or the run is
reported as not correct.  All timings are host wall time: the simulator is
functional, not cycle-timed, and is not validated for timing.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import hmac
import io
import json
import os
import resource
import statistics
import struct
import subprocess
import sys
import types
from array import array
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import bench_gen
import bench_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIO_DIR = ROOT / "scenarios"
SPAN_DIR = ROOT / ".perfbench"
SUITE_EXPECTED = HERE / "suite_expected.json"
SUITE_NONCE = "a5" * 32

DETECT_MASK = 0x03FF  # D0-D9
TRACE_SETUPS = 3  # parses per trace-workload run; setup_s is their median
ATTEST_SETUPS = 9
IMPORT_SAMPLES = 7
TRACED_BATCH = 256  # round trips per traced attest_exchange unit
# Latency slots, allocated and sorted whole so that peak RSS does not grow
# with the number of round trips a faster program fits into the run; the
# most recent RTT_CAPACITY round trips are kept.
RTT_CAPACITY = 1 << 19

END_TO_END = {"op_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_EXTRAS = ("trace.overhead_s", "trace.unattributed_s", "cli.import_s")
PER_LAYER_UNITS = {"s": "s", "calls": "count", "bytes": "B", "ratio": "ratio"}


def layer_unit(name: str) -> str:
    suffix = name.rsplit("_", 1)[-1]
    return PER_LAYER_UNITS.get(suffix, "count")


def load_package():
    if not (SRC / "rares_sim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rares_sim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import rares_sim.attestation
    import rares_sim.cli
    import rares_sim.detector
    import rares_sim.memory
    import rares_sim.scenario
    import rares_sim.secureboot

    if Path(rares_sim.__file__).resolve().parent != SRC / "rares_sim":
        raise SystemExit(f"perfbench: imported rares_sim from {rares_sim.__file__}, not {SRC}")
    return types.SimpleNamespace(
        attestation=rares_sim.attestation,
        cli=rares_sim.cli,
        detector=rares_sim.detector,
        memory=rares_sim.memory,
        scenario=rares_sim.scenario,
        secureboot=rares_sim.secureboot,
    )


class Outcome:
    """Checked operations, failures, repeat-equality of model statistics,
    and the metrics of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.repeats_equal = True
        self.first: dict[str, object] = {}
        self.metrics: dict[str, float] = {}
        self.lines: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                self.lines.append(f"FAILED: {what}")

    def repeat(self, key: str, value) -> None:
        if key not in self.first:
            self.first[key] = value
            self.lines.append(f"model {key}: {json.dumps(value, sort_keys=True)}")
        elif self.first[key] != value:
            self.repeats_equal = False
            self.lines.append(f"NOT REPEATED {key}: {json.dumps(value, sort_keys=True)}")

    def note(self, line: str) -> None:
        self.lines.append(line)


class TracedUnits:
    """Alternate untraced and traced units of one workload until the deadline.

    The per-layer figures are medians over traced units; the overhead is the
    median traced unit wall time minus the median untraced one.
    """

    def __init__(self, pkg):
        self.pkg = pkg
        self.tracer = bench_trace.Tracer()
        self.walls = {False: [], True: []}
        self.layers: list[dict] = []
        self.unattributed: list[float] = []
        self.spans: list[tuple] = []

    def run(self, unit, seconds: float) -> None:
        deadline = perf_counter() + seconds
        traced = False
        while not self.walls[True] or perf_counter() < deadline:
            gc.collect()
            if traced:
                self.tracer.clear()
                bench_trace.install(self.tracer, self.pkg)
                try:
                    wall = unit()
                finally:
                    self.tracer.unwrap()
                self.layers.append(bench_trace.layer_metrics(self.tracer))
                self.unattributed.append(wall - self.tracer.top_s)
                self.spans = list(self.tracer.spans)
            else:
                wall = unit()
            self.walls[traced].append(wall)
            traced = not traced

    def metrics(self) -> dict[str, float]:
        out = {
            name: statistics.median(layer[name] for layer in self.layers)
            for name in self.layers[0]
        }
        overhead = statistics.median(self.walls[True]) - statistics.median(self.walls[False])
        out.update(zip(TRACE_EXTRAS, (overhead, statistics.median(self.unattributed), 0.0)))
        return out

    def save_spans(self, workload: str, seed: int) -> None:
        if not self.spans:
            return
        t0 = min(span[3] for span in self.spans)
        rows = [
            {"id": i, "parent": p, "name": n, "start_s": s - t0, "end_s": e - t0}
            for i, p, n, s, e in self.spans
        ]
        SPAN_DIR.mkdir(exist_ok=True)
        (SPAN_DIR / f"spans-{workload}-{seed}.json").write_text(json.dumps(rows) + "\n")


def traced_metrics(pkg, unit, workload: str, seed: int, seconds: float) -> dict[str, float]:
    units = TracedUnits(pkg)
    units.run(unit, seconds)
    units.save_spans(workload, seed)
    return units.metrics()


def quantile(ordered, first: int, q: float) -> float:
    """Linearly interpolated q-quantile of ordered[first:], without copying."""
    pos = first + q * (len(ordered) - 1 - first)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


# -- trace workloads: long_trace, recovery_storm ---------------------------


TRACE_SHAPES = {
    # workload: (generator, cycles, expected boot outcome)
    "long_trace": (bench_gen.long_trace, bench_gen.LONG_TRACE_CYCLES, "verified_clean"),
    "recovery_storm": (bench_gen.recovery_storm, bench_gen.STORM_CYCLES, "recovered_then_verified"),
}


def decode_events(text: str) -> list:
    """Trace events decoded by the benchmark itself from the scenario text."""
    return [
        types.SimpleNamespace(
            pc=int(e["pc"], 16),
            irq=e.get("irq", False),
            ren=e.get("ren", False),
            wen=e.get("wen", False),
            daddr=int(e.get("daddr", "0x0"), 16),
            dma_en=e.get("dma_en", False),
            dma_addr=int(e.get("dma_addr", "0x0"), 16),
        )
        for e in json.loads(text)["trace"]
    ]


def oracle_word(pkg, text: str) -> int:
    """Detection bits of the whole trace by brute-force re-scan."""
    return pkg.scenario.classify_trace_naive(pkg.memory.build_layout(), decode_events(text))


def check_trace_report(out, workload, report, text, cycles, word, boot) -> None:
    exit_class = "violations" if word else "clean"
    out.check(
        len(report.rows) == cycles
        and report.pre_clear_ctrl & DETECT_MASK == word
        and report.exit_class == exit_class
        and report.boot.outcome.value == boot,
        f"{workload}: rows={len(report.rows)}/{cycles} "
        f"pre_clear=0x{report.pre_clear_ctrl & DETECT_MASK:04X}/0x{word:04X} "
        f"exit={report.exit_class}/{exit_class} boot={report.boot.outcome.value}/{boot}",
    )
    kinds = Counter(v.name for row in report.rows for v in row.violations)
    out.repeat("statistics", {
        "rows": len(report.rows),
        "violations": dict(sorted(kinds.items())),
        "reflashes": sum(ev.kind == "reflash" for ev in report.recovery_events),
        "resets": sum(ev.kind == "reset" for ev in report.recovery_events),
        "attestations": len(report.attest_answers),
        "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
    })


def trace_workload(pkg, workload, seed, seconds, traced) -> Outcome:
    generate, cycles, boot = TRACE_SHAPES[workload]
    text = generate(seed)
    word = oracle_word(pkg, text)
    sc = pkg.scenario
    out = Outcome()
    out.note(f"input: {cycles} cycles, {len(text)} bytes of scenario text, oracle word 0x{word:04X}")

    if traced:
        def unit():
            start = perf_counter()
            report = sc.run(sc.parse_scenario(text))
            report_text = report.to_json()
            wall = perf_counter() - start
            check_trace_report(out, workload, report, report_text, cycles, word, boot)
            return wall

        out.metrics = traced_metrics(pkg, unit, workload, seed, seconds)
        return out

    setups = []
    scenario = None
    for _ in range(TRACE_SETUPS):
        scenario = None
        gc.collect()
        start = perf_counter()
        scenario = sc.parse_scenario(text)
        setups.append(perf_counter() - start)

    times = []
    deadline = perf_counter() + seconds
    while not times or perf_counter() < deadline:
        gc.collect()
        start = perf_counter()
        report = sc.run(scenario)
        report_text = report.to_json()
        times.append(perf_counter() - start)
        check_trace_report(out, workload, report, report_text, cycles, word, boot)
        del report, report_text

    op = statistics.median(times)
    out.metrics = {"op_p50_ms": op * 1e3, "setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb()}
    out.note(f"cycles_per_s: {cycles / op:.1f} 1/s (median of {len(times)} run+to_json)")
    return out


# -- attest_exchange -------------------------------------------------------


def prepare_device(pkg, setup):
    """Parse, provision, boot, then run the short clean PoX preamble."""
    sc, att, det = pkg.scenario, pkg.attestation, pkg.detector
    scenario = sc.parse_scenario(setup.text)
    state = sc.build_device(scenario)
    sc.fsbl_boot(state)
    att.pox_begin(state, *bench_gen.PREAMBLE_WINDOW)
    for rec in scenario.trace:
        det.step(state, rec.event)
    att.pox_end(state)
    return state


def memory_sha256(state) -> str:
    digest = hashlib.sha256()
    for kind in sorted(state.mem, key=lambda k: k.value):
        digest.update(bytes(state.mem[kind]))
    return digest.hexdigest()


def challenge_plan(pkg, setup, state):
    """Per challenge: request fields, the verifier's expectation, and the
    oracle tag from stdlib hmac over bytes the benchmark read itself."""
    er_min, er_max = bench_gen.PREAMBLE_WINDOW
    plan = []
    for ch in setup.challenges:
        base = bench_gen.REGIONS[ch.region][0]
        buf = state.mem[pkg.memory.RegionKind(ch.region)]
        region = bytes(buf[ch.start - base:ch.end - base + 1])
        message = ch.nonce + struct.pack(">HH", er_min, er_max) + b"\x01" + region
        oracle = hmac.new(setup.key, message, hashlib.sha256).digest()
        expected = bytearray(region)
        if ch.tampered:
            expected[len(expected) // 2] ^= 0x01
        plan.append((ch, bytes(expected), oracle))
    return plan


def round_trip(att, key, state, ch, expected):
    """Verifier challenge -> framed request -> device answer -> framed
    report -> verifier check, over in-memory byte streams."""
    request = att.AttestRequest(nonce=ch.nonce, region_start=ch.start, region_end=ch.end)
    to_device = io.BytesIO()
    att.write_frame(to_device, att.encode_request(request))
    to_device.seek(0)
    answer = att.serve_request(state, att.read_frame(to_device))
    to_verifier = io.BytesIO()
    att.write_frame(to_verifier, answer)
    to_verifier.seek(0)
    report = att.decode_report(att.read_frame(to_verifier))
    return report, att.verify_report(key, request, report, expected)


class ExchangeChecker:
    """Oracle per round trip, and one digest per full pass over the plan."""

    def __init__(self, out, plan):
        self.out, self.plan = out, plan
        self.digest = hashlib.sha256()
        self.done = 0

    def __call__(self, ch, oracle, report, verdict) -> None:
        self.out.check(
            report.tag == oracle
            and verdict == (not ch.tampered)
            and report.exec_flag is True
            and (report.er_min, report.er_max) == bench_gen.PREAMBLE_WINDOW,
            f"attest {ch.region} 0x{ch.start:04X}-0x{ch.end:04X} tampered={ch.tampered}: "
            f"tag_ok={report.tag == oracle} verdict={verdict} exec={report.exec_flag}",
        )
        self.digest.update(report.tag + bytes([verdict]))
        self.done += 1
        if self.done % len(self.plan) == 0:
            self.out.repeat("pass", {
                "round_trips": len(self.plan),
                "accepted": sum(not ch.tampered for ch, _, _ in self.plan),
                "reports_sha256": self.digest.hexdigest(),
            })
            self.digest = hashlib.sha256()


def attest_workload(pkg, workload, seed, seconds, traced) -> Outcome:
    setup = bench_gen.attest_exchange(seed)
    att = pkg.attestation
    out = Outcome()
    out.note(f"input: {len(setup.challenges)} challenges, "
             f"{sum(ch.tampered for ch in setup.challenges)} with a tampered expectation")

    setups, state = [], None
    for _ in range(1 if traced else ATTEST_SETUPS):
        state = None
        start = perf_counter()
        state = prepare_device(pkg, setup)
        setups.append(perf_counter() - start)
        out.repeat("device_memory_sha256", memory_sha256(state))
    plan = challenge_plan(pkg, setup, state)
    checker = ExchangeChecker(out, plan)

    if traced:
        position = 0

        def unit():
            nonlocal position
            start = perf_counter()
            fresh = prepare_device(pkg, setup)
            answers = []
            for k in range(TRACED_BATCH):
                ch, expected, oracle = plan[(position + k) % len(plan)]
                answers.append((ch, oracle, *round_trip(att, setup.key, fresh, ch, expected)))
            wall = perf_counter() - start
            position += TRACED_BATCH
            out.repeat("device_memory_sha256", memory_sha256(fresh))
            for answer in answers:
                checker(*answer)
            return wall

        out.metrics = traced_metrics(pkg, unit, workload, seed, seconds)
        return out

    latencies = array("d", bytes(8 * RTT_CAPACITY))
    count = 0
    deadline = perf_counter() + seconds
    while count == 0 or perf_counter() < deadline:
        ch, expected, oracle = plan[count % len(plan)]
        start = perf_counter()
        report, verdict = round_trip(att, setup.key, state, ch, expected)
        latencies[count % RTT_CAPACITY] = perf_counter() - start
        count += 1
        checker(ch, oracle, report, verdict)

    # Sort every slot, filled or not, and index past the unused zeros: no
    # allocation here depends on how many round trips were made.
    ordered = sorted(latencies)
    filled = min(count, RTT_CAPACITY)
    p50 = quantile(ordered, RTT_CAPACITY - filled, 0.5)
    out.metrics = {"op_p50_ms": p50 * 1e3, "setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb()}
    out.note(f"attest_rtt_p50_us: {p50 * 1e6:.2f} us ({filled} round trips)")
    if filled >= 1000:
        p99 = quantile(ordered, RTT_CAPACITY - filled, 0.99)
        out.note(f"attest_rtt_p99_us: {p99 * 1e6:.2f} us ({filled // 100} samples above it)")
    return out


# -- scenario_suite --------------------------------------------------------


def suite_invocations():
    paths = sorted(SCENARIO_DIR.glob("*.rares.json"))
    if not paths:
        raise SystemExit(f"perfbench: no scenarios under {SCENARIO_DIR}")
    out = []
    for path in paths:
        out.append((f"{path.name} run", ["run", str(path), "--format", "json"]))
        out.append((f"{path.name} attest", ["attest", str(path), "--nonce", SUITE_NONCE,
                                             "--require-exec", "--format", "json"]))
    return out


def child_env() -> dict[str, str]:
    # A minimal environment: PATH and the package path, nothing else from the
    # benchmark's own environment.
    return {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(SRC)}


def fresh_import_s() -> float:
    code = ("import time; t = time.perf_counter(); import rares_sim.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, check=True)
    return float(proc.stdout)


def check_cli(out, expected, key, code, stdout: bytes) -> tuple:
    want = expected.get(key)
    got = {"exit": code, "stdout_sha256": hashlib.sha256(stdout).hexdigest()}
    out.check(want == got, f"{key}: got {got}, recorded {want}")
    return key, code, got["stdout_sha256"]


def repeat_suite_pass(out, results: list) -> None:
    """Exit codes and outputs of one full pass, independent of its order."""
    digest = hashlib.sha256()
    for key, code, stdout_sha256 in sorted(results):
        digest.update(f"{key} {code} {stdout_sha256}\n".encode())
    exits = Counter(str(code) for _, code, _ in results)
    out.repeat("pass", {
        "invocations": len(results),
        "exits": dict(sorted(exits.items())),
        "outputs_sha256": digest.hexdigest(),
    })


def suite_workload(pkg, workload, seed, seconds, traced) -> Outcome:
    invocations = suite_invocations()
    expected = json.loads(SUITE_EXPECTED.read_text())
    out = Outcome()
    out.note(f"input: {len(invocations)} CLI invocations per pass over {SCENARIO_DIR.name}/")
    missing = sorted(set(expected) - {key for key, _ in invocations})
    out.check(not missing, f"recorded invocations without a scenario: {missing}")
    order = bench_gen.suite_order(seed, invocations)
    imports = [fresh_import_s() for _ in range(IMPORT_SAMPLES)]

    if traced:
        cli = pkg.cli

        def unit():
            calls = next(order)
            results = []
            start = perf_counter()
            for key, argv in calls:
                stdout, stderr = io.StringIO(), io.StringIO()
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    code = cli.main(argv)
                results.append((key, code, stdout.getvalue().encode()))
            wall = perf_counter() - start
            repeat_suite_pass(out, [check_cli(out, expected, *result) for result in results])
            return wall

        out.metrics = traced_metrics(pkg, unit, workload, seed, seconds)
        out.metrics["cli.import_s"] = statistics.median(imports)
        return out

    env = child_env()
    times = []
    deadline = perf_counter() + seconds
    while not times or perf_counter() < deadline:
        results = []
        for key, argv in next(order):
            start = perf_counter()
            proc = subprocess.run([sys.executable, "-m", "rares_sim.cli", *argv],
                                  cwd=ROOT, env=env, capture_output=True)
            times.append(perf_counter() - start)
            results.append(check_cli(out, expected, key, proc.returncode, proc.stdout))
            if perf_counter() >= deadline:
                break
        if len(results) == len(invocations):
            repeat_suite_pass(out, results)

    p50 = statistics.median(times)
    out.metrics = {
        "op_p50_ms": p50 * 1e3,
        "setup_s": statistics.median(imports),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
    }
    out.note(f"cli_p50_ms: {p50 * 1e3:.2f} ms ({len(times)} invocations)")
    if len(times) >= 100:
        p90 = statistics.quantiles(times, n=10)[8]
        out.note(f"cli_p90_ms: {p90 * 1e3:.2f} ms ({len(times) // 10} samples above it)")
    return out


WORKLOADS = {
    "long_trace": trace_workload,
    "recovery_storm": trace_workload,
    "attest_exchange": attest_workload,
    "scenario_suite": suite_workload,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rares-sim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pkg = load_package()
    out = WORKLOADS[args.workload](pkg, args.workload, args.seed, args.seconds, bool(args.trace))

    ratio = out.failed / out.attempted
    out.note(f"fail_ratio: {ratio:g} ({out.failed} failed of {out.attempted} attempted)")
    if not out.repeats_equal:
        out.note("simulated statistics differ between repeats of the same input")
    for line in out.lines:
        print(line)
    for name, value in out.metrics.items():
        unit = END_TO_END.get(name) or layer_unit(name)
        print(f"{name}: {value:.6g} {unit}")
    result = {
        "correct": out.failed == 0 and out.repeats_equal,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": value, "unit": END_TO_END.get(name) or layer_unit(name)}
            for name, value in out.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
