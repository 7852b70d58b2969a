"""Mutation gate: every mutant below must fail the tests named for it.

A mutant is one exact text substitution in one file under ``src/``.  For
each mutant the repository is copied (without ``.git`` and caches) to a
temporary directory, the substitution is made in the copy, and only the
mutant's tests run there, with ``PYTHONPATH`` set to the copy's ``src``.
The working tree is only read.

The script exits non-zero when a mutant survives (its tests pass), when its
tests end in anything but a plain failure (a collection error, an unknown
test id), or when its substitution no longer matches exactly once, which is
how it notices that the code it mutates has changed.

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_TESTS = "tests/test_scenario.py::"

# (what the mutant breaks, file, text, replacement, tests that must fail)
MUTANTS = [
    (
        "CPU-off outranks the gate",
        "src/rares_sim/prevention.py",
        "    HARD_CPU_OFF = 2\n    CHIP_GATE_AND_RECOVER = 3\n",
        "    HARD_CPU_OFF = 3\n    CHIP_GATE_AND_RECOVER = 2\n",
        [SCENARIO_TESTS + "test_reference_run_matches_run_on_generated_scenarios"],
    ),
    (
        "answers come before a window close at equal ticks",
        "src/rares_sim/scenario.py",
        "    timeline += [(2 * entry.cycle, partial(answer, entry)) for entry in "
        "scenario.attest_requests]\n",
        "    timeline = [(2 * entry.cycle, partial(answer, entry)) for entry in "
        "scenario.attest_requests] + timeline\n",
        [SCENARIO_TESTS + "test_reference_run_matches_run_on_pox_timelines"],
    ),
    (
        "a halted CPU still writes",
        "src/rares_sim/scenario.py",
        "if state.cpu_halted and not flags & DMA_EN:",
        "if False:",
        [SCENARIO_TESTS + "test_reference_run_matches_run_on_generated_scenarios"],
    ),
    (
        "a challenge is served after the next event",
        "src/rares_sim/scenario.py",
        "        if next_at < tick:\n            next_at = serve(tick)\n",
        "",
        [SCENARIO_TESTS + "test_reference_run_matches_run_on_pox_timelines"],
    ),
    (
        "a row's data byte is written off by one bit",
        "src/rares_sim/scenario.py",
        "_HEX_BYTE[data]",
        "_HEX_BYTE[data ^ 1]",
        [SCENARIO_TESTS + "test_to_json_matches_stdlib_encoder_on_corpus"],
    ),
    (
        "the parser packs ren and wen swapped",
        "src/rares_sim/scenario.py",
        "add_flags(irq * IRQ | ren * REN | wen * WEN | dma_en * DMA_EN)",
        "add_flags(irq * IRQ | ren * WEN | wen * REN | dma_en * DMA_EN)",
        [
            "tests/test_trace_parsing.py::"
            "test_fast_path_builds_the_reference_trace_from_clean_rows",
            SCENARIO_TESTS + "test_benchmark_trace_reports_are_byte_identical",
        ],
    ),
    (
        "the second decode drops each row's data byte",
        "src/rares_sim/scenario.py",
        "return TraceStep(cycle=cycle, event=event, data=data)",
        "return TraceStep(cycle=cycle, event=event, data=0)",
        [
            "tests/test_trace_parsing.py::"
            "test_second_decode_builds_the_trace_the_first_does",
        ],
    ),
    (
        "the decoded columns are the trace without the post-decode check",
        "src/rares_sim/scenario.py",
        "if type(rows) is list and len(rows) == len(trace) == rows.count(_ROW):",
        "if type(rows) is list:",
        [
            SCENARIO_TESTS + "test_rows_that_a_repeated_key_drops_are_not_trace_rows",
            SCENARIO_TESTS + "test_semantic_errors",
        ],
    ),
    (
        "a reboot's recovery event loses its second digest",
        "src/rares_sim/scenario.py",
        '"          }"\n                for computed, reference in boot.digests\n',
        '"          }"\n                for computed, reference in boot.digests[:1]\n',
        [SCENARIO_TESTS + "test_reference_run_matches_run_on_generated_scenarios"],
    ),
    (
        "a reflash also clears D10",
        "src/rares_sim/detector.py",
        "        self._value &= ~DETECT_MASK\n",
        "        self._value &= ~(DETECT_MASK | RESET_MASK)\n",
        ["tests/test_detector.py::test_clear_detection_bits_keeps_reset_flag"],
    ),
    (
        "a row's kind names follow the hash seed",
        "src/rares_sim/scenario.py",
        '" ".join(v.name for v in violations)',
        '" ".join({v.name for v in violations})',
        ["tests/test_cli.py::test_run_output_does_not_depend_on_the_hash_seed"],
    ),
    (
        "a report window outside 16 bits is accepted",
        "src/rares_sim/attestation.py",
        "if not (0 <= self.er_min <= ADDR_MASK and 0 <= self.er_max <= ADDR_MASK):",
        "if False:",
        ["tests/test_attestation.py::test_report_window_must_fit_16_bits"],
    ),
    (
        "a request's fields go on the wire little-endian",
        "src/rares_sim/attestation.py",
        '_REQUEST = struct.Struct(">B',
        '_REQUEST = struct.Struct("<B',
        ["tests/test_attestation.py::test_wire_bytes_and_tag_known_answer"],
    ),
    (
        "a report's fields go on the wire little-endian",
        "src/rares_sim/attestation.py",
        '_REPORT = struct.Struct(">B',
        '_REPORT = struct.Struct("<B',
        ["tests/test_attestation.py::test_wire_bytes_and_tag_known_answer"],
    ),
    (
        "the stdlib-written sections keep insertion order",
        "src/rares_sim/scenario.py",
        "json.dumps(value, sort_keys=True, indent=2).replace(",
        "json.dumps(value, indent=2).replace(",
        [SCENARIO_TESTS + "test_to_json_matches_stdlib_encoder_on_corpus"],
    ),
    (
        "a DMA cycle with no strobe is printed as none",
        "src/rares_sim/scenario.py",
        '("wen" if flags & WEN else "idle")',
        '("wen" if flags & WEN else "none")',
        [SCENARIO_TESTS + "test_reference_run_matches_run_on_generated_scenarios"],
    ),
    (
        "an empty pre-clear register is printed without its dash",
        "src/rares_sim/scenario.py",
        "{' '.join(decode_bits(self.pre_clear_ctrl)) or '-'}",
        "{' '.join(decode_bits(self.pre_clear_ctrl))}",
        [SCENARIO_TESTS + "test_reference_run_matches_run_on_generated_scenarios"],
    ),
    (
        "the metadata view takes bus writes",
        "src/rares_sim/memory.py",
        "for kind in ROM_KINDS | {RegionKind.METADATA})",
        "for kind in ROM_KINDS)",
        [
            "tests/test_memory.py::test_apply_write_matches_linear_scan",
            SCENARIO_TESTS + "test_bus_writes_to_the_metadata_view_are_suppressed",
        ],
    ),
    (
        "a write lands under the raised gate",
        "src/rares_sim/memory.py",
        "if code in _READ_ONLY_CODES or state.recovery_queued:",
        "if code in _READ_ONLY_CODES:",
        [
            "tests/test_memory.py::test_gate_suppresses_all_writes",
            "tests/test_acceptance.py::test_ram_write_attacks_never_land",
        ],
    ),
]

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")


def check(root: Path, path: str, old: str, new: str, tests: list[str]) -> tuple[str, str]:
    """Run one mutant against a copy of `root`: its outcome and, unless the
    mutant was killed or survived, why."""
    text = (root / path).read_text(encoding="utf-8")
    if text.count(old) != 1:
        return "stale", f"the text matches {text.count(old)} times in {path}"
    with tempfile.TemporaryDirectory(prefix="rares-mutant-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(root, copy, ignore=_IGNORE)
        (copy / path).write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    if result.returncode in (0, 1):
        return ("survived", "killed")[result.returncode], ""
    output = (result.stdout + result.stderr)[-500:]
    return "error", f"pytest exited {result.returncode}: {output}"


def main() -> int:
    failed = 0
    for name, path, old, new, tests in MUTANTS:
        start = time.perf_counter()
        outcome, why = check(ROOT, path, old, new, tests)
        failed += outcome != "killed"
        print(f"{outcome:>8}  {name} ({time.perf_counter() - start:.1f} s) {why}".rstrip())
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
