"""Smoke runs of the example scripts against the package in src/."""

import json
import os
import pathlib
import subprocess
import sys

from rares_sim.detector import ViolationKind

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_attack_matrix_prints_one_row_per_kind():
    result = run_script("run_attack_matrix.py")
    assert result.returncode == 0, result.stderr
    rows = result.stdout.splitlines()[2:]
    assert [row.split()[0] for row in rows] == [kind.name for kind in ViolationKind]


def test_attack_matrix_columns_line_up():
    result = run_script("run_attack_matrix.py")
    assert result.returncode == 0, result.stderr
    rows = result.stdout.splitlines()[2:]
    assert len({row.index(" 0x") for row in rows}) == 1, rows


def test_attack_matrix_json_prints_one_report_per_kind():
    result = run_script("run_attack_matrix.py", "--json")
    assert result.returncode == 0, result.stderr
    # each table row is followed by its report, which starts on a line of its own
    text, decoder, reports = result.stdout, json.JSONDecoder(), []
    start = text.find("\n{")
    while start != -1:
        report, end = decoder.raw_decode(text, start + 1)
        reports.append(report)
        start = text.find("\n{", end)
    assert [r["scenario"] for r in reports] == [
        f"attack-{kind.name.lower()}" for kind in ViolationKind
    ]


def test_attest_exchange_demo_accepts_an_untampered_device():
    result = run_script("attest_exchange_demo.py", "--seed-nonce", "ab" * 32)
    assert result.returncode == 0, result.stderr
    assert "verdict:   ACCEPT" in result.stdout


def test_attest_exchange_demo_rejects_a_tampered_device():
    result = run_script("attest_exchange_demo.py", "--tamper", "--seed-nonce", "ab" * 32)
    assert result.returncode == 0, result.stderr
    assert "verdict:   REJECT" in result.stdout
