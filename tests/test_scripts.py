"""Smoke runs of the example scripts against the package in src/."""

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


def test_attest_exchange_demo_accepts_an_untampered_device():
    result = run_script("attest_exchange_demo.py", "--seed-nonce", "ab" * 32)
    assert result.returncode == 0, result.stderr
    assert "verdict:   ACCEPT" in result.stdout
