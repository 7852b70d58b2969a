"""Exit-code contract, output purity, and the attest round trip."""

import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout

import pytest

from conftest import ROOT, SCENARIO_DIR, bench_scenario_text, scenario_paths
from rares_sim import cli
from rares_sim.cli import ExitStatus, main
from rares_sim.scenario import parse_scenario_file, run
from test_scenario import RECOVERY_DOCS

NONCE_HEX = "ab" * 32


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "name,expected",
    [
        ("benign.rares.json", ExitStatus.OK),
        ("tampered_flash.rares.json", ExitStatus.OK),  # recovered, then clean
        ("pox_clean_attest.rares.json", ExitStatus.OK),
        ("pox_breach.rares.json", ExitStatus.OK),  # breach alone is no violation
        ("key_read_attack.rares.json", ExitStatus.VIOLATIONS),
        ("dma_ram_write_swatt.rares.json", ExitStatus.VIOLATIONS),
        ("atomicity_irq.rares.json", ExitStatus.VIOLATIONS),
        ("all_ten_attacks.rares.json", ExitStatus.VIOLATIONS),
        ("unrecoverable.rares.json", ExitStatus.UNRECOVERABLE),
    ],
)
def test_run_exit_codes(capsys, name, expected):
    code, _, _ = invoke(capsys, "run", str(SCENARIO_DIR / name))
    assert code == expected


def test_missing_scenario_is_a_usage_error(capsys):
    code, out, err = invoke(capsys, "run", str(SCENARIO_DIR / "no_such.rares.json"))
    assert code == ExitStatus.USAGE
    assert out == ""
    assert "cannot read" in err


def test_malformed_scenario_is_a_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.rares.json"
    bad.write_text("{not json")
    code, _, err = invoke(capsys, "run", str(bad))
    assert code == ExitStatus.USAGE
    assert "line" in err


def test_run_json_stdout_is_pure(capsys):
    code, out, err = invoke(
        capsys, "run", str(SCENARIO_DIR / "all_ten_attacks.rares.json"), "--format", "json"
    )
    assert code == ExitStatus.VIOLATIONS
    payload = json.loads(out)  # nothing but the document on stdout
    assert payload["exit"] == "violations"
    assert payload["pre_clear_ctrl"] == "0x07FF"
    assert err == ""


def test_run_prints_cycle_labels_past_64_bits(capsys, tmp_path):
    # labels are unbounded: a trace column of 64-bit integers would refuse these
    path = tmp_path / "labels.rares.json"
    path.write_text(json.dumps({"trace": [
        {"cycle": 1, "pc": "0x4000"},
        {"cycle": 2**63, "pc": "0x4001"},
        {"cycle": 2**70, "pc": "0x4002", "wen": True, "daddr": "0x4100", "data": "0x5A"},
    ]}))
    code, out, err = invoke(capsys, "run", str(path), "--format", "json")
    assert (code, err) == (ExitStatus.OK, "")
    rows = json.loads(out)["rows"]
    assert [row["cycle"] for row in rows] == [1, 2**63, 2**70]
    assert rows[2]["mem_effect"] == "applied"
    assert f'"cycle": {2**70},' in out


def test_run_text_pre_clear_flag(capsys):
    path = str(SCENARIO_DIR / "dma_ram_write_swatt.rares.json")
    _, without, _ = invoke(capsys, "run", path)
    _, with_flag, _ = invoke(capsys, "run", path, "--snapshot-pre-clear")
    assert "pre-clear" not in without
    assert "pre-clear ctrl: 0x0004" in with_flag


def test_boot_outcomes(capsys):
    code, out, _ = invoke(capsys, "boot", str(SCENARIO_DIR / "tampered_flash.rares.json"))
    assert code == ExitStatus.OK
    assert "recovered_then_verified" in out
    code, out, _ = invoke(
        capsys, "boot", str(SCENARIO_DIR / "unrecoverable.rares.json"), "--format", "json"
    )
    assert code == ExitStatus.UNRECOVERABLE
    assert json.loads(out)["outcome"] == "unrecoverable"


def test_attest_clean_device_verifies(capsys):
    code, out, _ = invoke(
        capsys,
        "attest",
        str(SCENARIO_DIR / "key_read_attack.rares.json"),
        "--nonce",
        NONCE_HEX,
    )
    # the key-read trace never writes memory, so the report must verify
    assert code == ExitStatus.OK
    assert "verdict: pass" in out


def test_attest_detects_region_change(capsys):
    # benign trace writes 0x42 into app RAM: full-region attestation must fail,
    # a window that excludes the written byte must pass
    path = str(SCENARIO_DIR / "benign.rares.json")
    code, out, _ = invoke(capsys, "attest", path, "--nonce", NONCE_HEX)
    assert code == ExitStatus.VIOLATIONS
    assert "verdict: FAIL" in out
    code, _, _ = invoke(
        capsys, "attest", path, "--nonce", NONCE_HEX, "--start", "0x4000", "--end", "0x40FF"
    )
    assert code == ExitStatus.OK


def test_attest_require_exec(capsys):
    clean = str(SCENARIO_DIR / "pox_clean_attest.rares.json")
    code, out, _ = invoke(
        capsys, "attest", clean, "--nonce", NONCE_HEX,
        "--start", "0x4000", "--end", "0x403F", "--require-exec",
    )
    assert code == ExitStatus.OK
    assert json.loads(invoke(capsys, "attest", clean, "--nonce", NONCE_HEX,
                             "--start", "0x4000", "--end", "0x403F",
                             "--require-exec", "--format", "json")[1])["exec_flag"] is True

    breach = str(SCENARIO_DIR / "pox_breach.rares.json")
    code, out, _ = invoke(
        capsys, "attest", breach, "--nonce", NONCE_HEX,
        "--start", "0x4000", "--end", "0x403F", "--require-exec",
    )
    assert code == ExitStatus.VIOLATIONS


def test_attest_challenge_comes_after_a_later_scenario_challenge(capsys, tmp_path):
    # the scenario's own challenge at cycle 100 lies past its last label; the
    # CLI challenge must still be the last one answered
    path = tmp_path / "late.rares.json"
    path.write_text(json.dumps({
        "trace": [{"cycle": 1, "pc": "0x4000"}],
        "attest": [{"cycle": 100, "nonce": "cd" * 32, "region_start": "0x4000",
                    "region_end": "0x400F"}],
    }))
    code, out, _ = invoke(capsys, "attest", str(path), "--nonce", NONCE_HEX)
    assert code == ExitStatus.OK
    assert "verdict: pass" in out


def test_attest_challenge_comes_after_a_window_that_outlasts_the_trace(capsys, tmp_path):
    path = tmp_path / "window.rares.json"
    path.write_text(json.dumps({
        "pox": {"begin_cycle": 1, "end_cycle": 8, "er_min": "0x4000", "er_max": "0x40FF"},
        "trace": [{"cycle": 1, "pc": "0x4000"}, {"cycle": 2, "pc": "0x4002"}],
    }))
    code, out, _ = invoke(capsys, "attest", str(path), "--nonce", NONCE_HEX, "--require-exec")
    assert code == ExitStatus.OK
    assert out == (
        "attest: region=0x4000-0x5FFF exec_flag=true er=0x4000-0x40FF\n"
        "tag: 5b142adc9dee84256ede69e843e3c0d80fa313aee0d6609411f7688be3c6c81f\n"
        "verdict: pass\n"
    )


def test_attest_bad_nonce(capsys):
    path = str(SCENARIO_DIR / "benign.rares.json")
    code, _, err = invoke(capsys, "attest", path, "--nonce", "zz")
    assert code == ExitStatus.USAGE and "bad hex" in err
    code, _, err = invoke(capsys, "attest", path, "--nonce", "ab" * 16)
    assert code == ExitStatus.USAGE and "32 bytes" in err


def test_attest_bad_address(capsys):
    path = str(SCENARIO_DIR / "benign.rares.json")
    code, out, err = invoke(capsys, "attest", path, "--nonce", NONCE_HEX, "--start", "zz")
    assert (code, out) == (ExitStatus.USAGE, "")
    assert err == "rares-sim: --start/--end: bad address\n"


def test_attest_bounds_must_share_a_region(capsys):
    path = str(SCENARIO_DIR / "benign.rares.json")
    code, _, err = invoke(
        capsys, "attest", path, "--nonce", NONCE_HEX, "--start", "0x5FF0", "--end", "0x6010"
    )
    assert code == ExitStatus.USAGE
    assert "one mapped region" in err


def test_attest_unrecoverable_device(capsys):
    code, _, err = invoke(
        capsys, "attest", str(SCENARIO_DIR / "unrecoverable.rares.json"), "--nonce", NONCE_HEX
    )
    assert code == ExitStatus.UNRECOVERABLE
    assert "unrecoverable" in err


def test_attest_device_unrecoverable_after_the_trace(capsys, tmp_path):
    # power-on boot is clean, so the verifier has a reference, but the
    # reboot after the trace's reset cannot recover
    path = tmp_path / "reset_unrecoverable.rares.json"
    path.write_text(json.dumps(RECOVERY_DOCS["reset_unrecoverable"]))
    code, out, err = invoke(capsys, "attest", str(path), "--nonce", NONCE_HEX)
    assert (code, out) == (ExitStatus.UNRECOVERABLE, "")
    assert err == "attest: device became unrecoverable during the trace\n"


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        main(["run"])  # missing scenario argument
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "x", "--format", "yaml"])  # not a supported format
    assert excinfo.value.code == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv", [["run"], ["boot"], ["attest", "--nonce", NONCE_HEX]], ids=lambda a: a[0]
)
def test_recovery_rom_smaller_than_flash_is_a_usage_error(capsys, tmp_path, argv):
    small = tmp_path / "small_recovery.rares.json"
    small.write_text('{"layout": {"recovery_rom": ["0x7000", "0x7001"]}}')
    code, out, err = invoke(capsys, argv[0], str(small), *argv[1:])
    assert code == ExitStatus.USAGE
    assert out == ""
    assert err.startswith("rares-sim: layout: recovery_rom") and err.count("\n") == 1


def test_repeated_json_runs_are_identical(capsys):
    path = str(SCENARIO_DIR / "atomicity_irq.rares.json")
    _, first, _ = invoke(capsys, "run", path, "--format", "json")
    _, second, _ = invoke(capsys, "run", path, "--format", "json")
    assert first == second


# Exit code and sha256 of stdout for every checked-in scenario under each
# command, recorded before the detector, bounds-check and HMAC code was
# consolidated; any change to a report byte or an exit code shows here.
BYTE_IDENTITY_COMMANDS = {
    "run": ["run"],
    "run_json": ["run", "--format", "json"],
    "boot": ["boot"],
    "boot_json": ["boot", "--format", "json"],
    "attest_json": ["attest", "--nonce", NONCE_HEX, "--require-exec", "--format", "json"],
}
RECORDED_OUTPUT = {
    ("all_ten_attacks.rares.json", "run"): (2, "35e821aab0fd954a2a3a8658d1292af6160fae7658ccb887aaed5fbcd25b4964"),
    ("all_ten_attacks.rares.json", "run_json"): (2, "485346b6c3629cea3ccb92605282272a6e84998628a7902b4c72d3a699dcdf2a"),
    ("all_ten_attacks.rares.json", "boot"): (0, "9c2342423e74fca14a7772858c6b12ad0ff33050735afe7bf9361d2d4210fae5"),
    ("all_ten_attacks.rares.json", "boot_json"): (0, "e00f9ecba3dcea82449cd2be10ba7299f5d1389a6b580515758a9916e63079da"),
    ("all_ten_attacks.rares.json", "attest_json"): (2, "16a0d91cc5440bb8626a43244b318d062ea54deabef1f6e5ef1dc4bbd3a324c6"),
    ("atomicity_irq.rares.json", "run"): (2, "f97cfd6f70c0b23bf5c6795796e554c424bbe291c33e2ceb75952595af212c11"),
    ("atomicity_irq.rares.json", "run_json"): (2, "932f7d8ce6f5b09cb7df84960ee43edec056fa2c380eeca2b319c13bb3a12a4b"),
    ("atomicity_irq.rares.json", "boot"): (0, "3cd398b393e4615b7a8053cab1e386bc18909b1ebe962bad344ebdf5b446f18f"),
    ("atomicity_irq.rares.json", "boot_json"): (0, "991cad3bcb4a17aed3c9ebd655a5e64e7460a78ed4a46e5c2aabbdd14bc638da"),
    ("atomicity_irq.rares.json", "attest_json"): (2, "03ddcd2ed7a8b5f159ab3c671d61af309fa26d46024d2f8e2a95918261f184f7"),
    ("benign.rares.json", "run"): (0, "d07d9df61d7941583c6bef593ed2c489f0e47ff76a5c7ae57faf2313cf61dbc8"),
    ("benign.rares.json", "run_json"): (0, "903d5953744601b9317892ed17aa8271e094f6e48ea4e582f1da48d719337f2c"),
    ("benign.rares.json", "boot"): (0, "4f392376df02209d8cd4f3745c78e2667f1a2636d969dfbb061d99d272296a68"),
    ("benign.rares.json", "boot_json"): (0, "6b5501ff4981c6ace30c153b63aa0ed11ec0b21c4cc5f7aa6cc46cc260d6947b"),
    ("benign.rares.json", "attest_json"): (2, "6161a813e5adf501a5fd81d0ca12becc767967aeb2ded7f1129c47b5a7fea9e6"),
    ("dma_ram_write_swatt.rares.json", "run"): (2, "6eb6387c9f9b0eae91f4b7d2f33c4ead530c025fca8acfcf1b99fddcac6bb9a4"),
    ("dma_ram_write_swatt.rares.json", "run_json"): (2, "65e76e16384f559cb6682287837b1690cef07f192852e97869d1bce0b967ab5c"),
    ("dma_ram_write_swatt.rares.json", "boot"): (0, "6b464261802ca7239fb168a2b93caad1d9dd9d812de4e27dcfe3f09f64e45e02"),
    ("dma_ram_write_swatt.rares.json", "boot_json"): (0, "768029d481f9ec577dc950cfef0776bc93d835a5827649cbbfcb70ae8f7e6efd"),
    ("dma_ram_write_swatt.rares.json", "attest_json"): (2, "5c1ebd567c487e059ef6f068f63248e3d154aa133697ec42a21158a5c20692a9"),
    ("key_read_attack.rares.json", "run"): (2, "7ba0bfc32ef81189ff1e246ea45bf07e7bfb3076f44813caefadb25534bcfb88"),
    ("key_read_attack.rares.json", "run_json"): (2, "180b7490e3a16cf5fa1f28e2ad9fb331882c17ed34dd65324392431b24ac611a"),
    ("key_read_attack.rares.json", "boot"): (0, "db6d704db9688b92801679ff2a93100df57651cf762bab9daf620daeef2d0691"),
    ("key_read_attack.rares.json", "boot_json"): (0, "79949f33087c56f33b706d0451ccaaa3ba333c209e984432ae01f6aad5446dca"),
    ("key_read_attack.rares.json", "attest_json"): (2, "6c262e77a44fa5ed37a1230a02c98d443742723c8013a540adfa6a5b2dc04a59"),
    ("pox_breach.rares.json", "run"): (0, "e012c660dc67ebcdaf28bab8903bf437c63bb847676a832b2701992a8af12e5f"),
    ("pox_breach.rares.json", "run_json"): (0, "6846a17fa863dc6ce23e0d6cfe3254b90a071f7fbda3fa27053a7c9afbeb7f84"),
    ("pox_breach.rares.json", "boot"): (0, "079907370d0e0b5fcb4104ef30362427ace243d2f40267bf1b0895800fcad2ff"),
    ("pox_breach.rares.json", "boot_json"): (0, "b576e49d90a87af8d883e5eabcecfe81fe3b3d8e996bc8fa38e9730a06f040a6"),
    ("pox_breach.rares.json", "attest_json"): (2, "a46dc3c3fb4f6786df310cdee02ce839fc407e64bb90321e6cfc78da4cc39b7c"),
    ("pox_clean_attest.rares.json", "run"): (0, "17b25c08aadeef50196e157dad02b74f8090aa2b78920eda0e2b0d89a066ece2"),
    ("pox_clean_attest.rares.json", "run_json"): (0, "e1b63388fd3807d7d6e568268d57b81b432fb8a008be7c3775e623bc45a77e1c"),
    ("pox_clean_attest.rares.json", "boot"): (0, "079907370d0e0b5fcb4104ef30362427ace243d2f40267bf1b0895800fcad2ff"),
    ("pox_clean_attest.rares.json", "boot_json"): (0, "310a9f1a4fff89d2c94fadedfdd4018c436e3b8f90afedf91eadddffb8cb15fa"),
    ("pox_clean_attest.rares.json", "attest_json"): (2, "48c7fcab96dd724079a5ecca5996257c104bcddc51a8fd4880d7c0fe0793cf51"),
    ("soft_lpm_policy.rares.json", "run"): (2, "4b992ea04450914c7e350d7a366e1b97f0c6b3ed4cff153eed6ddb1b690c972c"),
    ("soft_lpm_policy.rares.json", "run_json"): (2, "e667d0050275507bfa11536bbd35663f83a3d523d362ec046e7b16153359752f"),
    ("soft_lpm_policy.rares.json", "boot"): (0, "31c1d591d0b8331c52de4a2ab874334b6f64848e8c76e415337132ddc551beb1"),
    ("soft_lpm_policy.rares.json", "boot_json"): (0, "7a9c0aec5c6b00cf61418453da458205a458deaf4a584705a5dd61f205326e28"),
    ("soft_lpm_policy.rares.json", "attest_json"): (2, "5b8e93961c61b08682a317a0f9ad1f8ca5beea2eaa950bc665168b3c176f3d39"),
    ("tampered_flash.rares.json", "run"): (0, "ef9b5b3aa95359b492bc311ee591f082149490c2fc91db5cff7b0009b7e8d329"),
    ("tampered_flash.rares.json", "run_json"): (0, "33c1e3e7ff0f5e325a9f1783ef586e6eefacdce1f200cd13e7c4be2e21b13d96"),
    ("tampered_flash.rares.json", "boot"): (0, "72c0f87a1895686027969569ad66c62bae981c979faf86949b53c19074382664"),
    ("tampered_flash.rares.json", "boot_json"): (0, "8ac387d2db530c9a4019da38720ff5150100e2d79dde59be35ada1e3b42fc243"),
    ("tampered_flash.rares.json", "attest_json"): (2, "a0a4859df2ca2fdd53013aef73a3a740b8ccd0ec46ee44887dcbcdba7436e946"),
    ("unrecoverable.rares.json", "run"): (3, "d6858bb4735735ca44eb05a9707c4d089a700527c534f0f594dc6d9f9d3f7962"),
    ("unrecoverable.rares.json", "run_json"): (3, "3675be2500922c770c02816950090f542f8eae167e430fb010a8c9b501dd2b6d"),
    ("unrecoverable.rares.json", "boot"): (3, "b5ad1f906f2808db34783a2387a8e0c4746438aba6d383035f3e10f5bf575052"),
    ("unrecoverable.rares.json", "boot_json"): (3, "f3d7caca2f2543139411173cb93f9e7a3acbffe11b6d25398d8408f6944b926a"),
    ("unrecoverable.rares.json", "attest_json"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("command", sorted(BYTE_IDENTITY_COMMANDS))
@pytest.mark.parametrize("path", scenario_paths(), ids=lambda p: p.name)
def test_output_bytes_and_exit_codes_are_unchanged(capsys, path, command):
    argv = BYTE_IDENTITY_COMMANDS[command]
    code, out, _ = invoke(capsys, argv[0], str(path), *argv[1:])
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (int(code), digest) == RECORDED_OUTPUT[(path.name, command)]


def test_deeply_nested_scenario_is_a_usage_error(capsys, tmp_path):
    deep = tmp_path / "deep.rares.json"
    deep.write_text("[" * 200000)
    code, out, err = invoke(capsys, "run", str(deep))
    assert code == ExitStatus.USAGE
    assert out == ""
    assert err == "rares-sim: JSON nesting too deep\n"


def test_scenario_that_is_not_utf8_is_a_usage_error(capsys, tmp_path):
    utf16 = tmp_path / "utf16.rares.json"
    utf16.write_bytes('{"name": "x"}'.encode("utf-16"))  # starts with the BOM ff fe
    code, out, err = invoke(capsys, "run", str(utf16))
    assert code == ExitStatus.USAGE
    assert out == ""
    assert err == f"rares-sim: {utf16}: not UTF-8 text: byte 0xFF at offset 0\n"


@pytest.mark.parametrize(
    "argv",
    [["run"], ["run", "--format", "json"], ["boot"], ["attest", "--nonce", NONCE_HEX]],
    ids=["run", "run-json", "boot", "attest"],
)
def test_lone_surrogate_name_is_a_usage_error(tmp_path, argv):
    # JSON admits "\ud800", which no UTF-8 stream can carry.  A subprocess,
    # since capsys buffers text without encoding it.
    path = tmp_path / "surrogate.rares.json"
    path.write_text('{"name": "\\ud800"}')
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "rares_sim.cli", argv[0], str(path), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == ExitStatus.USAGE
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "rares-sim: name: not UTF-8 text: lone surrogate at character 0"
    ]


def test_run_output_does_not_depend_on_the_hash_seed(tmp_path):
    # the report writers cache text by object identity and the region and
    # violation kinds hash by identity; none of it may reach the output.  No
    # checked-in scenario has a row with two violation kinds, so the test
    # writes one with three such rows and runs it under four seeds, since
    # two seeds can put a pair in the same order by chance
    two_kinds = tmp_path / "two_kinds.rares.json"
    two_kinds.write_text(json.dumps({"trace": [
        {"cycle": 1, "pc": "0x6000", "irq": True, "ren": True, "daddr": "0x4000"},
        {"cycle": 2, "pc": "0x4000", "irq": True, "ren": True, "daddr": "0x6A00"},
        {"cycle": 3, "pc": "0x6000", "irq": True, "dma_en": True, "ren": True, "dma_addr": "0x4000"},
    ]}))

    def run_all(paths, hash_seed):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
        runs = [
            subprocess.run(
                [sys.executable, "-m", "rares_sim.cli", "run", str(path), *fmt],
                capture_output=True, env=env, timeout=60,
            )
            for path in paths
            for fmt in ([], ["--format", "json"])
        ]
        assert all(r.stdout for r in runs)
        return [(r.returncode, r.stdout) for r in runs]

    corpus = run_all(scenario_paths(), "0")
    assert len(corpus) == 20
    assert run_all(scenario_paths(), "1") == corpus
    two = run_all([two_kinds], "0")
    rows = json.loads(two[1][1])["rows"]
    assert [len(row["violations"]) for row in rows] == [2, 2, 2]
    for hash_seed in "123":
        assert run_all([two_kinds], hash_seed) == two


class CountingSink:
    """A stdout that keeps only the size and the sha256 of what is written."""

    def __init__(self):
        self.size = 0
        self.digest = hashlib.sha256()

    def write(self, text):
        data = text.encode()
        self.size += len(data)
        self.digest.update(data)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_run_writes_the_report_as_it_makes_it(monkeypatch, tmp_path, fmt):
    path = tmp_path / "long.rares.json"
    path.write_text(bench_scenario_text("long_trace", 7))
    report = run(parse_scenario_file(path))
    assert len(report.rows) >= 20_000
    expected = (report.to_json() if fmt == "json" else report.to_text()).encode()
    del report

    # what the command holds when the run starts (the parsed scenario), and
    # its peak until then (reading and parsing the scenario)
    at_run = []

    def marked_run(scenario):
        at_run.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return run(scenario)

    monkeypatch.setattr(cli, "run", marked_run)
    sink = CountingSink()
    gc.collect()
    tracemalloc.start()
    try:
        with redirect_stdout(sink):
            code = main(["run", str(path), "--format", fmt])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    [(held, read_peak)] = at_run

    assert code == ExitStatus.VIOLATIONS
    assert sink.size == len(expected)
    assert sink.digest.hexdigest() == hashlib.sha256(expected).hexdigest()
    # running and writing hold no whole report: each chunk is written as it is made
    assert peak - held <= sink.size / 2, f"the run and writer peak {peak - held} B above it"
    if fmt == "json":
        # the JSON report is over four times the scenario text, so the whole
        # command, reading and parsing the scenario included, stays under half
        # of it too
        assert max(read_peak, peak) <= sink.size / 2


@pytest.mark.parametrize(
    "command,scenario,expected",
    [
        (["run"], None, ExitStatus.VIOLATIONS),
        (["boot"], "benign.rares.json", ExitStatus.OK),
        (["boot"], "unrecoverable.rares.json", ExitStatus.UNRECOVERABLE),
        (["attest", "--nonce", NONCE_HEX], "benign.rares.json", ExitStatus.VIOLATIONS),
    ],
    ids=["run", "boot", "boot-unrecoverable", "attest"],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_run_stops_quietly_when_the_reader_leaves(tmp_path, fmt, command, scenario, expected):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if scenario is None:
        # the report is megabytes, far past a pipe's buffer, so the command is
        # still writing when the reader closes its end after a few bytes
        path = tmp_path / "long.rares.json"
        path.write_text(bench_scenario_text("long_trace", 7))
        with subprocess.Popen(
            [sys.executable, "-m", "rares_sim.cli", *command, str(path), "--format", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            head = proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert len(head) == 100
    else:
        # the output fits a pipe's buffer, so the reader has left before the
        # command starts: its first write already finds the pipe broken
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "rares_sim.cli", *command,
                 str(SCENARIO_DIR / scenario), "--format", fmt],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        code, err = proc.returncode, proc.stderr
    assert (code, err) == (expected, b"")
