"""Scenario parsing, the runner's worked examples, and the trace oracle."""

import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DEFAULT_KEY, scenario_paths
from rares_sim.attestation import hmac_sha256
from rares_sim.detector import DETECT_MASK, RESET_MASK, AccessEvent, ViolationKind
from rares_sim.memory import GoldenImage, RegionKind, build_layout
from rares_sim.prevention import ActionKind, default_binding
from rares_sim.scenario import (
    Scenario,
    ScenarioError,
    ScenarioSemanticError,
    ScenarioSyntaxError,
    TraceStep,
    classify_trace_naive,
    parse_scenario,
    parse_scenario_file,
    run,
)
from rares_sim.secureboot import BootOutcome

V = ViolationKind


def make_scenario(trace_events, **kwargs):
    """Assemble a Scenario straight from event objects."""
    layout = build_layout()
    flash_size = layout.region(RegionKind.FLASH).size
    image = bytes(flash_size)
    base = dict(
        name="synthetic",
        layout=layout,
        key=DEFAULT_KEY,
        golden=GoldenImage(image=image, reference_digest=hmac_sha256(DEFAULT_KEY, image)),
        region_contents={RegionKind.FLASH: image},
        binding=default_binding(),
        pox=None,
        attest_requests=[],
        trace=[TraceStep(cycle=i + 1, event=ev) for i, ev in enumerate(trace_events)],
    )
    base.update(kwargs)
    return Scenario(**base)


# -- parsing ------------------------------------------------------------------


def test_minimal_scenario_parses():
    scenario = parse_scenario("{}")
    assert scenario.key == DEFAULT_KEY
    assert scenario.trace == []
    assert scenario.region_contents[RegionKind.FLASH] == scenario.golden.image


def test_bad_json_reports_position():
    with pytest.raises(ScenarioSyntaxError, match=r"line \d+"):
        parse_scenario('{"name": }')


@pytest.mark.parametrize(
    "text,match",
    [
        ('{"bogus": 1}', "unknown top-level"),
        ('{"key": "aabb"}', "key length"),
        ('{"key": "zz"}', "bad hex"),
        ('{"trace": [{"cycle": 1}, {"cycle": 1}]}', "non-monotone"),
        ('{"trace": [{"cycle": 0}]}', "positive integer"),
        ('{"trace": [{"cycle": 1, "data": "0x100"}]}', "out of range"),
        ('{"trace": [{"cycle": 1, "ren": true, "wen": true}]}', "ren and wen"),
        ('{"trace": [{"cycle": 1, "pcc": "0x4000"}]}', "unknown fields"),
        ('{"regions": {"key_rom": "00"}}', "provisioned via"),
        ('{"regions": {"nowhere": "00"}}', "unknown region"),
        ('{"binding": {"NOT_A_KIND": "none"}}', "unknown violation kind"),
        ('{"binding": {"IRQ_RAM": "explode"}}', "unknown action"),
        ('{"pox": {"begin_cycle": 5, "end_cycle": 2, "er_min": "0x4000", "er_max": "0x40FF"}}',
         "begin_cycle after"),
        ('{"pox": {"begin_cycle": 1, "end_cycle": 2, "er_min": "0x0200", "er_max": "0x0210"}}',
         "outside app RAM"),
        ('{"attest": [{"cycle": 1, "nonce": "aa", "region_start": 0, "region_end": 0}]}',
         "nonce"),
        ('{"golden": {"image": "' + "00" * 3000 + '"}}', "exceed region size"),
        ('{"layout": {"app_ram": ["0x4000", "0x7FFF"]}}', "overlap"),
        ('{"attest": 5}', "attest: expected an array"),
        ('{"attest": null}', "attest: expected an array"),
        ('{"binding": {"IRQ_RAM": {"action": ["x"]}}}', "action: expected a string"),
        ('{"trace": [{"cycle": 1, "data": "0x1FFFF"}]}',
         r"trace\[0\]\.data: byte value out of range"),
        ('{"trace": [{"cycle": 1, "data": true}]}', r"trace\[0\]\.data: expected a byte"),
    ],
)
def test_semantic_errors(text, match):
    with pytest.raises(ScenarioSemanticError, match=match):
        parse_scenario(text)


TOP_KEYS = ["name", "layout", "key", "golden", "regions", "binding", "pox", "attest", "trace"]
# Object keys the grammar gives meaning to, so nested values reach the
# field parsers rather than stopping at "unknown key".
FIELD_NAMES = [
    *(kind.value for kind in RegionKind), *(kind.name for kind in ViolationKind),
    "action", "mask", "image", "reference_digest", "begin_cycle", "end_cycle",
    "er_min", "er_max", "cycle", "nonce", "region_start", "region_end",
    "pc", "irq", "ren", "wen", "daddr", "dma_en", "dma_addr", "data",
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELD_NAMES) | st.text(), inner, max_size=4),
    max_leaves=12,
)


@given(key=st.sampled_from(TOP_KEYS), value=JSON_VALUES)
@settings(max_examples=200)
def test_any_json_value_under_a_top_level_key_fails_cleanly(key, value):
    try:
        parse_scenario(json.dumps({key: value}))
    except ScenarioError:
        pass


def test_attest_bounds_must_share_a_region():
    text = json.dumps(
        {
            "attest": [
                {
                    "cycle": 1,
                    "nonce": "00" * 32,
                    "region_start": "0x5FF0",
                    "region_end": "0x6010",
                }
            ]
        }
    )
    with pytest.raises(ScenarioSemanticError, match="one mapped region"):
        parse_scenario(text)


def test_layout_override_merges_over_defaults():
    scenario = parse_scenario('{"layout": {"app_ram": ["0x4000", "0x41FF"]}}')
    app = scenario.layout.region(RegionKind.APP_RAM)
    assert (app.start, app.end) == (0x4000, 0x41FF)
    assert scenario.layout.region(RegionKind.FLASH).start == 0xE000


def test_golden_digest_computed_when_omitted():
    scenario = parse_scenario('{"golden": {"image": "aabb"}}')
    assert scenario.golden.reference_digest == hmac_sha256(
        scenario.key, scenario.golden.image
    )


def test_addresses_accept_ints_and_strings():
    scenario = parse_scenario('{"trace": [{"cycle": 1, "pc": 16384, "daddr": "0x6A00"}]}')
    assert scenario.trace[0].event.pc == 0x4000
    assert scenario.trace[0].event.daddr == 0x6A00


# -- worked examples ----------------------------------------------------------


def test_key_read_attack_run():
    report = run(parse_scenario_file(scenario_paths()[0].parent / "key_read_attack.rares.json"))
    assert report.boot.outcome is BootOutcome.VERIFIED_CLEAN
    rows = {row.cycle: row for row in report.rows}
    assert rows[1].violations == [] and rows[1].ctrl_after == 0
    assert rows[5].violations == [V.CPU_ROM_RD]
    assert rows[5].ctrl_after == 0x0200
    assert [r.action.kind for r in rows[5].actions if r.applied] == [ActionKind.HARD_CPU_OFF]
    assert report.final_ctrl == 0x0200  # nothing recovered or reset: bit 9 persists
    assert report.exit_class == "violations"


def test_dma_write_during_swatt_is_suppressed_and_recovered():
    path = scenario_paths()[0].parent / "dma_ram_write_swatt.rares.json"
    report = run(parse_scenario_file(path))
    attack = next(row for row in report.rows if row.cycle == 2)
    assert attack.violations == [V.DMA_RAM_WR]
    assert attack.mem_effect == "suppressed"
    assert [e.kind for e in report.recovery_events] == ["reflash"]
    assert report.final_ctrl == 0x0000  # recovery cleared the detection bits
    assert report.pre_clear_ctrl == V.DMA_RAM_WR.mask
    # the attacked byte survived: app RAM digests exactly as provisioned
    expected = hashlib.sha256(
        bytes.fromhex("a1a2a3a4a5a6a7a8") + bytes(0x2000 - 8)
    ).hexdigest()
    assert report.final_digests["app_ram"] == expected


def test_irq_atomicity_triggers_reset_and_reboot():
    path = scenario_paths()[0].parent / "atomicity_irq.rares.json"
    report = run(parse_scenario_file(path))
    attack = next(row for row in report.rows if row.cycle == 2)
    assert attack.violations == [V.IRQ_STACK]
    assert attack.ctrl_after == V.IRQ_STACK.mask | RESET_MASK
    resets = [e for e in report.recovery_events if e.kind == "reset"]
    assert len(resets) == 1 and resets[0].boot.outcome is BootOutcome.VERIFIED_CLEAN
    assert report.final_ctrl == 0x0000
    assert report.pre_clear_ctrl == V.IRQ_STACK.mask | RESET_MASK
    assert report.exit_class == "violations"


def test_all_ten_attacks_latch_every_bit():
    path = scenario_paths()[0].parent / "all_ten_attacks.rares.json"
    report = run(parse_scenario_file(path))
    assert report.pre_clear_ctrl & DETECT_MASK == 0x03FF
    assert report.exit_class == "violations"


def test_unrecoverable_run_halts_before_the_trace():
    path = scenario_paths()[0].parent / "unrecoverable.rares.json"
    report = run(parse_scenario_file(path))
    assert report.boot.outcome is BootOutcome.UNRECOVERABLE
    assert report.rows == []
    assert report.exit_class == "unrecoverable"


def test_pox_scenarios():
    base = scenario_paths()[0].parent
    clean = run(parse_scenario_file(base / "pox_clean_attest.rares.json"))
    assert clean.attest_answers[0].report.exec_flag is True
    assert clean.attest_answers[0].report.er_min == 0x4000
    breach = run(parse_scenario_file(base / "pox_breach.rares.json"))
    assert breach.attest_answers[0].report.exec_flag is False
    assert breach.exit_class == "clean"  # an excursion is not a rule violation


def test_soft_binding_scenario_switches_mode():
    path = scenario_paths()[0].parent / "soft_lpm_policy.rares.json"
    report = run(parse_scenario_file(path))
    assert report.final_mode == "lpm4"
    assert report.final_r2 == 0x00F0


def test_every_corpus_file_parses_and_runs():
    assert len(scenario_paths()) >= 8
    for path in scenario_paths():
        report = run(parse_scenario_file(path))
        if report.exit_class == "violations":
            assert any(row.ctrl_after for row in report.rows), path.name


def test_attack_corpus_files_all_flag_violations():
    expected = {
        "key_read_attack.rares.json",
        "dma_ram_write_swatt.rares.json",
        "atomicity_irq.rares.json",
        "all_ten_attacks.rares.json",
        "soft_lpm_policy.rares.json",
    }
    flagged = {
        path.name
        for path in scenario_paths()
        if run(parse_scenario_file(path)).exit_class == "violations"
    }
    assert flagged == expected


# -- runner edge behavior ------------------------------------------------------


def test_attest_request_in_a_trace_gap_is_answered():
    scenario = parse_scenario(
        json.dumps(
            {
                "attest": [
                    {"cycle": 3, "nonce": "11" * 32, "region_start": "0x4000",
                     "region_end": "0x400F"}
                ],
                "trace": [{"cycle": 1, "pc": "0x4000"}, {"cycle": 5, "pc": "0x4002"}],
            }
        )
    )
    report = run(scenario)
    assert len(report.attest_answers) == 1
    assert report.attest_answers[0].cycle == 3


def test_attest_request_after_trace_end_is_answered():
    scenario = parse_scenario(
        json.dumps(
            {
                "attest": [
                    {"cycle": 99, "nonce": "22" * 32, "region_start": "0x4000",
                     "region_end": "0x400F"}
                ],
                "trace": [{"cycle": 1, "pc": "0x4000"}],
            }
        )
    )
    assert len(run(scenario).attest_answers) == 1


def test_pox_window_entirely_inside_a_gap_is_vacuously_clean():
    scenario = parse_scenario(
        json.dumps(
            {
                "pox": {"begin_cycle": 2, "end_cycle": 3, "er_min": "0x4000",
                        "er_max": "0x40FF"},
                "attest": [
                    {"cycle": 6, "nonce": "44" * 32, "region_start": "0x4000",
                     "region_end": "0x400F"}
                ],
                "trace": [{"cycle": 1, "pc": "0x4000"}, {"cycle": 5, "pc": "0xE000"}],
            }
        )
    )
    # no observed cycle falls inside the window, so nothing breached it;
    # the cycle-5 excursion happens after the window closed and must not count
    report = run(scenario)
    assert report.attest_answers[0].report.exec_flag is True


def test_reset_aborts_open_pox_window():
    scenario = parse_scenario(
        json.dumps(
            {
                "pox": {"begin_cycle": 1, "end_cycle": 5, "er_min": "0x4000",
                        "er_max": "0x40FF"},
                "attest": [
                    {"cycle": 6, "nonce": "33" * 32, "region_start": "0x4000",
                     "region_end": "0x400F"}
                ],
                "trace": [
                    {"cycle": 1, "pc": "0x4000"},
                    {"cycle": 2, "pc": "0x4001", "irq": True},
                    {"cycle": 6, "pc": "0x4002"},
                ],
            }
        )
    )
    report = run(scenario)
    assert report.attest_answers[0].report.exec_flag is False


def test_cycle_labels_drive_the_device_clock():
    scenario = parse_scenario(
        '{"trace": [{"cycle": 7, "pc": "0x4000"}, {"cycle": 9, "pc": "0x4001"}]}'
    )
    report = run(scenario)
    assert [row.cycle for row in report.rows] == [7, 9]


# -- determinism ----------------------------------------------------------------


def test_repeated_runs_are_byte_identical():
    text = (scenario_paths()[0].parent / "pox_clean_attest.rares.json").read_text()
    a = run(parse_scenario(text)).to_json()
    b = run(parse_scenario(text)).to_json()
    assert a == b


# -- whole-trace oracle properties ------------------------------------------------


def test_naive_word_of_empty_trace_is_zero(layout):
    assert classify_trace_naive(layout, []) == 0


def test_naive_word_is_per_kind_exact(layout):
    assert classify_trace_naive(
        layout, [AccessEvent(pc=0x4000, ren=True, daddr=0x6A00)]
    ) == 0x0200
    assert classify_trace_naive(layout, [AccessEvent(pc=0x4000, irq=True)]) == 0x0001
    assert classify_trace_naive(layout, [AccessEvent(pc=0x4000)]) == 0


_addr_pool = st.sampled_from(
    [0x0000, 0x0200, 0x0AFF, 0x0B00, 0x4000, 0x5FFF, 0x6000, 0x69FF,
     0x6A00, 0x6A1F, 0x7000, 0xE000, 0xFFFF]
)


@st.composite
def events(draw):
    ren = draw(st.booleans())
    return AccessEvent(
        pc=draw(_addr_pool),
        irq=draw(st.booleans()),
        ren=ren,
        wen=False if ren else draw(st.booleans()),
        daddr=draw(_addr_pool),
        dma_en=draw(st.booleans()),
        dma_addr=draw(_addr_pool),
    )


@given(t1=st.lists(events(), max_size=20), t2=st.lists(events(), max_size=20))
@settings(max_examples=200)
def test_naive_word_concatenation_is_bitwise_or(layout, t1, t2):
    assert classify_trace_naive(layout, t1 + t2) == (
        classify_trace_naive(layout, t1) | classify_trace_naive(layout, t2)
    )


@given(trace=st.lists(events(), max_size=24))
@settings(max_examples=150, deadline=None)
def test_run_pre_clear_snapshot_matches_naive_word(trace):
    scenario = make_scenario(trace)
    report = run(scenario)
    assert report.pre_clear_ctrl & DETECT_MASK == classify_trace_naive(
        scenario.layout, trace
    )


# -- JSON report writer ---------------------------------------------------------


def assert_json_matches_stdlib(report):
    assert report.to_json() == json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("path", scenario_paths(), ids=lambda p: p.name)
def test_to_json_matches_stdlib_encoder_on_corpus(path):
    assert_json_matches_stdlib(run(parse_scenario_file(path)))


_ACTION_ENTRIES = st.sampled_from(
    ["none", "soft_mode_switch", "hard_cpu_off", "chip_gate_and_recover", "system_reset"]
) | st.builds(
    lambda mask: {"action": "soft_mode_switch", "mask": mask}, st.integers(0, 0xFFFF)
)
_NAME_CHARS = st.sampled_from('"\\\x00\x07\n\t\x1f\x7f/é☃\U0001d11e') | st.characters()
# (start, end) pairs that each lie inside one mapped region
_ATTEST_SPANS = st.sampled_from(
    [(0x0200, 0x0AFF), (0x0B00, 0x0B3F), (0x4000, 0x40FF), (0x6000, 0x6000),
     (0x6A00, 0x6A1F), (0x7000, 0x77FF), (0xE000, 0xE7FF)]
)


@st.composite
def scenario_docs(draw):
    """Scenario documents over every region, context, action and boot path."""
    trace, cycle = [], 0
    for _ in range(draw(st.integers(0, 12))):
        cycle += draw(st.integers(1, 3))
        op = draw(st.sampled_from(["idle", "ren", "wen"]))
        trace.append({
            "cycle": cycle, "pc": draw(_addr_pool), "irq": draw(st.booleans()),
            "ren": op == "ren", "wen": op == "wen", "daddr": draw(_addr_pool),
            "dma_en": draw(st.booleans()), "dma_addr": draw(_addr_pool),
            "data": draw(st.integers(0, 0xFF)),
        })
    doc = {
        "name": draw(st.text(_NAME_CHARS, max_size=12)),
        "binding": draw(st.dictionaries(
            st.sampled_from([kind.name for kind in ViolationKind]), _ACTION_ENTRIES, max_size=10
        )),
        "attest": [
            {"cycle": draw(st.integers(1, cycle + 3)),
             "nonce": draw(st.binary(min_size=32, max_size=32)).hex(),
             "region_start": start, "region_end": end}
            for start, end in draw(st.lists(_ATTEST_SPANS, max_size=3))
        ],
        "trace": trace,
    }
    flash = draw(st.sampled_from(["clean", "tampered", "unrecoverable"]))
    if flash != "clean":
        doc["golden"] = {"image": "1122"}
        doc["regions"] = {"flash": "ff22"}
    if flash == "unrecoverable":
        doc["golden"]["reference_digest"] = "ee" * 32
    if draw(st.booleans()):
        begin = draw(st.integers(1, cycle + 2))
        doc["pox"] = {"begin_cycle": begin, "end_cycle": begin + draw(st.integers(0, 6)),
                      "er_min": "0x4000", "er_max": "0x40FF"}
    return doc


@given(doc=scenario_docs())
@example(doc={})  # empty trace
@example(doc={  # two actions in one row; the reset's recovery event carries a reboot
    "name": 'tab\t "quote" back\\slash é',
    "binding": {"CPU_RAM_RD": {"action": "soft_mode_switch", "mask": 4}},
    "trace": [{"cycle": 1, "pc": "0x6000", "irq": True, "ren": True, "daddr": "0x4000"}],
})
@settings(max_examples=200, deadline=None)
def test_to_json_matches_stdlib_encoder_on_generated_scenarios(doc):
    assert_json_matches_stdlib(run(parse_scenario(json.dumps(doc))))
