"""Scenario parsing, the runner's worked examples, and the trace oracle."""

import gc
import hashlib
import hmac
import json
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import DEFAULT_KEY, bench_scenario_text, scenario_paths, slotted_layouts
from reference_run import reference_run
from rares_sim.attestation import hmac_sha256
from rares_sim.detector import DETECT_MASK, MASK_KINDS, RESET_MASK, AccessEvent, ViolationKind
from rares_sim.memory import GoldenImage, RegionKind, build_layout
from rares_sim.prevention import ActionKind, default_binding
from rares_sim.scenario import (
    Scenario,
    ScenarioError,
    ScenarioSemanticError,
    ScenarioSyntaxError,
    Trace,
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
        trace=Trace.from_steps(
            TraceStep(cycle=i + 1, event=ev) for i, ev in enumerate(trace_events)
        ),
    )
    base.update(kwargs)
    return Scenario(**base)


# -- parsing ------------------------------------------------------------------


def test_minimal_scenario_parses():
    scenario = parse_scenario("{}")
    assert scenario.key == DEFAULT_KEY
    assert list(scenario.trace) == []
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
        ('{"regions": {"metadata": "ffff"}}', r"regions\.metadata: a read-only view"),
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
        ('{"layout": {"recovery_rom": ["0x7000", "0x7001"]}}',
         r"layout: recovery_rom smaller than flash \(2048 bytes\)"),
        ('{"attest": 5}', "attest: expected an array"),
        ('{"attest": null}', "attest: expected an array"),
        ('{"binding": {"IRQ_RAM": {"action": ["x"]}}}', "action: expected a string"),
        ('{"trace": [{"cycle": 1, "data": "0x1FFFF"}]}',
         r"trace\[0\]\.data: byte value out of range"),
        ('{"trace": [{"cycle": 1, "data": true}]}', r"trace\[0\]\.data: expected a byte"),
        ('{"trace": [{"cycle": 1, "pc": -1}]}',
         r"trace\[0\]\.pc: address -0x1 outside 16-bit space"),
        ('{"trace": [{"cycle": 1, "pc": "-0x1"}]}',
         r"trace\[0\]\.pc: address -0x1 outside 16-bit space"),
        ('{"golden": {"imgae": "deadbeef"}}', r"golden: unknown fields imgae"),
        ('{"pox": {"begin_cycle": 1, "end_cycle": 2, "er_min": "0x4000", "er_max": "0x40FF",'
         ' "end": 3}}', r"pox: unknown fields end"),
        ('{"attest": [{"cycle": 1, "nonce": "' + "aa" * 32 + '", "region_start": "0x4000",'
         ' "region_end": "0x400F", "cyc": 2}]}', r"attest\[0\]: unknown fields cyc"),
        ('{"binding": {"IRQ_RAM": {"action": "soft_mode_switch", "maks": "0x00F0"}}}',
         r"binding\.IRQ_RAM: unknown fields maks"),
        ('{"binding": {"IRQ_RAM": {"action": "hard_cpu_off", "mask": "0x00F0"}}}',
         r"binding\.IRQ_RAM\.mask: only soft_mode_switch takes a mask"),
        ('{"name": "ok \\ud800"}', r"name: not UTF-8 text: lone surrogate at character 3"),
        # row-shaped objects outside the trace, which the decoder's row reader
        # also takes, keep the messages of the section they are in
        ('{"cycle": 1}', r"^unknown top-level keys: cycle$"),
        ('{"pox": {"cycle": 1}}', r"^pox: unknown fields cycle$"),
        ('{"attest": [{"cycle": 1}]}', r"^attest\[0\]\.nonce: must be 32 bytes$"),
        ('{"golden": {"cycle": 1}}', r"^golden: unknown fields cycle$"),
        ('{"binding": {"IRQ_RAM": {"cycle": 1}}}', r"^binding\.IRQ_RAM: unknown fields cycle$"),
        ('{"trace": {"cycle": 1}}', r"^trace: expected an array$"),
        ('{"trace": [[{"cycle": 1}]]}', r"^trace\[0\]: expected an object$"),
        ('{"trace": [{"cycle": 1, "pc": {"cycle": 2}}]}',
         r"^trace\[0\]\.pc: bad address \{'cycle': 2\}$"),
        ('{"pox": {"cycle": 1}, "trace": [{"cycle": 2, "pc": "0x4000"}]}',
         r"^pox: unknown fields cycle$"),
        ('{"layout": {"flash": "0xE000"}}', r"^layout\.flash: expected \[start, end\]$"),
        ('{"binding": {"IRQ_RAM": 5}}', r"^binding\.IRQ_RAM: expected a string or object$"),
        ('{"golden": {"reference_digest": "00"}}',
         r"^golden\.reference_digest length must be 32 bytes$"),
        ('{"layout": {"metadata": ["0x0B00", "0x0B00"]}}',
         r"metadata region must hold at least the 2-byte register image$"),
        ("[]", r"^scenario must be a JSON object$"),
    ],
)
def test_semantic_errors(text, match):
    with pytest.raises(ScenarioSemanticError, match=match):
        parse_scenario(text)


@pytest.mark.parametrize(
    "text",
    [
        *('{"trace": ' + first + ', "trace": [{"cycle": 2, "pc": 16384}, {"cycle": 3}]}'
          for first in ('[{"cycle": 5}]', "[]", '{"cycle": 1}', "7")),
        # the inner object decodes first and is row-shaped; the repeated "pc" drops it
        '{"trace": [{"cycle": 2, "pc": {"cycle": 1}, "pc": 16384}, {"cycle": 3}]}',
    ],
)
def test_rows_that_a_repeated_key_drops_are_not_trace_rows(text):
    # json.loads keeps the last value of a repeated key; the rows of an earlier
    # one never reach the trace, nor move its cycle order
    trace = parse_scenario(text).trace
    assert [(step.cycle, step.event.pc) for step in trace] == [(2, 0x4000), (3, 0)]


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
    assert rows[1].violations == () and rows[1].ctrl_after == 0
    assert rows[5].violations == (V.CPU_ROM_RD,)
    assert rows[5].ctrl_after == 0x0200
    assert [r.action.kind for r in rows[5].actions if r.applied] == [ActionKind.HARD_CPU_OFF]
    assert report.final_ctrl == 0x0200  # nothing recovered or reset: bit 9 persists
    assert report.exit_class == "violations"


def test_dma_write_during_swatt_is_suppressed_and_recovered():
    path = scenario_paths()[0].parent / "dma_ram_write_swatt.rares.json"
    report = run(parse_scenario_file(path))
    attack = next(row for row in report.rows if row.cycle == 2)
    assert attack.violations == (V.DMA_RAM_WR,)
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
    assert attack.violations == (V.IRQ_STACK,)
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
    assert list(report.rows) == []
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


def test_pox_window_ending_in_a_gap_closes_before_the_next_event():
    scenario = parse_scenario(
        json.dumps(
            {
                "pox": {"begin_cycle": 1, "end_cycle": 5, "er_min": "0x4000",
                        "er_max": "0x40FF"},
                "attest": [
                    {"cycle": 11, "nonce": "55" * 32, "region_start": "0x4000",
                     "region_end": "0x400F"}
                ],
                "trace": [
                    {"cycle": 1, "pc": "0x4000"},
                    {"cycle": 2, "pc": "0x4002"},
                    {"cycle": 10, "pc": "0x6000"},
                ],
            }
        )
    )
    # cycle 5 is idle, so the window closed in the gap; the cycle-10
    # excursion comes after it and must not count
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


def test_bus_writes_to_the_metadata_view_are_suppressed():
    def scenario(wen):
        """A CPU write to 0x0B00 and a DMA write to 0x0B01 from app context
        (or, without wen, the same two cycles with no write)."""
        cpu = AccessEvent(pc=0x4000, wen=wen, daddr=0x0B00)
        dma = AccessEvent(pc=0x4000, wen=wen, dma_en=True, dma_addr=0x0B01)
        steps = [TraceStep(1, cpu, 0xFF), TraceStep(2, dma, 0xFF)]
        return make_scenario([], trace=Trace.from_steps(steps))

    report = run(scenario(True))
    assert [row.mem_effect for row in report.rows] == ["suppressed", "suppressed"]
    assert report.final_digests["metadata"] == run(scenario(False)).final_digests["metadata"]


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


_NO_ACTIONS = {kind.name: "none" for kind in ViolationKind}


@st.composite
def pox_docs(draw):
    """Scenario documents with a window inside 0x4000-0x40FF, gapped labels,
    pcs inside and outside the window, CPU writes into the attested range
    0x4000-0x400F, no bound action (so nothing resets) and one challenge
    drawn anywhere: before, inside or after the window, in a gap, or past
    the trace."""
    er_min = draw(st.integers(0x4000, 0x40FF))
    er_max = draw(st.integers(er_min, 0x40FF))
    inside = st.integers(er_min, er_max)
    # two in three pcs inside and one in eight cycles with an interrupt, so
    # that many windows stay clean until their end
    pcs = inside | inside | st.sampled_from([0x3FFF, 0x4100, 0x6000, 0xE000])
    trace, cycle = [], 0
    for _ in range(draw(st.integers(0, 12))):
        cycle += draw(st.integers(1, 4))
        row = {"cycle": cycle, "pc": draw(pcs), "irq": draw(st.integers(0, 7)) == 0}
        op = draw(st.sampled_from(["ren", "wen", None]))
        if op == "wen":
            row.update(wen=True, daddr=draw(st.integers(0x4000, 0x400F) | _addr_pool),
                       data=draw(st.integers(0, 0xFF)))
        else:
            row.update(ren=op == "ren", daddr=draw(_addr_pool))
        trace.append(row)
    begin = draw(st.integers(1, cycle + 2))
    end = begin + draw(st.integers(0, 5))
    return {
        "binding": _NO_ACTIONS,
        "pox": {"begin_cycle": begin, "end_cycle": end, "er_min": er_min, "er_max": er_max},
        "attest": [{"cycle": draw(st.integers(1, max(cycle, end) + 3)), "nonce": "66" * 32,
                    "region_start": "0x4000", "region_end": "0x400F"}],
        "trace": trace,
    }


def cut_after(doc, cycle):
    """The document with its trace cut after `cycle`."""
    return {**doc, "trace": [row for row in doc["trace"] if row["cycle"] <= cycle]}


def answer_of(doc):
    return run(parse_scenario(json.dumps(doc))).attest_answers[0].report


@given(doc=pox_docs())
@example(doc={  # the end cycle 5 is idle and cycle 10 is an excursion
    "binding": _NO_ACTIONS,
    "pox": {"begin_cycle": 1, "end_cycle": 5, "er_min": 0x4000, "er_max": 0x40FF},
    "attest": [{"cycle": 11, "nonce": "66" * 32, "region_start": "0x4000",
                "region_end": "0x400F"}],
    "trace": [{"cycle": 1, "pc": 0x4000}, {"cycle": 2, "pc": 0x4002},
              {"cycle": 10, "pc": 0x6000}],
})
@settings(max_examples=300, deadline=None)
def test_no_event_after_the_window_end_reaches_the_window(doc):
    report = answer_of(doc)
    # the answer describes the device at its cycle: nothing labelled later
    # reaches it, neither the flag and bounds nor the tag
    assert report == answer_of(cut_after(doc, doc["attest"][0]["cycle"]))
    # and nothing labelled after the window's end reaches the window
    assert report.exec_flag == answer_of(cut_after(doc, doc["pox"]["end_cycle"])).exec_flag


def test_challenge_at_an_idle_cycle_does_not_see_a_later_write():
    doc = {
        "attest": [{"cycle": 5, "nonce": "77" * 32, "region_start": "0x4000",
                    "region_end": "0x400F"}],
        "trace": [{"cycle": 1, "pc": "0x4000"},
                  {"cycle": 10, "pc": "0x4002", "wen": True, "daddr": "0x4001", "data": "0xAA"}],
    }
    assert answer_of(doc) == answer_of(cut_after(doc, 5))


def test_challenge_before_the_window_opens_carries_no_proof():
    # the window opens at cycle 5, after the challenge, and no code ran in it
    report = answer_of({
        "pox": {"begin_cycle": 5, "end_cycle": 9, "er_min": "0x4000", "er_max": "0x40FF"},
        "attest": [{"cycle": 3, "nonce": "88" * 32, "region_start": "0x4000",
                    "region_end": "0x400F"}],
        "trace": [{"cycle": 1, "pc": "0x4000"}, {"cycle": 2, "pc": "0x4002"}],
    })
    assert report.exec_flag is False


# -- JSON report writer ---------------------------------------------------------


def assert_json_matches_stdlib(scenario):
    """The hand-written report text is the stdlib encoder's text of the
    whole-run reference document."""
    expected = json.dumps(reference_run(scenario), sort_keys=True, indent=2) + "\n"
    assert run(scenario).to_json() == expected


@pytest.mark.parametrize("path", scenario_paths(), ids=lambda p: p.name)
def test_to_json_matches_stdlib_encoder_on_corpus(path):
    assert_json_matches_stdlib(parse_scenario_file(path))


_ACTION_ENTRIES = st.sampled_from(
    ["none", "soft_mode_switch", "hard_cpu_off", "chip_gate_and_recover", "system_reset"]
) | st.builds(
    lambda mask: {"action": "soft_mode_switch", "mask": mask}, st.integers(0, 0xFFFF)
)
# Names with every JSON escape class; not lone surrogates, which are not
# UTF-8 text and which the parser rejects (see `test_semantic_errors`).
_NAME_CHARS = st.sampled_from('"\\\x00\x07\n\t\x1f\x7f/é☃\U0001d11e') | st.characters(
    exclude_categories=("Cs",)
)
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


_FLASH_WRITE = {"cycle": 1, "pc": "0x4000", "wen": True, "daddr": "0xE005", "data": "0x5A"}
_IRQ_IN_APP = {"cycle": 2, "pc": "0x4000", "irq": True}  # IRQ_RAM: system reset
_TAMPERED_FLASH = bytes.fromhex("ff22") + bytes(0x800 - 2)
# Documents for the recovery-event paths of the JSON writer.
RECOVERY_DOCS = {
    # an applied flash write, then a reset whose reboot recovers: two digests
    "reset_recovers": {"golden": {"image": "00"}, "trace": [_FLASH_WRITE, _IRQ_IN_APP]},
    # the reference digest matches the flash, not the golden image: power-on
    # boot is clean, and the reboot after the write cannot recover
    "reset_unrecoverable": {
        "golden": {
            "image": "1122",
            "reference_digest": hmac.new(DEFAULT_KEY, _TAMPERED_FLASH, hashlib.sha256).hexdigest(),
        },
        "regions": {"flash": "ff22"},
        "trace": [_FLASH_WRITE, _IRQ_IN_APP],
    },
    # a DMA key-ROM read gates and reflashes, then a reset reboots
    "reflash_then_reset": {"trace": [
        {"cycle": 1, "pc": "0x4000", "ren": True, "dma_en": True, "dma_addr": "0x6A00"},
        _IRQ_IN_APP,
    ]},
}


def test_recovery_docs_reach_their_paths():
    def events(name):
        report = run(parse_scenario(json.dumps(RECOVERY_DOCS[name])))
        return report, [
            (ev.after_cycle, ev.kind, ev.boot and ev.boot.outcome, ev.boot and len(ev.boot.digests))
            for ev in report.recovery_events
        ]

    report, evs = events("reset_recovers")
    assert report.rows[0].mem_effect == "applied"
    assert evs == [(2, "reset", BootOutcome.RECOVERED_THEN_VERIFIED, 2)]
    report, evs = events("reset_unrecoverable")
    assert report.boot.outcome is BootOutcome.VERIFIED_CLEAN
    assert report.rows[0].mem_effect == "applied"
    assert evs == [(2, "reset", BootOutcome.UNRECOVERABLE, 2)]
    _, evs = events("reflash_then_reset")
    assert evs == [(1, "reflash", None, None), (2, "reset", BootOutcome.VERIFIED_CLEAN, 1)]


@given(doc=scenario_docs())
@example(doc={})  # empty trace
@example(doc={  # two actions in one row; the reset's recovery event carries a reboot
    "name": 'tab\t "quote" back\\slash é',
    "binding": {"CPU_RAM_RD": {"action": "soft_mode_switch", "mask": 4}},
    "trace": [{"cycle": 1, "pc": "0x6000", "irq": True, "ren": True, "daddr": "0x4000"}],
})
@example(doc=RECOVERY_DOCS["reset_recovers"])
@example(doc=RECOVERY_DOCS["reset_unrecoverable"])
@example(doc=RECOVERY_DOCS["reflash_then_reset"])
@settings(max_examples=200, deadline=None)
def test_to_json_matches_stdlib_encoder_on_generated_scenarios(doc):
    assert_json_matches_stdlib(parse_scenario(json.dumps(doc)))


@st.composite
def drawn_layout_docs(draw):
    """Scenario documents over a drawn layout with an optional window,
    challenges, binding and tampered flash, and a short trace over
    addresses of its regions."""
    bounds = {r.kind: (r.start, r.end) for r in draw(slotted_layouts()).regions}
    # the recovery ROM holds the flash image: of the two drawn regions, the
    # larger one is the ROM, so the parser accepts every drawn layout
    rom, flash = bounds[RegionKind.RECOVERY_ROM], bounds[RegionKind.FLASH]
    if rom[1] - rom[0] < flash[1] - flash[0]:
        bounds[RegionKind.RECOVERY_ROM], bounds[RegionKind.FLASH] = flash, rom
    spans = st.sampled_from(sorted(bounds.values()))
    addrs = spans.flatmap(lambda b: st.integers(*b)) | st.integers(0, 0xFFFF)
    trace, cycle = [], 0
    for _ in range(draw(st.integers(0, 8))):
        cycle += draw(st.integers(1, 3))
        op = draw(st.sampled_from(["idle", "ren", "wen"]))
        trace.append({
            "cycle": cycle, "pc": draw(addrs), "irq": draw(st.booleans()),
            "ren": op == "ren", "wen": op == "wen", "daddr": draw(addrs),
            "dma_en": draw(st.booleans()), "dma_addr": draw(addrs),
            "data": draw(st.integers(0, 0xFF)),
        })
    doc = {
        "layout": {kind.value: [s, e] for kind, (s, e) in bounds.items()},
        "trace": trace,
    }
    if draw(st.booleans()):
        doc["regions"] = {"flash": "ff"}  # tampered: boot recovers it
    if draw(st.booleans()):
        doc["binding"] = draw(st.dictionaries(
            st.sampled_from([kind.name for kind in ViolationKind]), _ACTION_ENTRIES, max_size=10
        ))
    if draw(st.booleans()):
        lo, hi = bounds[RegionKind.APP_RAM]
        er_min = draw(st.integers(lo, hi))
        begin = draw(st.integers(1, cycle + 2))
        doc["pox"] = {"begin_cycle": begin, "end_cycle": begin + draw(st.integers(0, 6)),
                      "er_min": er_min, "er_max": draw(st.integers(er_min, hi))}
    attest = []
    for lo, hi in draw(st.lists(spans, max_size=2)):
        start = draw(st.integers(lo, hi))
        attest.append({"cycle": draw(st.integers(1, cycle + 3)), "nonce": "5a" * 32,
                       "region_start": start, "region_end": draw(st.integers(start, hi))})
    if attest:
        doc["attest"] = attest
    return doc


@given(doc=drawn_layout_docs())
@example(doc={"layout": {"recovery_rom": ["0x7000", "0x7001"]}})
@settings(max_examples=150, deadline=None)
def test_every_accepted_scenario_runs_and_reports(doc):
    try:
        scenario = parse_scenario(json.dumps(doc))
    except ScenarioError:
        return  # rejected with a located message; the CLI exits 1
    report = run(scenario)
    report.to_json()
    report.to_text(True)


def test_to_json_peak_memory_stays_near_its_output_size():
    # app-RAM traffic with a DMA key-ROM read (gate and reflash) every 50th cycle
    events = [
        AccessEvent(pc=0x4000, ren=True, dma_en=True, dma_addr=0x6A00) if i % 50 == 49
        else AccessEvent(pc=0x4000 + i % 256, wen=bool(i % 2), ren=not i % 2, daddr=0x4100 + i % 512)
        for i in range(5000)
    ]
    report = run(make_scenario(events))
    assert len(report.rows) == 5000
    gc.collect()
    tracemalloc.start()
    try:
        text = report.to_json()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text), f"peak {peak} B for {len(text)} B of output"


def test_rows_share_the_tuples_of_their_violation_mask():
    report = run(parse_scenario(bench_scenario_text("recovery_storm", 7)))
    shared: dict[tuple, tuple[int, int]] = {}
    for row in report.rows:
        mask = sum(v.mask for v in row.violations)
        assert row.violations is MASK_KINDS[mask]
        ids = shared.setdefault(row.violations, (id(row.violations), id(row.actions)))
        assert (id(row.violations), id(row.actions)) == ids
    assert len(shared) > 2  # benign rows and several violation masks
    benign = shared[()]
    assert benign == (id(()), id(()))  # every benign row holds the one empty tuple


@pytest.mark.parametrize("event,violations", [
    (AccessEvent(pc=0x4000, ren=True, daddr=0x4100), ()),  # app-RAM read
    (AccessEvent(pc=0x4000, ren=True, daddr=0x6A00), (V.CPU_ROM_RD,)),  # the CPU stays off
], ids=["benign", "violating"])
def test_a_row_adds_no_tracked_object(event, violations):
    # the rows are columns of integers; a CycleRow is built only when read
    scenario = make_scenario([event] * 5000)
    gc.collect()
    before = len(gc.get_objects())
    report = run(scenario)
    per_row = (len(gc.get_objects()) - before) / len(report.rows)
    assert per_row <= 0.01, f"{per_row:.3f} tracked objects per row"
    assert len(report.rows) == 5000
    assert all(tuple(row.violations) == violations for row in report.rows)


def trace_text(rows: int) -> str:
    """A scenario of `rows` app-RAM reads, labelled 1, 2, ..."""
    return json.dumps({"trace": [
        {"cycle": i + 1, "pc": f"0x{0x4000 + i % 4096:04X}", "ren": True, "daddr": 0x4100 + i % 512}
        for i in range(rows)
    ]})


def test_a_parsed_trace_row_leaves_no_tracked_object():
    text = trace_text(5000)
    gc.collect()
    before = len(gc.get_objects())
    scenario = parse_scenario(text)
    gc.collect()
    per_row = (len(gc.get_objects()) - before) / len(scenario.trace)
    assert per_row <= 0.01, f"{per_row:.3f} tracked objects per row"
    assert len(scenario.trace) == 5000


def test_a_parsed_trace_keeps_few_bytes_per_cycle():
    # about 45 B: a list slot and an int object for the label, three 16-bit
    # words, the data byte and the flags byte, and the columns' spare room
    def kept(text):
        gc.collect()
        tracemalloc.start()
        try:
            scenario = parse_scenario(text)
            gc.collect()
            return tracemalloc.get_traced_memory()[0], scenario
        finally:
            tracemalloc.stop()

    empty, _ = kept(trace_text(0))
    full, scenario = kept(trace_text(5000))
    per_cycle = (full - empty) / len(scenario.trace)
    assert per_cycle <= 64, f"{per_cycle:.1f} B per cycle"


def test_trace_and_rows_read_as_sequences_of_steps_and_rows():
    text = trace_text(3)
    scenario = parse_scenario(text)
    trace = scenario.trace
    steps = list(trace)
    assert [trace[i] for i in range(3)] == steps == trace[:]
    assert trace[-1] == steps[2] and trace[-1:] == steps[2:] and trace[::2] == steps[::2]
    assert steps[1] == TraceStep(2, AccessEvent(pc=0x4001, ren=True, daddr=0x4101))
    assert all(type(flag) is bool for step in steps for flag in (
        step.event.irq, step.event.ren, step.event.wen, step.event.dma_en))
    assert list(Trace.from_steps(steps)) == steps
    with pytest.raises(IndexError):
        trace[3]
    report = run(scenario)
    rows = list(report.rows)
    assert [report.rows[i] for i in range(-3, 0)] == rows == report.rows[:]
    assert [(row.cycle, row.event, row.data) for row in rows] == [
        (step.cycle, step.event, step.data) for step in steps
    ]


# sha256 of the two report forms on the benchmark traces at seed 7, recorded
# before rows shared their per-mask tuples and the writers their pair text
BENCH_REPORT_SHA256 = {
    "long_trace": (
        "c9dc8c2e9a717f470a760133ecb39cfeacee8d5c31d478d844ec3659419ccb50",
        "dc8e3f8b68422f9eeeb8ab107258dc2f9fc6df112bef717fac96dadfaa47ed85",
    ),
    "recovery_storm": (
        "cf2cb43c177b417ad7f10d596a150d0709c0ce9adfef65a7d34d2fa6392d109c",
        "68646f3d416b81ed6ee5c1f27e0785462e359caa3210ecd7565ffd4148ba171b",
    ),
}


@pytest.mark.parametrize("workload", sorted(BENCH_REPORT_SHA256))
def test_benchmark_trace_reports_are_byte_identical(workload):
    report = run(parse_scenario(bench_scenario_text(workload, 7)))
    digests = tuple(
        hashlib.sha256(text.encode()).hexdigest() for text in (report.to_json(), report.to_text(True))
    )
    assert digests == BENCH_REPORT_SHA256[workload]


# -- whole-run reference -----------------------------------------------------
#
# `reference_run` rebuilds the report document from the README's rules with
# none of the package's run, prevention, memory, boot or report code, so
# these properties check `run()` and the JSON writer together.


def assert_reference_matches(scenario):
    assert run(scenario).to_dict() == reference_run(scenario)


_NONCE = "5a" * 32


@given(doc=scenario_docs())
@example(doc={})
@example(doc={  # two actions in one row; the reset's recovery event carries a reboot
    "binding": {"CPU_RAM_RD": {"action": "soft_mode_switch", "mask": 4}},
    "trace": [{"cycle": 1, "pc": "0x6000", "irq": True, "ren": True, "daddr": "0x4000"}],
})
@example(doc=RECOVERY_DOCS["reset_recovers"])
@example(doc=RECOVERY_DOCS["reset_unrecoverable"])
@example(doc=RECOVERY_DOCS["reflash_then_reset"])
@example(doc={  # IRQ_RAM bound to the gate, CPU_ROM_RD to CPU-off: the gate wins
    "binding": {"IRQ_RAM": "chip_gate_and_recover"},
    "trace": [{"cycle": 1, "pc": "0x4000", "irq": True, "ren": True, "daddr": "0x6A00"}],
})
@example(doc={  # a key-ROM read halts the CPU: its next write is suppressed, DMA's is not
    "trace": [
        {"cycle": 1, "pc": "0x4000", "ren": True, "daddr": "0x6A00"},
        {"cycle": 2, "pc": "0x4000", "wen": True, "daddr": "0x4010", "data": "0x5A"},
        {"cycle": 3, "pc": "0x4000", "wen": True, "dma_en": True, "dma_addr": "0x4011",
         "data": "0xA5"},
    ],
})
@settings(max_examples=200, deadline=None)
def test_reference_run_matches_run_on_generated_scenarios(doc):
    assert_reference_matches(parse_scenario(json.dumps(doc)))


@given(doc=pox_docs())
@example(doc={  # a challenge at the window's last cycle sees the window closed
    "binding": _NO_ACTIONS,
    "pox": {"begin_cycle": 1, "end_cycle": 2, "er_min": 0x4000, "er_max": 0x40FF},
    "attest": [{"cycle": 2, "nonce": _NONCE, "region_start": "0x4000", "region_end": "0x400F"}],
    "trace": [{"cycle": 1, "pc": 0x4000}, {"cycle": 2, "pc": 0x4002}],
})
@example(doc={  # a challenge at an idle cycle is answered before the next event
    "binding": _NO_ACTIONS,
    "attest": [{"cycle": 1, "nonce": _NONCE, "region_start": "0x4000", "region_end": "0x400F"}],
    "trace": [{"cycle": 2, "pc": 0x4000, "wen": True, "daddr": 0x4001, "data": 0xAA}],
})
@settings(max_examples=200, deadline=None)
def test_reference_run_matches_run_on_pox_timelines(doc):
    assert_reference_matches(parse_scenario(json.dumps(doc)))


@given(doc=drawn_layout_docs())
@example(doc={  # a metadata region that holds the register and digest, not the window
    "layout": {"metadata": ["0x0B00", "0x0B24"]},
    "pox": {"begin_cycle": 1, "end_cycle": 1, "er_min": "0x4000", "er_max": "0x4000"},
    "attest": [{"cycle": 2, "nonce": _NONCE, "region_start": "0x0B00", "region_end": "0x0B24"}],
    "trace": [{"cycle": 1, "pc": "0x4000"}],
})
@settings(max_examples=150, deadline=None)
def test_reference_run_matches_run_on_drawn_layouts(doc):
    try:
        scenario = parse_scenario(json.dumps(doc))
    except ScenarioError:
        assume(False)  # rejected with a located message; draw another layout
    assert_reference_matches(scenario)


@pytest.mark.parametrize("path", scenario_paths(), ids=lambda p: p.name)
def test_reference_run_matches_run_on_corpus(path):
    assert_reference_matches(parse_scenario_file(path))


@pytest.mark.parametrize("workload", ["long_trace", "recovery_storm"])
def test_reference_run_matches_run_on_benchmark_traces(workload):
    assert_reference_matches(parse_scenario(bench_scenario_text(workload, 7)))
