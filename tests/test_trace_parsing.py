"""The trace section of the scenario parser: the one-loop fast path against
the per-field helpers, the slotted event types it builds, and inputs that
used to escape as tracebacks."""

import copy
import dataclasses
import gc
import json
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rares_sim.detector import AccessEvent
from rares_sim.scenario import (
    ScenarioError,
    ScenarioSemanticError,
    ScenarioSyntaxError,
    TraceStep,
    _parse_addr,
    _parse_byte,
    _parse_cycle,
    _parse_flag,
    parse_scenario,
)

FIELDS = ("cycle", "pc", "irq", "ren", "wen", "daddr", "dma_en", "dma_addr", "data")
ADDR_FIELDS = ("pc", "daddr", "dma_addr")
FLAG_FIELDS = ("irq", "ren", "wen", "dma_en")


def reference_trace(rows):
    """Every row through the per-field helpers, as the parser did before it
    had a fast path."""
    trace = []
    last_cycle = 0
    for i, tobj in enumerate(rows):
        where = f"trace[{i}]"
        if not isinstance(tobj, dict):
            raise ScenarioSemanticError(f"{where}: expected an object")
        unknown = set(tobj) - set(FIELDS)
        if unknown:
            raise ScenarioSemanticError(f"{where}: unknown fields {', '.join(sorted(unknown))}")
        cycle = _parse_cycle(tobj.get("cycle"), f"{where}.cycle")
        if cycle <= last_cycle:
            raise ScenarioSemanticError(f"{where}.cycle: non-monotone cycle {cycle}")
        last_cycle = cycle
        try:
            event = AccessEvent(
                pc=_parse_addr(tobj.get("pc", 0), f"{where}.pc"),
                irq=_parse_flag(tobj, "irq", where),
                ren=_parse_flag(tobj, "ren", where),
                wen=_parse_flag(tobj, "wen", where),
                daddr=_parse_addr(tobj.get("daddr", 0), f"{where}.daddr"),
                dma_en=_parse_flag(tobj, "dma_en", where),
                dma_addr=_parse_addr(tobj.get("dma_addr", 0), f"{where}.dma_addr"),
            )
        except ValueError as exc:
            raise ScenarioSemanticError(f"{where}: {exc}") from None
        data = _parse_byte(tobj.get("data", 0), f"{where}.data")
        trace.append(TraceStep(cycle=cycle, event=event, data=data))
    return trace


def outcome(parse, rows):
    """The parsed trace, or the type and message of the error."""
    try:
        return parse(rows)
    except ScenarioError as exc:
        return type(exc), str(exc)


def parse_trace(rows):
    return list(parse_scenario(json.dumps({"trace": rows})).trace)


@st.composite
def word_values(draw, bits):
    """An in-range value, as an integer or as one of the strings `int(s, 0)`
    reads."""
    value = draw(st.integers(0, (1 << bits) - 1))
    if draw(st.booleans()):
        return value
    return draw(st.sampled_from(["0x{:04X}", "0x{:x}", "{:d}", "0o{:o}", "0b{:b}"])).format(value)


@st.composite
def valid_rows(draw, count):
    """`count` rows the parser accepts, with some fields omitted, some given
    their default explicitly, and rising, gapped cycles."""
    rows, cycle = [], 0
    for _ in range(count):
        cycle += draw(st.integers(1, 3))
        row = {"cycle": cycle}
        for name in ADDR_FIELDS:
            if draw(st.booleans()):
                row[name] = draw(word_values(16))
        op = draw(st.sampled_from([None, "ren", "wen"]))
        for name in FLAG_FIELDS:
            if name in ("ren", "wen"):
                if op == name:
                    row[name] = True
                elif draw(st.integers(0, 3)) == 0:
                    row[name] = False
            elif draw(st.booleans()):
                row[name] = draw(st.booleans())
        if draw(st.booleans()):
            row["data"] = draw(word_values(8))
        rows.append(row)
    return rows


WRONG_TYPES = st.sampled_from([None, 1.5, 0.0, [], {}, [1], {"x": 1}])
BAD_STRINGS = st.sampled_from(["", " ", "zz", "0x", "0x1g", "1.5", "--1", "0x_", "true"])
BAD_STRINGS |= st.text(max_size=6)


def bad_values(name):
    """Values of field `name` the parser must reject (or, for strings that
    happen to parse, must treat as the helpers do)."""
    if name == "cycle":
        return WRONG_TYPES | st.sampled_from([0, -1, True, False, "1", "0x1"])
    if name in FLAG_FIELDS:
        return WRONG_TYPES | st.sampled_from([0, 1, "true", "false", "0"])
    limit = 0x100 if name == "data" else 0x10000
    # the two edges, then anything beyond them
    out_of_range = st.sampled_from([-1, limit]) | st.integers(max_value=-1) | st.integers(
        min_value=limit
    )
    return (
        WRONG_TYPES
        | st.booleans()
        | out_of_range
        | out_of_range.map(lambda v: hex(v) if v >= 0 else f"-{hex(-v)}")
        | BAD_STRINGS
    )


@st.composite
def corrupted_rows(draw):
    """Valid rows with one thing wrong in one of them."""
    rows = draw(valid_rows(draw(st.integers(1, 6))))
    i = draw(st.integers(0, len(rows) - 1))
    row = rows[i]
    how = draw(st.sampled_from(["field", "field", "field", "both_ops", "unknown_key",
                                "no_cycle", "repeat_cycle", "not_an_object"]))
    if how == "field":
        name = draw(st.sampled_from(FIELDS))
        row[name] = draw(bad_values(name))
    elif how == "both_ops":
        row["ren"] = row["wen"] = True
    elif how == "unknown_key":
        row[draw(st.text(max_size=5).filter(lambda k: k not in FIELDS))] = draw(
            st.integers(0, 3) | st.booleans()
        )
    elif how == "no_cycle":
        del row["cycle"]
    elif how == "repeat_cycle":
        row["cycle"] = draw(st.integers(-2, rows[i - 1]["cycle"] if i else 0))
    else:
        rows[i] = draw(WRONG_TYPES | st.integers() | st.booleans() | st.text(max_size=3))
    return rows


@given(rows=st.integers(0, 8).flatmap(valid_rows))
@settings(max_examples=300, deadline=None)
def test_fast_path_builds_the_reference_trace_from_clean_rows(rows):
    assert parse_trace(rows) == reference_trace(json.loads(json.dumps(rows)))


@given(rows=corrupted_rows())
@settings(max_examples=1500, deadline=None)
def test_fast_path_fails_or_accepts_as_the_per_field_helpers_do(rows):
    expected = outcome(reference_trace, json.loads(json.dumps(rows)))
    assert outcome(parse_trace, rows) == expected


@given(rows=st.integers(0, 8).flatmap(valid_rows))
@settings(max_examples=300, deadline=None)
def test_second_decode_builds_the_trace_the_first_does(rows):
    # the shadowed first "trace" holds a row the hook takes, so the columns are
    # not the trace and the text is decoded again without the hook
    text = '{"trace": [{"cycle": 1}], "trace": ' + json.dumps(rows) + "}"
    assert list(parse_scenario(text).trace) == parse_trace(rows)


EDGE_VALUES = [None, 1.5, [], {}, True, False, -1, "", "zz", "-0x1", "0x_"]
EDGE_CORRUPTIONS = [
    *((name, value) for name in ADDR_FIELDS for value in [*EDGE_VALUES, 0x10000, "0x10000"]),
    *(("data", value) for value in [*EDGE_VALUES, 0x100, "0x100", "256"]),
    *((name, value) for name in FLAG_FIELDS for value in [None, 0, 1, "true", []]),
    *(("cycle", value) for value in [None, 0, -1, True, "2", 2.0, 1, 3]),
    ("wen", True),  # next to "ren": true
    ("bogus", 1),
]


@pytest.mark.parametrize("name,value", EDGE_CORRUPTIONS, ids=repr)
def test_fast_path_fails_at_every_edge_as_the_per_field_helpers_do(name, value):
    rows = [
        {"cycle": 1, "pc": "0x4000"},
        {"cycle": 2, "pc": "0x4000", "ren": True, "daddr": "0x4100", "data": "0x7F"},
        {"cycle": 3, "pc": 16384, "wen": True, "dma_en": True, "dma_addr": 16385},
    ]
    rows[1][name] = value
    expected = outcome(reference_trace, json.loads(json.dumps(rows)))
    assert isinstance(expected, tuple)
    assert outcome(parse_trace, rows) == expected


@pytest.mark.parametrize("row", [None, 1, "x", [], [{"cycle": 2}]], ids=repr)
def test_fast_path_rejects_a_row_that_is_not_an_object(row):
    with pytest.raises(ScenarioSemanticError, match=r"^trace\[1\]: expected an object$"):
        parse_trace([{"cycle": 1}, row])


def test_rows_go_into_the_columns_as_they_decode():
    # a decoded row's dict is dropped as soon as the row is in the columns, so
    # parsing peaks near what the columns keep (about 45 B a row: the label's
    # int, its list slot, two bytes per address and one each for data and
    # flags), not near the loaded rows (about 350 B a row)
    rows = []
    for i in range(5000):
        row = {"cycle": 2 * i + 1, "pc": f"0x{0x4000 + i % 256:04X}"}
        if i % 3 == 0:
            row.update(ren=True, daddr=f"0x{0x4100 + i % 512:04X}")
        elif i % 3 == 1:
            row.update(wen=True, dma_en=True, dma_addr=0x4200 + i % 64, data=f"0x{i % 256:02X}")
        rows.append(row)
    text = json.dumps({"trace": rows})
    del rows
    gc.collect()
    tracemalloc.start()
    try:
        trace = parse_scenario(text).trace
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) == 5000
    assert peak <= 96 * 5000, f"{peak / 5000:.0f} B per row"


# -- the slotted event types ----------------------------------------------------


def parsed_step():
    text = '{"trace": [{"cycle": 3, "pc": "0x4000", "ren": true, "daddr": 16640, "data": "0x7F"}]}'
    return parse_scenario(text).trace[0]


def test_parsed_steps_and_events_are_frozen_and_slotted():
    step = parsed_step()
    for obj, name in ((step, "cycle"), (step, "data"), (step.event, "pc"), (step.event, "wen")):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 1)


def test_parsed_steps_compare_and_hash_by_value():
    step = parsed_step()
    same = TraceStep(cycle=3, event=AccessEvent(pc=0x4000, ren=True, daddr=0x4100), data=0x7F)
    assert step == same and hash(step) == hash(same)
    assert step.event == same.event and hash(step.event) == hash(same.event)
    assert step != dataclasses.replace(same, data=0x7E)
    assert step.event != AccessEvent(pc=0x4000, ren=True, daddr=0x4101)
    assert len({step, same, parsed_step()}) == 1


def test_parsed_steps_replace_copy_and_pickle():
    step = parsed_step()
    moved = dataclasses.replace(step.event, pc=0x4001)
    assert moved == AccessEvent(pc=0x4001, ren=True, daddr=0x4100)
    assert dataclasses.replace(step, cycle=4).event is step.event
    with pytest.raises(ValueError, match="ren and wen"):
        dataclasses.replace(step.event, wen=True)
    assert copy.deepcopy(step) == step
    assert copy.copy(step.event) == step.event
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(step, protocol)) == step


def test_direct_event_construction_keeps_its_checks():
    with pytest.raises(ValueError, match="ren and wen cannot both be set"):
        AccessEvent(ren=True, wen=True)
    with pytest.raises(ValueError, match=r"pc=0x10000 outside 16-bit space"):
        AccessEvent(pc=0x10000)
    with pytest.raises(ValueError, match=r"dma_addr=-0x1 outside 16-bit space"):
        AccessEvent(dma_addr=-1)


# -- inputs that used to escape as tracebacks ------------------------------------


@pytest.mark.parametrize(
    "text",
    ["[" * 200000, '{"trace": ' + "[" * 200000, '{"a": ' * 200000],
    ids=["arrays", "arrays_under_trace", "objects"],
)
def test_deeply_nested_json_is_a_syntax_error(text):
    with pytest.raises(ScenarioSyntaxError, match="nesting too deep"):
        parse_scenario(text)


def test_a_document_at_the_nesting_limit_reads_as_plain_decoding_reads_it():
    # the row reader's frame takes a document at the limit past it, so such a
    # document is decoded again without the reader
    def nested(depth):
        return '{"name": ' + '{"a": ' * depth + "1" + "}" * depth + "}"

    def decodes(text):  # json.loads one frame below this test, as parse_scenario calls it
        try:
            json.loads(text)
        except RecursionError:
            return False
        return True

    depth = 1
    while decodes(nested(depth + 1)):
        depth += 1
    with pytest.raises(ScenarioSemanticError, match=r"^name: expected a string$"):
        parse_scenario(nested(depth))
    with pytest.raises(ScenarioSyntaxError, match=r"^JSON nesting too deep$"):
        parse_scenario(nested(depth + 1))


def test_integer_past_the_digit_limit_is_a_syntax_error():
    with pytest.raises(ScenarioSyntaxError, match="integer has too many digits"):
        parse_scenario('{"trace": [{"cycle": ' + "1" * 5000 + "}]}")
