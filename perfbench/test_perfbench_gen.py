"""Tests of the benchmark itself: seeded inputs, the designed event mix, and
agreement between the metrics it prints and BENCHMARK.json."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_gen  # noqa: E402
import bench_trace  # noqa: E402
import run  # noqa: E402

TEXTS = {
    "long_trace": bench_gen.long_trace,
    "recovery_storm": bench_gen.recovery_storm,
    "attest_exchange": lambda seed: bench_gen.attest_exchange(seed).text,
}


@pytest.mark.parametrize("workload", sorted(TEXTS))
def test_one_seed_gives_identical_text_two_seeds_differ(workload):
    generate = TEXTS[workload]
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def test_attest_challenges_follow_the_seed():
    a, b, c = (bench_gen.attest_exchange(s) for s in (3, 3, 4))
    assert (a.key, a.challenges) == (b.key, b.challenges)
    assert a.challenges != c.challenges
    assert sum(ch.tampered for ch in a.challenges) == bench_gen.CHALLENGES // 8
    assert {ch.end - ch.start + 1 for ch in a.challenges} == {
        *bench_gen.APP_SIZES, bench_gen.FLASH_SIZE
    }


def test_suite_order_follows_the_seed():
    items = [(str(i), []) for i in range(20)]
    first = [next(bench_gen.suite_order(5, items)) for _ in range(2)]
    assert first[0] == first[1]
    assert next(bench_gen.suite_order(6, items)) != first[0]


def _matching_events(text):
    pytest.importorskip("rares_sim")
    from rares_sim import build_layout, classify_trace_naive

    layout = build_layout()
    return sum(bool(classify_trace_naive(layout, [e])) for e in run.decode_events(text))


def test_storm_violates_on_exactly_a_third_of_cycles():
    assert _matching_events(bench_gen.recovery_storm(1)) == bench_gen.STORM_HOSTILE


def test_long_trace_benign_events_never_match():
    assert 0 < _matching_events(bench_gen.long_trace(1)) <= bench_gen.LONG_TRACE_HOSTILE


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed = [*bench_trace.layer_metrics(bench_trace.Tracer()), *run.TRACE_EXTRAS]
    assert per_layer == {name: run.layer_unit(name) for name in printed}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
