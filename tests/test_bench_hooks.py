"""The traced benchmark run finds every package name it wraps."""

import importlib.util
import pathlib

import rares_sim
import rares_sim.cli

BENCH_TRACE = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "bench_trace.py"


def test_bench_tracer_installs_and_unwraps_on_the_package():
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    owners = [
        rares_sim.scenario, rares_sim.scenario.RunReport, rares_sim.detector, rares_sim.memory,
        rares_sim.memory.DeviceState, rares_sim.attestation, rares_sim.secureboot, rares_sim.cli,
    ]
    before = [dict(vars(owner)) for owner in owners]
    tracer = bench_trace.Tracer()
    try:
        bench_trace.install(tracer, rares_sim)  # AttributeError if a wrapped name moved
    finally:
        tracer.unwrap()
    assert [dict(vars(owner)) for owner in owners] == before
