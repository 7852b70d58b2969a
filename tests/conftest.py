import importlib.util
import pathlib
import sys

import pytest
from hypothesis import strategies as st

from rares_sim.attestation import hmac_sha256
from rares_sim.memory import DeviceState, GoldenImage, RegionKind, build_layout

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"

DEFAULT_KEY = bytes(range(32))


@pytest.fixture(scope="session")
def layout():
    # immutable after construction, safe to share (also under hypothesis)
    return build_layout()


@pytest.fixture(scope="session")
def make_state(layout):
    """Provisioned-device builder; every call returns a fresh device."""

    def make(key=DEFAULT_KEY, image=None, flash=None, reference=None):
        state = DeviceState(layout)
        flash_size = layout.region(RegionKind.FLASH).size
        if image is None:
            image = bytes(flash_size)
        state.set_region_bytes(RegionKind.KEY_ROM, key)
        if reference is None:
            reference = hmac_sha256(key, image)
        state.provision_golden(GoldenImage(image=image, reference_digest=reference))
        state.set_region_bytes(RegionKind.FLASH, flash if flash is not None else image)
        return state

    return make


@pytest.fixture
def state(make_state):
    return make_state()


@st.composite
def slotted_layouts(draw):
    """Seven regions in shuffled 4 KiB slots anywhere in the address space,
    each at a random offset with a random size."""
    slots = draw(st.permutations(range(16)))
    rows = []
    for kind, slot in zip(RegionKind, slots):
        size = 32 if kind is RegionKind.KEY_ROM else draw(st.integers(2, 0x800))
        start = slot * 0x1000 + draw(st.integers(0, 0x1000 - size))
        rows.append((kind, start, start + size - 1))
    return build_layout(rows)


def scenario_paths():
    return sorted(SCENARIO_DIR.glob("*.rares.json"))


def bench_scenario_text(workload: str, seed: int) -> str:
    """The scenario text `perfbench/bench_gen.py` generates for a trace
    workload and seed (the generator is only read)."""
    module = sys.modules.get("bench_gen")
    if module is None:
        path = ROOT / "perfbench" / "bench_gen.py"
        spec = importlib.util.spec_from_file_location("bench_gen", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules["bench_gen"] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return getattr(module, workload)(seed)
