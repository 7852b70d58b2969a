import pathlib

import pytest

from rares_sim.attestation import hmac_sha256
from rares_sim.memory import DeviceState, GoldenImage, RegionKind, build_layout

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

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


def scenario_paths():
    return sorted(SCENARIO_DIR.glob("*.rares.json"))
