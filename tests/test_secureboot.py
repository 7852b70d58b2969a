"""Boot-time verification and onboard recovery."""

import hashlib
import hmac as stdlib_hmac
import random

from rares_sim.detector import DETECT_MASK, RESET_MASK
from rares_sim.memory import RegionKind
from rares_sim.secureboot import BootOutcome, fsbl_boot, reflash, verify_flash


def stdlib_digest(key, message):
    return stdlib_hmac.new(key, message, hashlib.sha256).digest()


def test_verify_flash_agrees_with_stdlib(make_state):
    image = bytes(range(256)) * 8
    state = make_state(image=image)
    ok, digest = verify_flash(state)
    assert ok
    assert digest == stdlib_digest(state.key(), image)


def test_clean_boot(make_state):
    state = make_state(image=b"\x5a" * 0x800)
    report = fsbl_boot(state)
    assert report.outcome is BootOutcome.VERIFIED_CLEAN
    assert report.attempts == 1
    assert report.digests[0][0] == report.digests[0][1]
    assert not state.cpu_halted


def test_tampered_flash_is_recovered(make_state):
    image = bytes(range(256)) * 8
    tampered = bytearray(image)
    tampered[0x123] ^= 0x40
    state = make_state(image=image, flash=bytes(tampered))
    report = fsbl_boot(state)
    assert report.outcome is BootOutcome.RECOVERED_THEN_VERIFIED
    assert report.attempts == 2
    assert state.flash_bytes() == image
    # first attempt mismatched, second matched
    assert report.digests[0][0] != report.digests[0][1]
    assert report.digests[1][0] == report.digests[1][1]


def test_unrecoverable_when_golden_cannot_verify(make_state):
    # reference digest matches neither the tampered flash nor the golden copy
    state = make_state(image=b"\x11" * 0x800, reference=b"\xee" * 32)
    report = fsbl_boot(state)
    assert report.outcome is BootOutcome.UNRECOVERABLE
    assert state.cpu_halted  # the device never enters normal operation


def test_reflash_restores_and_clears(make_state):
    image = b"\xa5" * 0x800
    state = make_state(image=image, flash=b"\xff" * 0x800)
    state.ctrl.latch(DETECT_MASK | RESET_MASK)
    state.cpu_halted = True
    state.recovery_queued = True
    reflash(state)
    assert state.flash_bytes() == image
    assert state.ctrl.value == RESET_MASK  # detection bits gone, reset flag kept
    assert not state.cpu_halted
    assert not state.recovery_queued  # the chip-enable gate is lowered with it


def test_reflash_is_idempotent(make_state):
    state = make_state(image=b"\x33" * 0x800)
    reflash(state)
    first = state.region_digests()
    reflash(state)
    assert state.region_digests() == first


def test_reflash_bypasses_the_write_gate(make_state):
    # recovery rewrites flash even while the chip-enable gate is raised
    state = make_state(image=b"\x77" * 0x800, flash=b"\x00" * 0x800)
    state.recovery_queued = True
    reflash(state)
    assert state.flash_bytes() == b"\x77" * 0x800


def test_every_single_bit_flip_is_caught_and_recovered(make_state):
    rng = random.Random(0xB007)
    image = bytes(rng.randrange(256) for _ in range(0x800))
    for _ in range(25):
        tampered = bytearray(image)
        bit = rng.randrange(len(image) * 8)
        tampered[bit // 8] ^= 1 << (bit % 8)
        state = make_state(image=image, flash=bytes(tampered))
        report = fsbl_boot(state)
        assert report.outcome is BootOutcome.RECOVERED_THEN_VERIFIED
        assert state.flash_bytes() == image


def test_recovery_rom_itself_is_untouched_by_boot(make_state):
    image = b"\x42" * 0x800
    state = make_state(image=image, flash=b"\x00" * 0x800)
    before = bytes(state.mem[RegionKind.RECOVERY_ROM])
    fsbl_boot(state)
    assert bytes(state.mem[RegionKind.RECOVERY_ROM]) == before
