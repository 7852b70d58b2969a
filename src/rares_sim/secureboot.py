"""First-stage boot flow: verify the flash image, recover onboard if it fails.

Verification authenticates the flash region bytes (ascending address order,
no length prefix) against the provisioned reference digest.  On failure the
flash is rewritten from the recovery-ROM golden image and verified once
more; a second failure is unrecoverable and the device never enters normal
operation.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass, field
from enum import Enum

from .attestation import hmac_sha256
from .memory import DeviceState, RegionKind


class BootOutcome(Enum):
    VERIFIED_CLEAN = "verified_clean"
    RECOVERED_THEN_VERIFIED = "recovered_then_verified"
    UNRECOVERABLE = "unrecoverable"


@dataclass
class BootReport:
    outcome: BootOutcome
    attempts: int
    digests: list[tuple[bytes, bytes]] = field(default_factory=list)  # (computed, reference)


def verify_flash(state: DeviceState) -> tuple[bool, bytes]:
    """Authenticate flash contents; constant-time digest comparison."""
    digest = hmac_sha256(state.key(), state.flash_bytes())
    return hmac.compare_digest(digest, state.reference_digest), digest


def reflash(state: DeviceState) -> None:
    """Rewrite flash from the golden image and close the resilience cycle.

    Clears detection bits D0-D9, the CPU halt, and `recovery_queued`, which
    lowers the chip-enable gate: a fresh timeline starts after recovery.
    Idempotent on clean flash.
    """
    flash = state.layout.region(RegionKind.FLASH)
    golden = state.mem[RegionKind.RECOVERY_ROM][:flash.size]
    state.mem[RegionKind.FLASH][:] = golden
    state.ctrl.clear_detection_bits()
    state.cpu_halted = False
    state.recovery_queued = False


def fsbl_boot(state: DeviceState) -> BootReport:
    """Power-on verification with a single recovery retry.

    Pass first time: VERIFIED_CLEAN.  Fail, recover, pass: RECOVERED_THEN_
    VERIFIED.  Fail twice: UNRECOVERABLE and the device halts.
    """
    ok, digest = verify_flash(state)
    digests = [(digest, state.reference_digest)]
    if ok:
        return BootReport(BootOutcome.VERIFIED_CLEAN, attempts=1, digests=digests)
    reflash(state)
    ok, digest = verify_flash(state)
    digests.append((digest, state.reference_digest))
    if ok:
        return BootReport(BootOutcome.RECOVERED_THEN_VERIFIED, attempts=2, digests=digests)
    state.cpu_halted = True
    return BootReport(BootOutcome.UNRECOVERABLE, attempts=2, digests=digests)
