"""Attestation primitive, challenge/response protocol, and proof of execution.

The device key is the 32-byte key-ROM content; it authenticates reports but
never appears in one.

Tag input encoding (bit-exact, so tags are reproducible across
implementations):

    nonce(32) || er_min(2 BE) || er_max(2 BE) || exec_flag(1: 0x00/0x01)
             || attested region bytes

er_min/er_max are the proof-of-execution window bounds carried in the clear
by the report; the attested region is chosen by the request and bound into
the tag through its contents.

Framed exchange (prover/verifier over any byte stream; in-process loopback
is the default): each message is a 4-byte big-endian length prefix followed
by the payload.  Payload byte 0 is the type, 0x01 request / 0x02 report;
remaining fields follow the encoding order above:

    request: 0x01 || nonce(32) || region_start(2 BE) || region_end(2 BE)
    report:  0x02 || er_min(2 BE) || er_max(2 BE) || exec_flag(1) || tag(32)

Each layout is one `struct.Struct` constant below.  A length prefix above
38, the report's size, is refused unread.
"""

from __future__ import annotations

import hmac
import struct
from dataclasses import dataclass
from typing import BinaryIO

from .memory import ADDR_MASK, DIGEST_SIZE, DeviceState, MemoryLayout, RegionKind, addr_text

NONCE_SIZE = 32

MSG_REQUEST = 0x01
MSG_REPORT = 0x02
# The layouts of the module docstring, each stated once: the two messages,
# the tag input's window header, and the frame's length prefix.
_REQUEST = struct.Struct(">B32sHH")
_REPORT = struct.Struct(">BHHB32s")
_WINDOW = struct.Struct(">HHB")
_LENGTH = struct.Struct(">I")
# The longest payload either side sends: a report (the request is 37 bytes).
MAX_PAYLOAD = _REPORT.size


class BadBoundsError(ValueError):
    """Region or window bounds outside the permitted area."""


class FrameError(ValueError):
    """Malformed frame or message payload."""


def hmac_sha256(key: bytes, msg: bytes) -> bytes:
    """RFC 2104 HMAC over SHA-256: the one keyed digest of boot checks and
    attestation tags (stdlib ``hmac``)."""
    return hmac.digest(key, msg, "sha256")


# -- proof of execution ------------------------------------------------


def check_window(layout: MemoryLayout, er_min: int, er_max: int) -> None:
    """Raise BadBoundsError unless [er_min, er_max] lies inside app RAM."""
    app = layout.region(RegionKind.APP_RAM)
    if not (app.start <= er_min <= er_max <= app.end):
        raise BadBoundsError(
            f"window 0x{er_min:04X}-0x{er_max:04X} outside app RAM "
            f"0x{app.start:04X}-0x{app.end:04X}"
        )


def pox_begin(state: DeviceState, er_min: int, er_max: int) -> None:
    """Arm an execution window over [er_min, er_max] inside app RAM.

    Re-arming replaces any window in progress.  The exec flag keeps its last
    finalized value until this window breaches or completes.
    """
    check_window(state.layout, er_min, er_max)
    em = state.exec_meta
    em.er_min = er_min
    em.er_max = er_max
    em.armed = True
    em.window_clean = True


def pox_observe(state: DeviceState, pc: int, irq: int, mask: int) -> None:
    """Watch one cycle of an armed window: its program counter, its
    interrupt line (nonzero when raised) and its matched detection bits.

    Any violation, any interrupt, or any program-counter excursion outside
    the window bounds breaches it: the exec flag drops immediately and stays
    false for the rest of this window.
    """
    em = state.exec_meta
    if not em.armed:
        return
    if mask or irq or not em.er_min <= pc <= em.er_max:
        em.window_clean = False
        em.exec_flag = False


def pox_end(state: DeviceState) -> None:
    """Close the window; the exec flag becomes the window's verdict.

    Also renders the metadata view, so ``state.mem`` holds the closed
    window's header for readers that bypass the read accessors.
    """
    em = state.exec_meta
    if not em.armed:
        return
    em.exec_flag = em.window_clean
    em.armed = False
    state.sync_metadata()


def pox_abort(state: DeviceState) -> None:
    """System reset path: destroy any window and invalidate the proof."""
    em = state.exec_meta
    em.armed = False
    em.window_clean = False
    em.exec_flag = False


# -- challenge / response ----------------------------------------------


@dataclass(frozen=True)
class AttestRequest:
    nonce: bytes
    region_start: int
    region_end: int

    def __post_init__(self):
        if len(self.nonce) != NONCE_SIZE:
            raise ValueError(f"nonce must be {NONCE_SIZE} bytes, got {len(self.nonce)}")
        if not (0 <= self.region_start <= ADDR_MASK and 0 <= self.region_end <= ADDR_MASK):
            raise ValueError(
                f"region {addr_text(self.region_start)}-{addr_text(self.region_end)} "
                "does not fit 16 bits"
            )


@dataclass(frozen=True)
class AttestReport:
    exec_flag: bool
    er_min: int
    er_max: int
    tag: bytes

    def __post_init__(self):
        if len(self.tag) != DIGEST_SIZE:
            raise ValueError(f"tag must be {DIGEST_SIZE} bytes, got {len(self.tag)}")
        if not (0 <= self.er_min <= ADDR_MASK and 0 <= self.er_max <= ADDR_MASK):
            raise ValueError(
                f"window {addr_text(self.er_min)}-{addr_text(self.er_max)} does not fit 16 bits"
            )


def _tag(
    key: bytes, nonce: bytes, er_min: int, er_max: int, exec_flag: bool, region_bytes: bytes
) -> bytes:
    """The keyed digest of the tag input of the module docstring."""
    window = _WINDOW.pack(er_min, er_max, exec_flag)
    return hmac_sha256(key, nonce + window + region_bytes)


def attest(state: DeviceState, req: AttestRequest) -> AttestReport:
    """Answer a nonce challenge over the requested region.

    The request bounds must lie within one mapped region; BadBoundsError
    otherwise.  Deterministic for a fixed state and nonce.
    """
    try:
        region = state.region_bytes(req.region_start, req.region_end)
    except ValueError as exc:
        raise BadBoundsError(str(exc)) from None
    em = state.exec_meta
    tag = _tag(state.key(), req.nonce, em.er_min, em.er_max, em.exec_flag, region)
    return AttestReport(exec_flag=em.exec_flag, er_min=em.er_min, er_max=em.er_max, tag=tag)


def verify_report(
    key: bytes,
    req: AttestRequest,
    report: AttestReport,
    expected_region_bytes: bytes,
    require_exec: bool = False,
) -> bool:
    """Verifier-side check against the memory the verifier expects.

    Recomputes the tag (constant-time compare); with require_exec the report
    must additionally carry a true exec flag.
    """
    expected_tag = _tag(
        key, req.nonce, report.er_min, report.er_max, report.exec_flag, expected_region_bytes
    )
    ok = hmac.compare_digest(expected_tag, report.tag)
    if require_exec:
        ok = ok and report.exec_flag
    return ok


# -- wire framing -------------------------------------------------------


def encode_request(req: AttestRequest) -> bytes:
    return _REQUEST.pack(MSG_REQUEST, req.nonce, req.region_start, req.region_end)


def decode_request(payload: bytes) -> AttestRequest:
    if len(payload) != _REQUEST.size or payload[0] != MSG_REQUEST:
        raise FrameError("malformed request payload")
    _, nonce, start, end = _REQUEST.unpack(payload)
    return AttestRequest(nonce=nonce, region_start=start, region_end=end)


def encode_report(report: AttestReport) -> bytes:
    return _REPORT.pack(MSG_REPORT, report.er_min, report.er_max, report.exec_flag, report.tag)


def decode_report(payload: bytes) -> AttestReport:
    if len(payload) != _REPORT.size or payload[0] != MSG_REPORT:
        raise FrameError("malformed report payload")
    _, er_min, er_max, flag, tag = _REPORT.unpack(payload)
    if flag not in (0x00, 0x01):
        raise FrameError("exec flag byte must be 0x00 or 0x01")
    return AttestReport(exec_flag=flag == 0x01, er_min=er_min, er_max=er_max, tag=tag)


def write_frame(stream: BinaryIO, payload: bytes) -> None:
    stream.write(_LENGTH.pack(len(payload)) + payload)


def read_frame(stream: BinaryIO) -> bytes:
    """One payload; a length prefix above `MAX_PAYLOAD` is refused before
    anything is read or allocated for it."""
    header = stream.read(_LENGTH.size)
    if len(header) != _LENGTH.size:
        raise FrameError("truncated length prefix")
    (length,) = _LENGTH.unpack(header)
    if length > MAX_PAYLOAD:
        raise FrameError(f"frame length {length} exceeds the {MAX_PAYLOAD}-byte maximum")
    payload = stream.read(length)
    if len(payload) != length:
        raise FrameError("truncated payload")
    return payload


def serve_request(state: DeviceState, payload: bytes) -> bytes:
    """Prover loopback: decode a request payload, answer it, encode the report."""
    req = decode_request(payload)
    return encode_report(attest(state, req))
