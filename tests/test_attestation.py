"""Keyed digest, proof-of-execution windows, reports, and wire framing."""

import hashlib
import hmac
import io
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rares_sim.attestation import (
    AttestReport,
    AttestRequest,
    BadBoundsError,
    FrameError,
    attest,
    decode_report,
    decode_request,
    encode_report,
    encode_request,
    hmac_sha256,
    pox_abort,
    pox_begin,
    pox_end,
    pox_observe,
    read_frame,
    serve_request,
    verify_report,
    write_frame,
)
from rares_sim.detector import AccessEvent, ViolationKind, step
from rares_sim.memory import RegionKind

NONCE = bytes.fromhex("00112233445566778899aabbccddeeff" * 2)

# Published test vectors for the keyed digest (key, message, tag).
KNOWN_TAGS = [
    (
        b"\x0b" * 20,
        b"Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
    ),
    (
        b"Jefe",
        b"what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
    ),
    (
        b"\xaa" * 20,
        b"\xdd" * 50,
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
    ),
    (
        bytes(range(1, 26)),
        b"\xcd" * 50,
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
    ),
    (
        b"\xaa" * 131,
        b"Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
    ),
    (
        b"\xaa" * 131,
        b"This is a test using a larger than block-size key and a larger "
        b"than block-size data. The key needs to be hashed before being used by "
        b"the HMAC algorithm.",
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
    ),
]


@pytest.mark.parametrize("key,msg,expected", KNOWN_TAGS, ids=range(len(KNOWN_TAGS)))
def test_keyed_digest_known_answers(key, msg, expected):
    assert hmac_sha256(key, msg).hex() == expected


def rfc2104_hmac_sha256(key: bytes, msg: bytes) -> bytes:
    """HMAC-SHA256 built from the hash alone (RFC 2104), independent of `hmac`."""
    block = 64
    if len(key) > block:
        key = hashlib.sha256(key).digest()
    key = key.ljust(block, b"\x00")
    inner = hashlib.sha256(bytes(b ^ 0x36 for b in key) + msg).digest()
    return hashlib.sha256(bytes(b ^ 0x5C for b in key) + inner).digest()


# keys on both sides of the 64-byte block, so the hash-the-key branch runs too
@given(
    key=st.binary(max_size=64) | st.binary(min_size=65, max_size=160),
    msg=st.binary(max_size=300),
)
@settings(max_examples=300)
def test_keyed_digest_matches_rfc2104_construction(key, msg):
    assert hmac_sha256(key, msg) == rfc2104_hmac_sha256(key, msg)


# -- proof of execution -----------------------------------------------------


def run_window(state, events, er_min=0x4000, er_max=0x40FF):
    pox_begin(state, er_min, er_max)
    for event in events:
        step(state, event)
    pox_end(state)
    return state.exec_meta.exec_flag


def test_clean_window_yields_true(state):
    assert run_window(state, [AccessEvent(pc=0x4000 + i) for i in range(8)]) is True


def test_pc_excursion_breaches(state):
    events = [AccessEvent(pc=0x4000), AccessEvent(pc=0x4100), AccessEvent(pc=0x4001)]
    assert run_window(state, events) is False


def test_interrupt_breaches_even_without_violation(state):
    # an interrupt inside the window from a non-guarded pc is no rule match,
    # but it still destroys execution linearity
    events = [AccessEvent(pc=0x4000), AccessEvent(pc=0x4001, irq=True)]
    assert run_window(state, events) is False


def test_violation_breaches(state):
    events = [AccessEvent(pc=0x4000, ren=True, dma_en=True, dma_addr=0x6A00)]
    assert run_window(state, events) is False


def test_breach_drops_flag_immediately(state):
    pox_begin(state, 0x4000, 0x40FF)
    step(state, AccessEvent(pc=0x4000))
    step(state, AccessEvent(pc=0x5000))  # excursion
    assert state.exec_meta.exec_flag is False
    assert state.exec_meta.window_clean is False
    # and it cannot come back within the same window
    step(state, AccessEvent(pc=0x4000))
    pox_end(state)
    assert state.exec_meta.exec_flag is False


def test_window_bounds_must_sit_in_app_ram(state):
    with pytest.raises(BadBoundsError):
        pox_begin(state, 0x3FF0, 0x4010)
    with pytest.raises(BadBoundsError):
        pox_begin(state, 0x4100, 0x4000)
    with pytest.raises(BadBoundsError):
        pox_begin(state, 0x6000, 0x6010)


def test_flag_keeps_last_verdict_until_next_window_closes(state):
    assert run_window(state, [AccessEvent(pc=0x4000)]) is True
    pox_begin(state, 0x4000, 0x40FF)
    assert state.exec_meta.exec_flag is True  # arming does not reset the verdict
    step(state, AccessEvent(pc=0x5000))
    assert state.exec_meta.exec_flag is False  # breach does, immediately


def test_abort_kills_window_and_proof(state):
    run_window(state, [AccessEvent(pc=0x4000)])
    pox_begin(state, 0x4000, 0x40FF)
    pox_abort(state)
    assert state.exec_meta.exec_flag is False
    assert state.exec_meta.armed is False
    pox_end(state)  # closing a dead window changes nothing
    assert state.exec_meta.exec_flag is False


def test_pox_end_leaves_the_metadata_view_rendered_in_memory(state):
    # readers of state.mem after a closed window (the benchmark's oracle)
    # rely on pox_end rendering the header; no read accessor runs here
    step(state, AccessEvent(pc=0x4000, ren=True, daddr=0x6A00))  # latches D9
    run_window(state, [AccessEvent(pc=0x4000)])
    meta = state.layout.region(RegionKind.METADATA)
    direct = bytes(state.mem[RegionKind.METADATA])
    assert direct == state.region_bytes(meta.start, meta.end)
    assert direct[:2] == b"\x00\x02" and direct[38] == 1


def test_observer_is_inert_when_disarmed(state):
    step(state, AccessEvent(pc=0xE000))
    assert state.exec_meta.exec_flag is False
    assert state.exec_meta.armed is False


# -- challenge / response -----------------------------------------------------


def test_report_is_deterministic(state):
    req = AttestRequest(nonce=NONCE, region_start=0x4000, region_end=0x40FF)
    assert attest(state, req) == attest(state, req)


def test_nonce_binds_the_tag(state):
    req1 = AttestRequest(nonce=NONCE, region_start=0x4000, region_end=0x40FF)
    req2 = AttestRequest(nonce=bytes(32), region_start=0x4000, region_end=0x40FF)
    assert attest(state, req1).tag != attest(state, req2).tag


def test_memory_contents_bind_the_tag(make_state):
    req = AttestRequest(nonce=NONCE, region_start=0x4000, region_end=0x40FF)
    clean = attest(make_state(), req)
    touched = make_state()
    touched.mem[touched.layout.classify(0x4080)][0x80] ^= 0x01
    assert attest(touched, req).tag != clean.tag


def test_exec_flag_binds_the_tag(make_state):
    req = AttestRequest(nonce=NONCE, region_start=0x4000, region_end=0x40FF)
    a = make_state()
    b = make_state()
    pox_begin(b, 0x4000, 0x40FF)
    pox_end(b)
    assert b.exec_meta.exec_flag and not a.exec_meta.exec_flag
    assert attest(a, req).tag != attest(b, req).tag


def test_report_carries_window_bounds_not_request_bounds(state):
    pox_begin(state, 0x4100, 0x41FF)
    pox_end(state)
    req = AttestRequest(nonce=NONCE, region_start=0x4000, region_end=0x40FF)
    report = attest(state, req)
    assert (report.er_min, report.er_max) == (0x4100, 0x41FF)


def test_bad_request_bounds(state):
    with pytest.raises(BadBoundsError):
        attest(state, AttestRequest(nonce=NONCE, region_start=0x5FF0, region_end=0x6010))


def test_nonce_length_enforced():
    with pytest.raises(ValueError):
        AttestRequest(nonce=b"short", region_start=0x4000, region_end=0x40FF)


def test_verifier_round_trip(state):
    req = AttestRequest(nonce=NONCE, region_start=0x4000, region_end=0x40FF)
    report = attest(state, req)
    expected = state.region_bytes(0x4000, 0x40FF)
    assert verify_report(state.key(), req, report, expected)
    assert not verify_report(state.key(), req, report, b"\x01" + expected[1:])
    assert not verify_report(bytes(32), req, report, expected)  # wrong key


def test_require_exec(state):
    req = AttestRequest(nonce=NONCE, region_start=0x4000, region_end=0x40FF)
    report = attest(state, req)
    expected = state.region_bytes(0x4000, 0x40FF)
    assert verify_report(state.key(), req, report, expected, require_exec=False)
    assert not verify_report(state.key(), req, report, expected, require_exec=True)
    pox_begin(state, 0x4000, 0x40FF)
    pox_end(state)
    report = attest(state, req)
    assert verify_report(state.key(), req, report, expected, require_exec=True)


# -- wire framing --------------------------------------------------------------


@given(
    nonce=st.binary(min_size=32, max_size=32),
    start=st.integers(0, 0xFFFF),
    end=st.integers(0, 0xFFFF),
)
def test_request_codec_round_trip(nonce, start, end):
    req = AttestRequest(nonce=nonce, region_start=start, region_end=end)
    assert decode_request(encode_request(req)) == req


@given(
    exec_flag=st.booleans(),
    er_min=st.integers(0, 0xFFFF),
    er_max=st.integers(0, 0xFFFF),
    tag=st.binary(min_size=32, max_size=32),
)
def test_report_codec_round_trip(exec_flag, er_min, er_max, tag):
    report = AttestReport(exec_flag=exec_flag, er_min=er_min, er_max=er_max, tag=tag)
    assert decode_report(encode_report(report)) == report


@pytest.mark.parametrize("size", [31, 33])
def test_report_tag_must_be_32_bytes(size):
    with pytest.raises(ValueError, match=f"tag must be 32 bytes, got {size}"):
        AttestReport(exec_flag=True, er_min=0, er_max=1, tag=bytes(range(size)))
    report = AttestReport(exec_flag=True, er_min=0, er_max=1, tag=bytes(range(32)))
    assert decode_report(encode_report(report)) == report


def test_report_window_must_fit_16_bits(state):
    # the tag binds the window as two 16-bit fields, so a report carrying
    # 0x14000-0x140FF with the genuine tag of 0x4000-0x40FF is refused at
    # construction, before a verifier could accept it
    pox_begin(state, 0x4000, 0x40FF)
    pox_end(state)
    genuine = attest(state, AttestRequest(nonce=NONCE, region_start=0x4000, region_end=0x40FF))
    with pytest.raises(ValueError, match="does not fit 16 bits"):
        AttestReport(genuine.exec_flag, 0x14000, 0x140FF, genuine.tag)
    with pytest.raises(ValueError, match="does not fit 16 bits"):
        AttestReport(exec_flag=True, er_min=-1, er_max=1, tag=bytes(32))
    widest = AttestReport(exec_flag=True, er_min=0, er_max=0xFFFF, tag=bytes(32))
    assert decode_report(encode_report(widest)) == widest


def test_decode_rejects_wrong_type_or_length():
    good = encode_request(AttestRequest(nonce=NONCE, region_start=0, region_end=1))
    with pytest.raises(FrameError):
        decode_request(b"\x02" + good[1:])
    with pytest.raises(FrameError):
        decode_request(good[:-1])
    report = encode_report(AttestReport(True, 0, 1, bytes(32)))
    with pytest.raises(FrameError):
        decode_report(report[:-1])
    bad_flag = bytearray(report)
    bad_flag[5] = 0x02
    with pytest.raises(FrameError):
        decode_report(bytes(bad_flag))


def test_frame_round_trip():
    stream = io.BytesIO()
    write_frame(stream, b"hello")
    write_frame(stream, b"")
    stream.seek(0)
    assert read_frame(stream) == b"hello"
    assert read_frame(stream) == b""


def test_truncated_frames_raise():
    with pytest.raises(FrameError):
        read_frame(io.BytesIO(b"\x00\x00"))
    with pytest.raises(FrameError):
        read_frame(io.BytesIO(b"\x00\x00\x00\x05abc"))


def test_largest_message_fits_a_frame():
    report = AttestReport(exec_flag=True, er_min=0x4000, er_max=0x40FF, tag=bytes(32))
    stream = io.BytesIO()
    write_frame(stream, encode_report(report))
    stream.seek(0)
    assert decode_report(read_frame(stream)) == report


@pytest.mark.parametrize("length", [39, 16 << 20], ids=["report+1", "16MiB"])
def test_oversized_length_prefix_is_refused_before_reading(length):
    # a 37-byte request behind a prefix longer than the largest message (the
    # 38-byte report): refused without reading or allocating the claimed size
    request = encode_request(AttestRequest(nonce=NONCE, region_start=0x4000, region_end=0x40FF))
    stream = io.BufferedReader(io.BytesIO(struct.pack(">I", length) + request))
    tracemalloc.start()
    try:
        with pytest.raises(FrameError, match="exceeds the 38-byte maximum"):
            read_frame(stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# One request and its report, byte by byte from the README's "Wire format":
# a type byte, then big-endian fields; each frame a 4-byte big-endian length
# and the payload.
KAT_REQUEST = "01" + "00112233445566778899aabbccddeeff" * 2 + "4000" "4003"
KAT_TAG_INPUT = "00112233445566778899aabbccddeeff" * 2 + "4100" "41ff" "01" "deadbeef"


def test_wire_bytes_and_tag_known_answer(state):
    state.mem[RegionKind.APP_RAM][:4] = bytes.fromhex("deadbeef")
    pox_begin(state, 0x4100, 0x41FF)
    pox_end(state)
    req = AttestRequest(nonce=NONCE, region_start=0x4000, region_end=0x4003)
    report = attest(state, req)
    tag = hmac.new(bytes(range(32)), bytes.fromhex(KAT_TAG_INPUT), "sha256").digest()
    assert report.tag == tag
    kat_report = "02" "4100" "41ff" "01" + tag.hex()
    assert encode_request(req).hex() == KAT_REQUEST
    assert encode_report(report).hex() == kat_report
    assert decode_request(bytes.fromhex(KAT_REQUEST)) == req
    assert decode_report(bytes.fromhex(kat_report)) == report
    stream = io.BytesIO()
    write_frame(stream, encode_request(req))
    write_frame(stream, encode_report(report))
    assert stream.getvalue().hex() == "00000025" + KAT_REQUEST + "00000026" + kat_report
    assert verify_report(bytes(range(32)), req, report, bytes.fromhex("deadbeef"))


def test_served_exchange_matches_direct_call(state):
    req = AttestRequest(nonce=NONCE, region_start=0x4000, region_end=0x40FF)
    wire = io.BytesIO()
    write_frame(wire, encode_request(req))
    wire.seek(0)
    answer = serve_request(state, read_frame(wire))
    assert decode_report(answer) == attest(state, req)


def test_key_never_appears_on_the_wire(make_state):
    key = bytes.fromhex("7f") * 32
    state = make_state(key=key)
    req = AttestRequest(nonce=NONCE, region_start=0x4000, region_end=0x40FF)
    frame = encode_report(attest(state, req))
    assert key not in frame
    assert key[:8] not in frame
