import gc
import hashlib
import math
import struct
import weakref
import zlib

import numpy as np
import pytest

from uwqkd.protocol import (
    PAYLOAD_LAYOUTS,
    RECON_KINDS,
    AbortReason,
    AliceSession,
    BobSession,
    Frame,
    FrameChecksumError,
    FrameDecodeError,
    FrameTruncatedError,
    FrameType,
    IncomingFrame,
    Phase,
    Timeout,
    UnknownFrameTypeError,
    decode_frame,
    decode_payload,
    encode_frame,
    encode_payload,
)
from uwqkd.config import ProtocolOptions
from uwqkd.detection import BobView
from uwqkd.source import AliceView
from views import words

DIGEST = hashlib.md5(b"session-under-test").digest()


# ---------------------------------------------------------------------------
# wire format


@pytest.mark.parametrize("frame_type", list(FrameType))
@pytest.mark.parametrize("payload", [b"", b"\x00", b"payload-bytes" * 7])
def test_frame_roundtrip(frame_type, payload):
    frame = Frame(frame_type, sequence=3, payload=payload)
    data = encode_frame(frame)
    back = decode_frame(data)
    assert back == frame
    assert encode_frame(back) == data  # bit-exact re-encode


def test_frame_layout():
    frame = Frame(FrameType.SYNC_HELLO, sequence=0x01020304, payload=b"abc")
    data = encode_frame(frame)
    assert data[0] == 0x01                       # tag
    assert data[1:5] == b"\x01\x02\x03\x04"      # big-endian sequence
    assert data[5:8] == b"\x00\x00\x03"          # 3-byte length
    assert data[8:11] == b"abc"
    assert data[-4:] == struct.pack(">I", zlib.crc32(data[:-4]))


def test_frame_validation():
    with pytest.raises(ValueError):
        Frame(FrameType.ABORT, sequence=1 << 32)
    with pytest.raises(ValueError):
        Frame(FrameType.ABORT, sequence=-1)
    Frame(FrameType.ABORT, sequence=(1 << 32) - 1)


def test_decode_rejects_truncation():
    data = encode_frame(Frame(FrameType.RECON_MSG, 5, b"x" * 40))
    with pytest.raises(FrameTruncatedError):
        decode_frame(data[:7])
    with pytest.raises(FrameTruncatedError):
        decode_frame(data[:-1])
    with pytest.raises(FrameTruncatedError):
        decode_frame(data + b"\x00")  # trailing garbage


def test_decode_rejects_bad_checksum():
    data = bytearray(encode_frame(Frame(FrameType.RECON_MSG, 5, b"x" * 40)))
    data[10] ^= 0x40
    with pytest.raises(FrameChecksumError):
        decode_frame(bytes(data))


def test_decode_rejects_unknown_type():
    # a frame with an undefined tag but a valid checksum
    body = struct.pack(">BI", 0x7F, 0) + (0).to_bytes(3, "big")
    data = body + struct.pack(">I", zlib.crc32(body))
    with pytest.raises(UnknownFrameTypeError):
        decode_frame(data)


def test_retired_tag_3_is_unknown_and_other_tags_keep_their_values():
    assert {t.name: int(t) for t in FrameType} == {
        "SYNC_HELLO": 1, "BASIS_REVEAL": 2, "SIFT_ACK": 4, "QBER_SAMPLE": 5,
        "RECON_MSG": 6, "PA_SEED": 7, "ABORT": 8,
    }
    body = struct.pack(">BI", 0x03, 0) + (0).to_bytes(3, "big")
    with pytest.raises(UnknownFrameTypeError):
        decode_frame(body + struct.pack(">I", zlib.crc32(body)))


def test_every_single_bit_flip_is_detected():
    data = encode_frame(Frame(FrameType.QBER_SAMPLE, 9, b"sample-payload"))
    for byte_index in range(len(data)):
        for bit in range(8):
            corrupted = bytearray(data)
            corrupted[byte_index] ^= 1 << bit
            with pytest.raises(FrameDecodeError):
                decode_frame(bytes(corrupted))


# ---------------------------------------------------------------------------
# payload layouts


@pytest.mark.parametrize("msg", [
    ("pass_begin", 2),
    ("pass_parities", 1, np.array([1, 0, 1, 1, 0, 0, 1], dtype=np.uint8)),
    ("range_query", 3, np.array([0, 37, 1000]), np.array([16, 74, 2000])),
    ("range_reply", np.array([0, 1, 1], dtype=np.uint8)),
    ("verify", 0xDEADBEEFCAFEF00D, 42),
    ("verify_result", True),
])
def test_recon_payload_roundtrip(msg):
    subkind = RECON_KINDS.index(msg[0])
    payload = encode_payload(FrameType.RECON_MSG, subkind, *msg[1:])
    back = decode_payload(FrameType.RECON_MSG, payload)
    assert back[0] == subkind
    for a, b in zip(back[1:], msg[1:], strict=True):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            assert np.array_equal(a, b)
        else:
            assert a == b


def test_recon_payload_rejects_garbage():
    with pytest.raises(FrameDecodeError):
        decode_payload(FrameType.RECON_MSG, b"")
    with pytest.raises(FrameDecodeError):
        decode_payload(FrameType.RECON_MSG, b"\x77\x00")


def test_payload_bytes_follow_the_layouts():
    """Pinned bytes: a range query is its pass byte, then its lo column and
    its hi column of >u4, a verify result only its match byte, a sift reply
    one class byte and one match bit per click, and counts are filled in
    from the arrays' lengths."""
    range_query = struct.pack(">BBI", 2, 3, 2) + struct.pack(">II", 0, 37) + struct.pack(">II", 16, 74)
    assert encode_payload(FrameType.RECON_MSG, 2, 3, [0, 37], [16, 74]) == range_query
    back = decode_payload(FrameType.RECON_MSG, range_query)
    assert back[:2] == (2, 3) and back[2].tolist() == [0, 37] and back[3].tolist() == [16, 74]
    assert back[2].dtype == back[3].dtype == np.int64
    assert encode_payload(FrameType.RECON_MSG, 5, True) == b"\x05\x01"
    kinds, matched = np.array([2, 0], dtype=np.uint8), np.array([True, False])
    sift_ack = struct.pack(">QQQQQdI", 5, 3, 2, 7, 9, 0.5, 2) + b"\x02\x00\x80"
    assert encode_payload(FrameType.SIFT_ACK, 5, 3, 2, 7, 9, 0.5, kinds, matched) == sift_ack
    back = decode_payload(FrameType.SIFT_ACK, sift_ack)
    assert back[:6] == (5, 3, 2, 7, 9, 0.5)
    assert np.array_equal(back[6], kinds) and np.array_equal(back[7], matched)
    bits = np.array([1, 0, 1, 1, 0, 0, 0, 0, 1], dtype=np.uint8)
    assert encode_payload(FrameType.PA_SEED, 4, 6, 1, bits) == struct.pack(">IIB", 4, 6, 1) + b"\xb0\x80"
    assert encode_payload(FrameType.ABORT, 4, np.frombuffer(b"hi", np.uint8)) == b"\x04\x00\x02hi"
    assert {key if isinstance(key, FrameType) else key[0] for key in PAYLOAD_LAYOUTS} == set(FrameType)


@pytest.mark.parametrize(
    "frame_type, values, field",
    [
        (FrameType.BASIS_REVEAL, ([1, 2, 3], [0, 1]), "bases"),
        (FrameType.BASIS_REVEAL, ([1, 2], [0, 1, 1]), "bases"),
        (FrameType.SIFT_ACK, (5, 3, 2, 7, 9, 0.5, np.array([2, 0], np.uint8), [True]), "matched"),
        (FrameType.RECON_MSG, (2, 0, [0, 37], [16]), "hi"),
    ],
    ids=["basis_reveal_short", "basis_reveal_long", "sift_ack", "range_query"],
)
def test_encode_payload_refuses_arrays_unequal_in_a_shared_count(frame_type, values, field):
    """Arrays that share one count field must be as long; otherwise the
    encoder names the frame type and the field, and writes nothing."""
    with pytest.raises(ValueError, match=f"{frame_type.name} field {field} has"):
        encode_payload(frame_type, *values)


def test_sample_payload_roundtrip():
    signal = np.array([1, 0, 1], dtype=np.uint8)
    decoy = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1], dtype=np.uint8)
    vacuum = np.zeros(0, dtype=np.uint8)
    payload = encode_payload(FrameType.QBER_SAMPLE, signal, decoy, vacuum)
    assert payload[:4] == struct.pack(">I", 3)
    back = decode_payload(FrameType.QBER_SAMPLE, payload)
    for a, b in zip(back, (signal, decoy, vacuum), strict=True):
        assert np.array_equal(a, b)
    for cut in (1, 5, len(payload) - 1):
        with pytest.raises(FrameDecodeError):
            decode_payload(FrameType.QBER_SAMPLE, payload[:-cut])
    with pytest.raises(FrameDecodeError):
        decode_payload(FrameType.QBER_SAMPLE, payload + b"\x00")


# ---------------------------------------------------------------------------
# session machines


def make_views(n, seed, error_rate=0.02, click_rate=0.5):
    rng = np.random.default_rng(seed)
    kind = rng.choice(np.array([2, 1, 0], dtype=np.uint8), size=n, p=[0.5, 0.25, 0.25])
    alice_basis = rng.integers(0, 2, size=n, dtype=np.uint8)
    alice_bit = rng.integers(0, 2, size=n, dtype=np.uint8)
    bob_basis = rng.integers(0, 2, size=n, dtype=np.uint8)
    clicked = rng.random(n) < click_rate
    flip = (rng.random(n) < error_rate).astype(np.uint8)
    matched = alice_basis == bob_basis
    bob_bit = np.where(matched, alice_bit ^ flip, rng.integers(0, 2, size=n)).astype(np.uint8)
    slots = np.flatnonzero(clicked)
    alice = AliceView(words(kind, (alice_basis << 1) | alice_bit))
    bob = BobView(n, np.packbits(bob_basis), slots, bob_bit[slots])
    return alice, bob


def test_bob_view_reads_back_its_columns():
    basis = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 1], dtype=np.uint8)
    bits = np.array([0, 1], dtype=np.uint8)
    view = BobView(10, np.packbits(basis), np.array([1, 8]), bits)
    assert np.array_equal(view.basis, basis)
    assert np.array_equal(view.basis_at(np.arange(10)), basis)
    assert np.array_equal(view.clicked, np.isin(np.arange(10), [1, 8]))
    assert np.array_equal(view.bit, [0, 0, 0, 0, 0, 0, 0, 0, 1, 0])


def test_bob_view_clicks_must_be_ascending_in_range():
    packed, bits = np.zeros(1, dtype=np.uint8), np.zeros(2, dtype=np.uint8)
    assert len(BobView(8, packed, np.array([1, 7]), bits)) == 8
    with pytest.raises(ValueError):
        BobView(9, packed, np.array([1, 7]), bits)  # one basis bit per slot
    with pytest.raises(ValueError):
        BobView(8, packed, np.array([1]), bits)  # one bit per clicked slot
    for slots in ([3, 3], [4, 2], [-1, 2], [2, 8]):
        with pytest.raises(ValueError):
            BobView(8, packed, np.array(slots), bits)


def make_sessions(n=4096, seed=0, options=None, digest_a=DIGEST, digest_b=DIGEST):
    options = options or ProtocolOptions()
    va, vb = make_views(n, seed)
    alice = AliceSession(va, options, digest_a, coin_rng=np.random.default_rng([seed, 77]))
    bob = BobSession(vb, options, digest_b)
    return alice, bob


def pump(alice, bob, *, drop=None, mangle=None, mangled=("alice", "bob")):
    """Shuttle frames between the two sessions until both stand still.

    drop: set of (sender_role, frame_index) to silently discard.
    mangle: callable bytes -> bytes applied to every delivery to a role in
    `mangled`.
    """
    queues = {"alice": [], "bob": []}  # frames waiting FOR that role
    counters = {"alice": 0, "bob": 0}
    for f in alice.start():
        if (("alice", counters["alice"]) not in (drop or set())):
            queues["bob"].append(encode_frame(f))
        counters["alice"] += 1
    for _ in range(100_000):
        if not queues["alice"] and not queues["bob"]:
            break
        for role, session, peer in (("bob", bob, "alice"), ("alice", alice, "bob")):
            if not queues[role]:
                continue
            data = queues[role].pop(0)
            if mangle and role in mangled:
                data = mangle(data)
            out = session.step(IncomingFrame(data))
            sender = role  # this session is now the sender of `out`
            for f in out:
                if ((sender, counters[sender]) not in (drop or set())):
                    queues[peer].append(encode_frame(f))
                counters[sender] += 1
    return alice, bob


def rewrite(frame_type, edit):
    """A pump mangle that replaces each frame_type payload by edit(payload), CRC redone."""
    def mangle(data):
        frame = decode_frame(data)
        if frame.frame_type is not frame_type:
            return data
        return encode_frame(Frame(frame.frame_type, frame.sequence, edit(frame.payload)))
    return mangle


def test_full_session_reaches_done_with_equal_keys():
    alice, bob = make_sessions(n=4096, seed=5)
    pump(alice, bob)
    assert alice.phase is Phase.DONE
    assert bob.phase is Phase.DONE
    assert alice.residual_check is True and bob.residual_check is True
    assert np.array_equal(alice.final_key, bob.final_key)
    assert len(alice.final_key) == alice.decision.length > 0
    assert alice.statistics == bob.statistics
    assert alice.bounds == bob.bounds
    assert alice.leaked_bits == bob.leaked_bits
    assert alice.corrections == bob.corrections
    assert alice.n_matched == bob.n_matched


def test_session_statistics_match_ground_truth():
    n, seed = 4096, 8
    alice, bob = make_sessions(n=n, seed=seed)
    va = alice.view
    vb = bob.view
    pump(alice, bob)
    stats = alice.statistics
    clicked = vb.clicked
    for variant, gain in ((2, stats.q_mu), (1, stats.q_nu), (0, stats.y0)):
        emitted = int((va.kind == variant).sum())
        clicks = int((clicked & (va.kind == variant)).sum())
        assert gain == pytest.approx(clicks / emitted, rel=1e-12)
    matched = clicked & (va.basis == vb.basis)
    assert alice.n_clicked == bob.n_clicked == int(clicked.sum())
    assert alice.n_matched == bob.n_matched == int(matched.sum())
    # decoy QBER: errors over matched decoy clicks, fully disclosed
    decoy = matched & (va.kind == 1)
    decoy_errors = int((va.bit[decoy] != vb.bit[decoy]).sum())
    assert decoy_errors > 0
    assert stats.e_nu == pytest.approx(decoy_errors / int(decoy.sum()), rel=1e-12)
    # sampled QBER should sit near the seeded 2% error rate
    assert alice.qber_sample == pytest.approx(0.02, abs=0.03)
    # the corrected remainder excludes the disclosed sample
    assert len(alice.remaining_key) == alice.n_matched_signal - alice.n_sampled


def test_sample_tally_counts_errors_exactly():
    """Both endpoints count the disclosed sample's errors exactly, and size the
    Cascade hint from that count."""
    alice, bob = make_sessions(n=4096, seed=8)
    va, vb = alice.view, bob.view
    pump(alice, bob)
    signal = vb.clicked & (va.basis == vb.basis) & (va.kind == 2)
    errors = va.bit[signal] != vb.bit[signal]
    for side in (alice, bob):
        assert np.array_equal(side.sample_positions, alice.sample_positions)
        assert side.sample_errors == int(errors[alice.sample_positions].sum())
        assert side.decoy_errors == alice.decoy_errors
        n = len(alice.sample_positions)
        assert side.qber_hint == min(0.25, (side.sample_errors + 1) / (n + 2))
        assert side.qber_sample == pytest.approx(side.sample_errors / n, rel=1e-12)
    assert alice.sample_errors > 0


def test_session_digest_mismatch_aborts():
    alice, bob = make_sessions(digest_b=hashlib.md5(b"other").digest())
    pump(alice, bob)
    assert bob.phase is Phase.ABORTED
    assert bob.abort_reason is AbortReason.CONFIG_MISMATCH
    assert alice.phase is Phase.ABORTED
    assert alice.abort_reason is AbortReason.PEER_ABORT


def test_session_sequence_gap_aborts():
    # alice's sift reply numbered one past her hello leaves a hole in her
    # sequence, as a lost frame between the two would
    def skip_one(data):
        frame = decode_frame(data)
        if frame.frame_type is not FrameType.SIFT_ACK:
            return data
        return encode_frame(Frame(frame.frame_type, frame.sequence + 1, frame.payload))

    alice, bob = make_sessions()
    pump(alice, bob, mangle=skip_one)
    assert bob.phase is Phase.ABORTED
    assert bob.abort_reason is AbortReason.SEQUENCE_GAP
    assert bob.error_counters["sequence_gap"] == 1
    assert alice.phase is Phase.ABORTED
    assert alice.abort_reason is AbortReason.PEER_ABORT


def test_corrupted_frame_is_counted_and_dropped():
    alice, bob = make_sessions()
    hello = encode_frame(alice.start()[0])
    bad = bytearray(hello)
    bad[9] ^= 0x01
    out = bob.step(IncomingFrame(bytes(bad)))
    assert out == []
    assert bob.error_counters["crc"] == 1
    assert bob.phase is Phase.IDLE  # state unchanged
    # the pristine frame still goes through afterwards: his reply, then his bases
    out = bob.step(IncomingFrame(hello))
    assert [f.frame_type for f in out] == [FrameType.SYNC_HELLO, FrameType.BASIS_REVEAL]
    assert [f.sequence for f in out] == [0, 1]
    assert bob.phase is Phase.SIFTING


def test_truncated_and_unknown_frames_counted():
    _, bob = make_sessions()
    assert bob.step(IncomingFrame(b"\x01\x00\x00")) == []
    assert bob.error_counters["truncated"] == 1
    body = struct.pack(">BI", 0x7F, 0) + (0).to_bytes(3, "big")
    assert bob.step(IncomingFrame(body + struct.pack(">I", zlib.crc32(body)))) == []
    assert bob.error_counters["unknown_type"] == 1
    assert bob.phase is Phase.IDLE


def test_out_of_phase_frame_aborts():
    _, bob = make_sessions()
    stray = encode_frame(Frame(FrameType.PA_SEED, 0, struct.pack(">IIB", 0, 0, 0)))
    out = bob.step(IncomingFrame(stray))
    assert bob.phase is Phase.ABORTED
    assert bob.abort_reason is AbortReason.PHASE_VIOLATION
    assert bob.error_counters["phase_violation"] == 1
    assert out and decode_frame(encode_frame(out[0])).frame_type is FrameType.ABORT


def retype(frame_type, new_type):
    """A pump mangle that delivers each frame_type frame as new_type, sequence kept."""
    def mangle(data):
        frame = decode_frame(data)
        if frame.frame_type is not frame_type:
            return data
        return encode_frame(Frame(new_type, frame.sequence, frame.payload))
    return mangle


@pytest.mark.parametrize(
    "mangle, role, message",
    [
        (rewrite(FrameType.SYNC_HELLO, lambda payload: b"\x05" + payload[1:]), "bob", "unexpected hello role"),
        (retype(FrameType.SIFT_ACK, FrameType.QBER_SAMPLE), "bob", "QBER_SAMPLE not valid in phase sifting"),
        (retype(FrameType.RECON_MSG, FrameType.QBER_SAMPLE), "alice",
         "QBER_SAMPLE not valid in phase reconciliation"),
        (retype(FrameType.QBER_SAMPLE, FrameType.SIFT_ACK), "alice", "SIFT_ACK not valid in phase estimation"),
        (retype(FrameType.SIFT_ACK, FrameType.BASIS_REVEAL), "bob", "BASIS_REVEAL not valid in phase sifting"),
    ],
    ids=["hello_role_5", "sample_before_sift_ack", "sample_after_echo", "sift_ack_to_alice",
         "basis_reveal_to_bob"],
)
def test_handler_phase_violations_are_counted(mangle, role, message):
    """A frame valid in its phase but with the wrong role, or a frame its
    receiver's role and phase do not take, is a phase violation, counted once
    like an out-of-phase frame. QBER_SAMPLE has no subkind, so the phase
    alone keeps Bob's disclosure and Alice's echo apart: a sample reaching
    Bob before SIFT_ACK, or Alice after her echo, is refused."""
    alice, bob = pump(*make_sessions(), mangle=mangle)
    side = {"alice": alice, "bob": bob}[role]
    assert side.abort_reason is AbortReason.PHASE_VIOLATION
    assert message in side.abort_message
    assert side.error_counters["phase_violation"] == 1


def test_timeout_aborts():
    _, bob = make_sessions()
    out = bob.step(Timeout())
    assert bob.phase is Phase.ABORTED
    assert bob.abort_reason is AbortReason.TIMEOUT
    assert bob.error_counters["timeout"] == 1
    assert out and out[0].frame_type is FrameType.ABORT


def test_dropped_hello_reply_is_a_sequence_gap():
    # Bob's bases (his frame 1) reach an Alice still waiting for his reply
    alice, bob = pump(*make_sessions(), drop={("bob", 0)})
    assert alice.phase is Phase.ABORTED
    assert alice.abort_reason is AbortReason.SEQUENCE_GAP
    assert bob.phase is Phase.ABORTED
    assert bob.abort_reason is AbortReason.PEER_ABORT


def test_short_key_skips_reconciliation():
    # with almost no matched signal bits the session must finish with no key
    # rather than attempt reconciliation
    options = ProtocolOptions(min_key_bits=64)
    alice, bob = make_sessions(n=128, seed=3, options=options)
    pump(alice, bob)
    assert alice.phase is Phase.DONE
    assert bob.phase is Phase.DONE
    assert alice.no_key and bob.no_key
    assert len(alice.final_key) == 0
    assert "insufficient_key_bits" in alice.flags
    assert alice.residual_check is None


def test_session_without_decoy_clicks_flags_it():
    va, vb = make_views(4096, seed=5)
    not_decoy = va.kind[vb.slots] != 1  # drop every decoy click
    vb = BobView(len(vb), vb.packed_basis, vb.slots[not_decoy], vb.bits[not_decoy])
    options = ProtocolOptions()
    alice = AliceSession(va, options, DIGEST, coin_rng=np.random.default_rng([5, 77]))
    bob = BobSession(vb, options, DIGEST)
    pump(alice, bob)
    assert alice.phase is Phase.DONE and bob.phase is Phase.DONE
    for side in (alice, bob):
        assert side.statistics.q_nu == 0.0
        assert side.statistics.e_nu == 0.0
        assert "no_matched_clicks_decoy" in side.flags


def test_class_never_emitted_aborts_transmitter():
    alice, bob = make_sessions()
    word = alice.view.word
    word[word < 4] |= 4  # vacuum words become decoy: Y0 has no denominator
    pump(alice, bob)
    assert alice.phase is Phase.ABORTED
    assert alice.abort_reason is AbortReason.INTERNAL
    assert "VACUUM" in alice.abort_message
    assert bob.phase is Phase.ABORTED
    assert bob.abort_reason is AbortReason.PEER_ABORT


def test_class_never_emitted_aborts_receiver():
    def zero_decoy_total(payload):
        n_signal, n_decoy, n_vacuum = struct.unpack_from(">QQQ", payload)
        return struct.pack(">QQQ", n_signal + n_decoy, 0, n_vacuum) + payload[24:]

    alice, bob = make_sessions()
    pump(alice, bob, mangle=rewrite(FrameType.SIFT_ACK, zero_decoy_total))
    assert bob.phase is Phase.ABORTED
    assert bob.abort_reason is AbortReason.INTERNAL
    assert "DECOY" in bob.abort_message
    assert alice.phase is Phase.ABORTED
    assert alice.abort_reason is AbortReason.PEER_ABORT


def edit_values(frame_type, edit, subkind=None):
    """A rewrite edit: decode the payload, change its values, encode it again."""
    def apply(payload):
        values = list(decode_payload(frame_type, payload))
        if subkind is not None and values[0] != subkind:
            return payload
        edit(values)
        return encode_payload(frame_type, *values)
    return rewrite(frame_type, apply)


def _drop_vacuum_bit(values):
    values[2] = values[2][:-1]


def _vacuum_bytes_to_3(values):
    values[6] = np.where(values[6] == 0, 3, values[6]).astype(np.uint8)


def _nan_fraction(values):
    values[5] = float("nan")


def _drop_last_click(values):
    values[6], values[7] = values[6][:-1], values[7][:-1]


def _add_a_click(values):
    values[6] = np.append(values[6], np.uint8(0))
    values[7] = np.append(values[7], np.uint8(0))


def _signal_total_plus_one(values):
    values[0] += 1


def _flip_capped_flag(values):
    values[2] ^= 1


@pytest.mark.parametrize(
    "mangle, reason, message",
    [
        (edit_values(FrameType.QBER_SAMPLE, _drop_vacuum_bit), AbortReason.LENGTH_MISMATCH, "sizes"),
        (edit_values(FrameType.SIFT_ACK, _vacuum_bytes_to_3), AbortReason.INTERNAL, "malformed"),
        (edit_values(FrameType.SIFT_ACK, _nan_fraction), AbortReason.CONFIG_MISMATCH, "fraction"),
        (edit_values(FrameType.PA_SEED, _flip_capped_flag), AbortReason.LENGTH_MISMATCH, "flags"),
        (edit_values(FrameType.SIFT_ACK, _drop_last_click), AbortReason.LENGTH_MISMATCH, "clicks"),
        (edit_values(FrameType.SIFT_ACK, _add_a_click), AbortReason.LENGTH_MISMATCH, "clicks"),
        (edit_values(FrameType.SIFT_ACK, _signal_total_plus_one), AbortReason.LENGTH_MISMATCH, "all slots"),
    ],
    ids=["vacuum_echo", "class_byte", "nan_fraction", "pa_flags", "sift_short", "sift_long", "sift_totals"],
)
def test_receiver_checks_peer_fields(mangle, reason, message):
    """Bob aborts, naming the field, when one of Alice's fields disagrees with
    his own state: her sample echo's sizes, a class byte above 2, the sample
    fraction, the key-length flags of PA_SEED, a sift reply that does not
    hold one class byte and one match bit per click of his, or per-class
    totals that do not add up to his slot count."""
    alice, bob = make_sessions()
    pump(alice, bob, mangle=mangle, mangled=("bob",))
    assert bob.phase is Phase.ABORTED
    assert bob.abort_reason is reason
    assert message in bob.abort_message


def _flood(values):
    n = 8 * 4096 + 1  # more than 8 n for any key of these 4096 slots
    values[1:] = [0, np.zeros(n, np.int64), np.ones(n, np.int64)]


def _range_outside_key(values):
    values[1:] = [0, [0], [0xFFFFFFFF]]


def _drop_pass_parity(values):
    values[2] = values[2][:-1]


def _wrong_digest(values):
    values[1] ^= 1


def recon_edit(kind, edit):
    return edit_values(FrameType.RECON_MSG, edit, RECON_KINDS.index(kind))


def test_range_query_flood_aborts_transmitter():
    """A receiver asking for more range parities than the 8 n budget makes
    the transmitter abort INTERNAL, answering none of them; step() does not
    raise."""
    alice, bob = make_sessions()
    pump(alice, bob, mangle=recon_edit("range_query", _flood))
    assert alice.phase is Phase.ABORTED
    assert alice.abort_reason is AbortReason.INTERNAL
    assert alice.abort_message == "reconciliation broke down: parity disclosure budget exhausted"
    assert alice.parity_bits <= 8 * len(alice.remaining_key)
    assert bob.phase is Phase.ABORTED
    assert bob.abort_reason is AbortReason.PEER_ABORT


@pytest.mark.parametrize(
    "mangle, reasons",
    [
        (None, (None, None)),
        (recon_edit("verify", _wrong_digest), (AbortReason.VERIFY_FAILED, AbortReason.VERIFY_FAILED)),
        (recon_edit("range_query", _flood), (AbortReason.INTERNAL, AbortReason.PEER_ABORT)),
        (recon_edit("pass_parities", _drop_pass_parity), (AbortReason.PEER_ABORT, AbortReason.INTERNAL)),
        (recon_edit("range_query", _range_outside_key), (AbortReason.INTERNAL, AbortReason.PEER_ABORT)),
    ],
    ids=["done", "verify_failed", "range_flood", "short_pass_parities", "range_outside_key"],
)
def test_ledger_holds_on_every_exit_from_cascade(mangle, reasons):
    """However Cascade ends, each endpoint's leak counts every parity bit and
    digest it disclosed or read, within the 8 n budget; where both sides saw
    the whole transcript their ledgers agree."""
    alice, bob = pump(*make_sessions(), mangle=mangle)
    assert (alice.abort_reason, bob.abort_reason) == reasons
    assert alice.parity_bits > 0  # every exit is inside Cascade
    for side in (alice, bob):
        assert side.leaked_bits == side.parity_bits + 64 * side.cascade.digests
        assert side.parity_bits <= 8 * len(side.remaining_key)
    if reasons[0] in (None, AbortReason.VERIFY_FAILED):
        assert (alice.parity_bits, alice.leaked_bits) == (bob.parity_bits, bob.leaked_bits)


def test_no_cycle_keeps_a_corrector_alive():
    """The corrector's suspended generator refers back to the corrector. A
    Cascade that ends returns from it, and an abort mid-Cascade closes it, so
    with the cyclic collector off the corrector is freed with its session."""
    gc.disable()
    try:
        alice, bob = pump(*make_sessions())
        assert bob.phase is Phase.DONE
        corrector = weakref.ref(bob.cascade)
        del alice, bob
        assert corrector() is None

        alice, bob = make_sessions()
        to_bob = [encode_frame(f) for f in alice.start()]
        while bob.cascade is None:  # up to Bob's pass_begin and Alice's parities
            to_alice = [encode_frame(f) for data in to_bob for f in bob.step(IncomingFrame(data))]
            to_bob = [encode_frame(f) for data in to_alice for f in alice.step(IncomingFrame(data))]
        assert bob.phase is Phase.RECONCILIATION
        bob.step(Timeout())
        corrector = weakref.ref(bob.cascade)
        del alice, bob
        assert corrector() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("payload", [b"", struct.pack(">BH", 0xFF, 0)])
def test_peer_abort_with_unknown_reason(payload):
    _, bob = make_sessions()
    assert bob.step(IncomingFrame(encode_frame(Frame(FrameType.ABORT, 0, payload)))) == []
    assert bob.phase is Phase.ABORTED
    assert bob.abort_reason is AbortReason.PEER_ABORT
    assert "PEER_ABORT" in bob.abort_message


def test_truncated_payloads_abort_without_raising():
    """Each frame of a clean session, its payload cut by 1-4 bytes or grown by
    1-2 bytes and its CRC redone, ends the session in an abort; step() never
    raises."""
    clean = []
    pump(*make_sessions(), mangle=lambda data: clean.append(data) or data)
    assert {decode_frame(data).frame_type for data in clean} == set(FrameType) - {FrameType.ABORT}
    # the wire bytes of the clean session, in delivery order
    assert hashlib.sha256(b"".join(clean)).hexdigest() == (
        "04693f7c767a880a6566a26fb74c48ad8bf482fa30237cfb8e0020afa60025e0"
    )
    resizes = [lambda p, cut=cut: p[:-cut] for cut in range(1, 5)]
    resizes += [lambda p: p + b"\x00", lambda p: p + b"\x00\x00"]
    for index in range(len(clean)):
        for case, resize in enumerate(resizes):
            deliveries = iter(range(len(clean)))

            def mangle(data):
                if next(deliveries, None) != index:
                    return data
                frame = decode_frame(data)
                return encode_frame(Frame(frame.frame_type, frame.sequence, resize(frame.payload)))

            alice, bob = pump(*make_sessions(), mangle=mangle)
            assert Phase.ABORTED in (alice.phase, bob.phase), (index, case)


def test_terminal_sessions_ignore_events():
    alice, bob = make_sessions()
    pump(alice, bob)
    assert alice.phase is Phase.DONE
    assert alice.step(Timeout()) == []
    assert alice.step(IncomingFrame(b"junk")) == []


def test_protocol_options_validation():
    with pytest.raises(ValueError):
        ProtocolOptions(sample_fraction=0.0)
    with pytest.raises(ValueError):
        ProtocolOptions(sample_fraction=1.0)
    with pytest.raises(ValueError):
        ProtocolOptions(n_cascade_passes=0)
    with pytest.raises(ValueError):
        ProtocolOptions(n_cascade_passes=129)  # a retried Cascade's pass indices would pass 255
    with pytest.raises(ValueError):
        ProtocolOptions(min_key_bits=63)  # Cascade refuses keys under 64 bits
    with pytest.raises(ValueError):
        ProtocolOptions(timeout_s=0.0)
    # the options hold their own copy of the intensities, under the source's rule
    for mu in (math.inf, math.nan, 710.0):
        with pytest.raises(ValueError, match=r"e\^mu"):
            ProtocolOptions(mu=mu)
