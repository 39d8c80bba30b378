"""Classical coordination protocol between transmitter and receiver.

Wire format (all integers big-endian):

    tag(1) | sequence(4) | payload_length(3) | payload | crc32(4)

The CRC-32 (standard reflected 0x04C11DB7, as in zlib) covers every byte
before it. Sequence numbers count from 0 independently per direction; a gap
means the transport lost a frame and the session aborts.

The quantum phase is over before either endpoint exists. The transmitter
reads her `source.AliceView`, one word a slot; the receiver reads his
`detection.BobView`, his packed bases and his clicks.

Message flow:

    Alice SYNC_HELLO        config digest and slot count
    Bob   SYNC_HELLO        his reply; the digests must match
    Bob   BASIS_REVEAL      clicked slot indices + measurement bases, in the
                            same step as his reply
    Alice SIFT_ACK          which of those slots had matching bases
    Alice INTENSITY_REVEAL  class of every clicked slot + per-class totals
    Alice QBER_SAMPLE(0)    sample/cascade seeds and the sample fraction
    Bob   QBER_SAMPLE(1)    his bits: sampled signal, all matched decoy/vacuum
    Alice QBER_SAMPLE(2)    her bits for the same slots
    both  RECON_MSG ...     Cascade (Bob corrects toward Alice's key)
    Alice PA_SEED           Toeplitz seed and final length
    both  Done

Every payload layout is one row of PAYLOAD_LAYOUTS, the payload spec;
encode_payload and decode_payload are its only writer and reader.

Sampled signal bits are the only signal-class key material ever put on the
wire; they are removed from the key on both sides. Decoy and vacuum class
bits are fully disclosed for exact estimation, never used as key.
"""

from __future__ import annotations

import math
import struct
import threading
import zlib
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from .analysis import (
    DecoyStatistics,
    KeyRateReport,
    SinglePhotonBounds,
    estimate_bounds,
    secure_key_rate,
)
from .postprocess import (
    MIN_KEY_BITS,
    CascadeCorrector,
    CascadeResponder,
    KeyLengthDecision,
    PASeed,
    ReconciliationFailed,
    final_key_length,
    generate_pa_seed,
    toeplitz_hash,
)
from .detection import BobView, _ascending_in_range
from .source import AliceView, StateClass

MAX_PAYLOAD = (1 << 24) - 1
_HEADER = struct.Struct(">BI")  # tag, sequence; then 3 length bytes
_MIN_FRAME = 1 + 4 + 3 + 4


class FrameType(IntEnum):
    SYNC_HELLO = 0x01
    BASIS_REVEAL = 0x02
    INTENSITY_REVEAL = 0x03
    SIFT_ACK = 0x04
    QBER_SAMPLE = 0x05
    RECON_MSG = 0x06
    PA_SEED = 0x07
    ABORT = 0x08


class FrameDecodeError(ValueError):
    pass


class FrameTruncatedError(FrameDecodeError):
    pass


class FrameChecksumError(FrameDecodeError):
    pass


class UnknownFrameTypeError(FrameDecodeError):
    pass


class PayloadTooLargeError(ValueError):
    """A frame payload longer than the 3-byte length field can carry."""


@dataclass(frozen=True)
class Frame:
    frame_type: FrameType
    sequence: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.sequence <= 0xFFFFFFFF:
            raise ValueError("sequence must fit in 32 bits")
        if len(self.payload) > MAX_PAYLOAD:
            raise PayloadTooLargeError("payload exceeds 2^24 - 1 bytes")


def encode_frame(frame: Frame) -> bytes:
    body = (
        _HEADER.pack(int(frame.frame_type), frame.sequence)
        + len(frame.payload).to_bytes(3, "big")
        + frame.payload
    )
    return body + struct.pack(">I", zlib.crc32(body))


def decode_frame(data: bytes) -> Frame:
    if len(data) < _MIN_FRAME:
        raise FrameTruncatedError(f"frame needs at least {_MIN_FRAME} bytes, got {len(data)}")
    tag, sequence = _HEADER.unpack_from(data)
    length = int.from_bytes(data[5:8], "big")
    total = _MIN_FRAME + length
    if len(data) != total:
        raise FrameTruncatedError(f"frame declares {total} bytes, got {len(data)}")
    (crc,) = struct.unpack_from(">I", data, total - 4)
    if zlib.crc32(data[: total - 4]) != crc:
        raise FrameChecksumError("checksum mismatch")
    try:
        frame_type = FrameType(tag)
    except ValueError:
        raise UnknownFrameTypeError(f"unknown frame type 0x{tag:02x}") from None
    return Frame(frame_type, sequence, data[8 : total - 4])


# ---------------------------------------------------------------------------
# payload layouts: the wire spec of every frame payload
#
# A layout is an ordered tuple of fields. A scalar is (name, big-endian struct
# code). An array is (name, kind, count): kind is "bits" (packed MSB first,
# padded to a whole byte), ">u4" (slot indices, read as int64), "u1" (bytes)
# or _QUERY (Cascade range queries, read as a list of tuples); count is the
# earlier field holding its length, which the encoder fills in, or a function
# of the fields before it. QBER_SAMPLE and RECON_MSG payloads open with a
# subkind byte that picks the layout.

_QUERY = np.dtype([("pass_index", "u1"), ("lo", ">u4"), ("hi", ">u4")])  # 9 bytes, as >BII
_SAMPLE_DISCLOSURE = (  # sampled signal bits, all matched decoy and vacuum bits
    ("subkind", ">B"),
    ("n_signal", ">I"), ("signal", "bits", "n_signal"),
    ("n_decoy", ">I"), ("decoy", "bits", "n_decoy"),
    ("n_vacuum", ">I"), ("vacuum", "bits", "n_vacuum"),
)
PAYLOAD_LAYOUTS = {
    FrameType.SYNC_HELLO: (("role", ">B"), ("digest", ">16s"), ("n_slots", ">Q")),
    FrameType.BASIS_REVEAL: (("n", ">I"), ("slots", ">u4", "n"), ("bases", "bits", "n")),
    FrameType.SIFT_ACK: (("n", ">I"), ("slots", ">u4", "n")),
    FrameType.INTENSITY_REVEAL: (
        ("n_signal", ">Q"), ("n_decoy", ">Q"), ("n_vacuum", ">Q"), ("n", ">I"), ("kinds", "u1", "n"),
    ),
    (FrameType.QBER_SAMPLE, 0): (
        ("subkind", ">B"), ("sample_seed", ">Q"), ("cascade_seed", ">Q"), ("fraction", ">d"),
    ),
    (FrameType.QBER_SAMPLE, 1): _SAMPLE_DISCLOSURE,
    (FrameType.QBER_SAMPLE, 2): _SAMPLE_DISCLOSURE,
    # RECON_MSG subkind i carries Cascade's message RECON_KINDS[i]
    (FrameType.RECON_MSG, 0): (("subkind", ">B"), ("pass_index", ">B")),
    (FrameType.RECON_MSG, 1): (
        ("subkind", ">B"), ("pass_index", ">B"), ("n", ">I"), ("parities", "bits", "n"),
    ),
    (FrameType.RECON_MSG, 2): (("subkind", ">B"), ("n", ">I"), ("queries", _QUERY, "n")),
    (FrameType.RECON_MSG, 3): (("subkind", ">B"), ("n", ">I"), ("parities", "bits", "n")),
    (FrameType.RECON_MSG, 4): (("subkind", ">B"), ("digest", ">Q"), ("corrections", ">I")),
    (FrameType.RECON_MSG, 5): (("subkind", ">B"), ("ok", ">?"), ("digest", ">Q")),
    FrameType.PA_SEED: (
        ("m", ">I"), ("n", ">I"), ("flags", ">B"),
        ("seed", "bits", lambda fields: max(fields["n"] + fields["m"] - 1, 0)),
    ),
    FrameType.ABORT: (("reason", ">B"), ("length", ">H"), ("message", "u1", "length")),
}
RECON_KINDS = ("pass_begin", "pass_parities", "range_query", "range_reply", "verify", "verify_result")
_SUBKINDED = (FrameType.QBER_SAMPLE, FrameType.RECON_MSG)
# the fields a caller passes and gets back: all but the filled-in counts
_VALUES = {
    key: tuple(f[0] for f in layout if f[0] not in {c[2] for c in layout if len(c) == 3})
    for key, layout in PAYLOAD_LAYOUTS.items()
}


def _array_bytes(kind, count: int) -> int:
    return (count + 7) // 8 if kind == "bits" else count * np.dtype(kind).itemsize


def _write_array(kind, values) -> bytes:
    if kind == "bits":
        return np.packbits(np.asarray(values, dtype=np.uint8)).tobytes()
    return np.asarray(values, dtype=kind).tobytes()


def _read_array(kind, data, count: int):
    if kind == "bits":
        return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=count)
    values = np.frombuffer(data, dtype=kind)
    if kind is _QUERY:
        return values.tolist()
    return values.astype(np.int64) if kind == ">u4" else values


def encode_payload(frame_type: FrameType, *values) -> bytes:
    """The payload holding `values` in the order of their layout's fields,
    counts left out; a QBER_SAMPLE or RECON_MSG subkind comes first."""
    key = (frame_type, values[0]) if frame_type in _SUBKINDED else frame_type
    layout = PAYLOAD_LAYOUTS[key]
    fields = dict(zip(_VALUES[key], values, strict=True))
    for name, _, *count in layout:
        if count and isinstance(count[0], str):
            fields[count[0]] = len(fields[name])
    return b"".join(
        _write_array(kind, fields[name]) if count else struct.pack(kind, fields[name])
        for name, kind, *count in layout
    )


def decode_payload(frame_type: FrameType, payload: bytes) -> tuple:
    """The values encode_payload took; FrameDecodeError unless the payload is
    exactly one of the frame type's layouts."""
    key = frame_type
    if frame_type in _SUBKINDED:
        if not payload:
            raise FrameDecodeError(f"empty {frame_type.name} payload")
        key = (frame_type, payload[0])
        if key not in PAYLOAD_LAYOUTS:
            raise FrameDecodeError(f"unknown {frame_type.name} subkind {payload[0]}")
    data = memoryview(payload)
    fields = {}
    offset = 0
    for name, kind, *count in PAYLOAD_LAYOUTS[key]:
        if count:
            n = fields[count[0]] if isinstance(count[0], str) else count[0](fields)
            size = _array_bytes(kind, n)
        else:
            size = struct.calcsize(kind)
        if offset + size > len(data):
            raise FrameDecodeError(f"{frame_type.name} field {name} truncated")
        chunk = data[offset : offset + size]
        fields[name] = _read_array(kind, chunk, n) if count else struct.unpack(kind, chunk)[0]
        offset += size
    if offset != len(data):
        raise FrameDecodeError(f"{len(data) - offset} trailing {frame_type.name} payload bytes")
    return tuple(fields[name] for name in _VALUES[key])


# ---------------------------------------------------------------------------
# session state machines


class Phase(Enum):
    IDLE = "idle"
    SIFTING = "sifting"
    ESTIMATION = "estimation"
    RECONCILIATION = "reconciliation"
    AMPLIFICATION = "amplification"
    DONE = "done"
    ABORTED = "aborted"


class AbortReason(IntEnum):
    CONFIG_MISMATCH = 1
    PHASE_VIOLATION = 2
    SEQUENCE_GAP = 3
    VERIFY_FAILED = 4
    LENGTH_MISMATCH = 5
    TIMEOUT = 6
    PEER_ABORT = 7
    INTERNAL = 8


@dataclass(frozen=True)
class IncomingFrame:
    data: bytes


@dataclass(frozen=True)
class Timeout:
    """The driver gave up waiting for the peer; the session aborts."""


@dataclass(frozen=True)
class ProtocolOptions:
    mu: float = 0.8
    nu: float = 0.1
    sample_fraction: float = 0.1
    q: float = 0.5
    error_correction_efficiency: float = 1.16
    repetition_rate_hz: float = 20e6
    n_cascade_passes: int = 4
    min_key_bits: int = 64
    timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if not 0.0 < self.sample_fraction < 1.0:
            raise ValueError("sample fraction must be in (0, 1)")
        if not 0.0 < self.q <= 1.0:
            raise ValueError("sifting factor q must be in (0, 1]")
        if not 1.0 <= self.error_correction_efficiency < math.inf:
            raise ValueError("error correction efficiency must be finite and >= 1")
        if not 1 <= self.n_cascade_passes <= 128:
            # pass indices travel as one byte, and a retried Cascade runs twice as many
            raise ValueError("reconciliation passes must be in [1, 128]")
        if self.min_key_bits < MIN_KEY_BITS:
            raise ValueError(f"min_key_bits must be >= {MIN_KEY_BITS}, Cascade's shortest key")
        if not 0.0 < self.timeout_s <= threading.TIMEOUT_MAX:
            # sockets and locks refuse a longer wait
            raise ValueError(f"timeout must be in (0, {threading.TIMEOUT_MAX:.0f}] s")


@dataclass
class SessionResult:
    final_key: np.ndarray
    no_key: bool
    statistics: DecoyStatistics | None
    bounds: SinglePhotonBounds | None
    rate_report: KeyRateReport | None
    decision: KeyLengthDecision | None
    qber_sample: float | None
    qber_hint: float | None
    leaked_bits: int
    corrections: int
    parity_bits: int
    residual_check: bool | None
    n_clicked: int
    n_matched: int
    n_matched_signal: int
    n_sampled: int
    flags: tuple[str, ...]


class _Session:
    """Shared state-machine mechanics for both endpoints."""

    role = "?"

    def __init__(self, options: ProtocolOptions, config_digest: bytes, n_slots: int):
        if len(config_digest) != 16:
            raise ValueError("config digest must be 16 bytes")
        self.options = options
        self.config_digest = config_digest
        self.n_slots = n_slots
        self.phase = Phase.IDLE
        self.next_send_seq = 0
        self.next_recv_seq = 0
        self.error_counters = {
            "crc": 0,
            "truncated": 0,
            "unknown_type": 0,
            "sequence_gap": 0,
            "phase_violation": 0,
            "timeout": 0,
        }
        self.abort_reason: AbortReason | None = None
        self.abort_message = ""
        self.flags: list[str] = []
        # filled in as the protocol runs
        self.n_clicked = 0
        self.n_matched = 0
        self.matched_signal_bits = np.zeros(0, dtype=np.uint8)
        self.matched_decoy_bits = np.zeros(0, dtype=np.uint8)
        self.matched_vacuum_bits = np.zeros(0, dtype=np.uint8)
        self.emitted_per_class: dict[StateClass, int] = {}
        self.clicks_per_class: dict[StateClass, int] = {}
        self.sample_positions = np.zeros(0, dtype=np.int64)
        self.sample_errors = 0
        self.decoy_errors = 0
        self.qber_hint: float | None = None
        self.cascade_seed = 0
        self.remaining_key = np.zeros(0, dtype=np.uint8)
        self.corrections = 0
        self.parity_bits = 0
        self.leaked_bits = 0
        self.residual_check: bool | None = None
        self.statistics: DecoyStatistics | None = None
        self.bounds: SinglePhotonBounds | None = None
        self.rate_report: KeyRateReport | None = None
        self.decision: KeyLengthDecision | None = None
        self.final_key = np.zeros(0, dtype=np.uint8)
        self.no_key = False

    # -- plumbing ----------------------------------------------------------

    def _emit(self, frame_type: FrameType, *values) -> Frame:
        frame = Frame(frame_type, self.next_send_seq, encode_payload(frame_type, *values))
        self.next_send_seq += 1
        return frame

    def _emit_recon(self, msg: tuple) -> Frame:
        return self._emit(FrameType.RECON_MSG, RECON_KINDS.index(msg[0]), *msg[1:])

    def _abort(self, reason: AbortReason, message: str, *, notify: bool = True) -> list[Frame]:
        self.phase = Phase.ABORTED
        self.abort_reason = reason
        self.abort_message = message
        self.no_key = True
        if not notify:
            return []
        return [self._emit(FrameType.ABORT, int(reason), np.frombuffer(message.encode(), np.uint8))]

    def step(self, event) -> list[Frame]:
        """Advance the machine; returns frames to transmit."""
        if self.phase in (Phase.DONE, Phase.ABORTED):
            return []
        if isinstance(event, Timeout):
            self.error_counters["timeout"] += 1
            return self._abort(AbortReason.TIMEOUT, "no progress before timeout")
        if isinstance(event, IncomingFrame):
            try:
                frame = decode_frame(event.data)
            except FrameChecksumError:
                self.error_counters["crc"] += 1
                return []
            except FrameTruncatedError:
                self.error_counters["truncated"] += 1
                return []
            except UnknownFrameTypeError:
                self.error_counters["unknown_type"] += 1
                return []
            if frame.sequence != self.next_recv_seq:
                self.error_counters["sequence_gap"] += 1
                return self._abort(
                    AbortReason.SEQUENCE_GAP,
                    f"expected sequence {self.next_recv_seq}, got {frame.sequence}",
                )
            self.next_recv_seq += 1
            if frame.frame_type is FrameType.ABORT:
                try:
                    reason = AbortReason(decode_payload(FrameType.ABORT, frame.payload)[0])
                except ValueError:
                    reason = AbortReason.PEER_ABORT  # a malformed payload or a reason we do not know
                self._abort(AbortReason.PEER_ABORT, f"peer aborted ({reason.name})", notify=False)
                return []
            handler = self._HANDLERS.get((frame.frame_type, self.phase))
            if handler is None:
                return self._violation(frame)
            sent = self.next_send_seq
            try:
                return handler(self, *decode_payload(frame.frame_type, frame.payload))
            except ReconciliationFailed as exc:
                problem = f"reconciliation broke down: {exc}"
            except (FrameDecodeError, IndexError) as exc:
                # a payload that is not its layout, or with indices out of range
                problem = f"malformed payload: {exc}"
            except PayloadTooLargeError as exc:
                # a reply this session cannot put on the wire
                problem = f"reply too large: {exc}"
            # frames the handler built before it raised are never sent
            self.next_send_seq = sent
            return self._abort(AbortReason.INTERNAL, problem)
        raise TypeError(f"unknown event {event!r}")

    def _violation(self, frame: Frame) -> list[Frame]:
        self.error_counters["phase_violation"] += 1
        return self._abort(
            AbortReason.PHASE_VIOLATION,
            f"{frame.frame_type.name} not valid in phase {self.phase.value}",
        )

    # -- shared estimation logic --------------------------------------------

    def _n_sampled(self, n_matched_signal: int) -> int:
        if n_matched_signal == 0:
            return 0
        k = int(np.floor(self.options.sample_fraction * n_matched_signal + 0.5))
        return max(1, min(k, n_matched_signal))

    def _sample_selection(self, sample_seed: int, n_matched_signal: int) -> np.ndarray:
        k = self._n_sampled(n_matched_signal)
        if k == 0:
            return np.zeros(0, dtype=np.int64)
        rng = np.random.default_rng(sample_seed)
        return np.sort(rng.choice(n_matched_signal, size=k, replace=False)).astype(np.int64)

    def _empty_class(self) -> StateClass | None:
        """A class with no emitted pulses, if any: its gain would divide by zero."""
        return next((v for v in StateClass if self.emitted_per_class[v] == 0), None)

    def _tally_classes(
        self, clicked_kind: np.ndarray, matched_kind: np.ndarray, matched_bits: np.ndarray
    ) -> None:
        """Clicks per class, and the matched-basis bits split by class."""
        counts = np.bincount(clicked_kind, minlength=3)
        self.clicks_per_class = {v: int(counts[v]) for v in StateClass}
        self.matched_signal_bits = matched_bits[matched_kind == StateClass.SIGNAL].copy()
        self.matched_decoy_bits = matched_bits[matched_kind == StateClass.DECOY].copy()
        self.matched_vacuum_bits = matched_bits[matched_kind == StateClass.VACUUM].copy()

    def _sample_disclosure(self, subkind: int) -> Frame:
        """This side's sampled signal bits and all its matched decoy and vacuum bits."""
        signal = self.matched_signal_bits[self.sample_positions]
        return self._emit(
            FrameType.QBER_SAMPLE, subkind, signal, self.matched_decoy_bits, self.matched_vacuum_bits
        )

    def _tally_sample(self, signal: np.ndarray, decoy: np.ndarray, vacuum: np.ndarray) -> bool:
        """Count errors against the peer's disclosure, drop the sample from the
        key and set the Cascade hint; False if the peer's sizes differ from ours."""
        sizes = (len(self.sample_positions), len(self.matched_decoy_bits), len(self.matched_vacuum_bits))
        if (len(signal), len(decoy), len(vacuum)) != sizes:
            return False
        self.sample_errors = int(np.sum(self.matched_signal_bits[self.sample_positions] ^ signal))
        self.decoy_errors = int(np.sum(self.matched_decoy_bits ^ decoy))
        self.remaining_key = np.delete(self.matched_signal_bits, self.sample_positions)
        self.qber_hint = float(min(0.25, (self.sample_errors + 1) / (len(self.sample_positions) + 2)))
        return True

    def _skip_reconciliation(self) -> bool:
        """Finish at once, with no key, when the corrected key is too short
        for Cascade; True if so."""
        if len(self.remaining_key) >= self.options.min_key_bits:
            return False
        self._finish()
        return True

    def _finish(self) -> None:
        """Estimate, size the final key and move to AMPLIFICATION.

        Reached once Cascade has verified, or with residual_check still None
        when reconciliation was skipped; a skipped session keeps no key."""
        n_signal_matched = len(self.matched_signal_bits)
        flags = []
        if n_signal_matched > 0:
            e_mu = (self.sample_errors + self.corrections) / n_signal_matched
            if self.residual_check is None:
                flags.append("qber_from_sample_only")
        else:
            e_mu = 0.0
            flags.append("no_matched_signal_clicks")
        n_decoy_matched = len(self.matched_decoy_bits)
        e_nu = self.decoy_errors / n_decoy_matched if n_decoy_matched else 0.0
        if n_decoy_matched == 0:
            flags.append("no_matched_clicks_decoy")
        self.statistics = DecoyStatistics(
            q_mu=self.clicks_per_class[StateClass.SIGNAL] / self.emitted_per_class[StateClass.SIGNAL],
            e_mu=min(e_mu, 1.0),
            q_nu=self.clicks_per_class[StateClass.DECOY] / self.emitted_per_class[StateClass.DECOY],
            e_nu=min(e_nu, 1.0),
            y0=self.clicks_per_class[StateClass.VACUUM] / self.emitted_per_class[StateClass.VACUUM],
            mu=self.options.mu,
            nu=self.options.nu,
        )
        self.flags.extend(flags)
        self.flags.extend(self.statistics.flags)
        self.bounds = estimate_bounds(self.statistics)
        self.flags.extend(self.bounds.clamped)
        self.rate_report = secure_key_rate(
            self.statistics,
            self.bounds,
            q=self.options.q,
            error_correction_efficiency=self.options.error_correction_efficiency,
            repetition_rate_hz=self.options.repetition_rate_hz,
        )
        if self.rate_report.clamped_to_zero:
            self.flags.append("rate_clamped_to_zero")
        self.decision = final_key_length(
            self.n_slots, self.rate_report.r_per_pulse, len(self.remaining_key), self.leaked_bits
        )
        if self.residual_check is None and self.decision.length > 0:
            self.decision = KeyLengthDecision(length=0, capped=self.decision.capped)
            self.flags.append("insufficient_key_bits")
        if self.decision.capped:
            self.flags.append("final_length_capped")
        self.phase = Phase.AMPLIFICATION

    def _pa_flags(self) -> int:
        """The PA_SEED flags byte of this side's key-length decision."""
        return (1 if self.decision.capped else 0) | (2 if self.decision.length == 0 else 0)

    def _apply_pa(self, seed: PASeed) -> None:
        self.final_key = toeplitz_hash(self.remaining_key, seed)
        self.no_key = self.decision.length == 0
        if self.no_key:
            self.flags.append("no_key")
        self.phase = Phase.DONE

    @property
    def result(self) -> SessionResult:
        n_sample = len(self.sample_positions)
        qber_sample = self.sample_errors / n_sample if n_sample else None
        return SessionResult(
            final_key=self.final_key,
            no_key=self.no_key,
            statistics=self.statistics,
            bounds=self.bounds,
            rate_report=self.rate_report,
            decision=self.decision,
            qber_sample=qber_sample,
            qber_hint=self.qber_hint,
            leaked_bits=self.leaked_bits,
            corrections=self.corrections,
            parity_bits=self.parity_bits,
            residual_check=self.residual_check,
            n_clicked=self.n_clicked,
            n_matched=self.n_matched,
            n_matched_signal=len(self.matched_signal_bits),
            n_sampled=n_sample,
            flags=tuple(dict.fromkeys(self.flags)),
        )


class AliceSession(_Session):
    """Transmitter endpoint: reference key holder and protocol initiator."""

    role = "alice"

    def __init__(
        self,
        view: AliceView,
        options: ProtocolOptions,
        config_digest: bytes,
        coin_rng: np.random.Generator,
    ):
        super().__init__(options, config_digest, len(view))
        self.view = view
        self.coin_rng = coin_rng
        self._hello_sent = False
        self._responder: CascadeResponder | None = None
        self._sample_seed = 0

    def start(self) -> list[Frame]:
        if self.phase is not Phase.IDLE or self._hello_sent:
            return []
        self._hello_sent = True
        return [self._emit(FrameType.SYNC_HELLO, 0, self.config_digest, self.n_slots)]

    def _handle_hello_ack(self, role: int, digest: bytes, n_slots: int) -> list[Frame]:
        if role != 1 or digest != self.config_digest or n_slots != self.n_slots:
            return self._abort(AbortReason.CONFIG_MISMATCH, "peer configuration digest differs")
        self.phase = Phase.SIFTING
        return []

    def _handle_basis_reveal(self, slots: np.ndarray, bases: np.ndarray) -> list[Frame]:
        if not _ascending_in_range(slots, self.n_slots):
            return self._abort(AbortReason.INTERNAL, "clicked slot list not strictly ascending in range")
        self.n_clicked = len(slots)
        clicked = self.view.at(slots)
        matched_mask = clicked.basis == bases
        matched_slots = slots[matched_mask]
        self.n_matched = len(matched_slots)
        self._tally_classes(clicked.kind, clicked.kind[matched_mask], clicked.bit[matched_mask])
        self.emitted_per_class = self.view.class_totals()
        empty = self._empty_class()
        if empty is not None:
            return self._abort(AbortReason.INTERNAL, f"no emitted pulses in class {empty.name}")
        sift_ack = self._emit(FrameType.SIFT_ACK, matched_slots)
        reveal = self._emit(
            FrameType.INTENSITY_REVEAL,
            *(self.emitted_per_class[v] for v in (StateClass.SIGNAL, StateClass.DECOY, StateClass.VACUUM)),
            clicked.kind,
        )
        self._sample_seed = int(self.coin_rng.integers(0, 2**63))
        self.cascade_seed = int(self.coin_rng.integers(0, 2**63))
        request = self._emit(
            FrameType.QBER_SAMPLE, 0, self._sample_seed, self.cascade_seed, self.options.sample_fraction
        )
        self.sample_positions = self._sample_selection(self._sample_seed, len(self.matched_signal_bits))
        self.phase = Phase.ESTIMATION
        return [sift_ack, reveal, request]

    def _handle_sample_bits(self, subkind: int, *disclosure) -> list[Frame]:
        if subkind != 1:
            return self._abort(AbortReason.PHASE_VIOLATION, "expected receiver sample disclosure")
        if not self._tally_sample(*disclosure):
            return self._abort(AbortReason.LENGTH_MISMATCH, "sample disclosure sizes differ from sift result")
        reply = self._sample_disclosure(2)
        if self._skip_reconciliation():
            return [reply] + self._send_pa_seed()
        self._responder = CascadeResponder(
            self.remaining_key, self.qber_hint, self.cascade_seed, self.options.n_cascade_passes
        )
        self.phase = Phase.RECONCILIATION
        return [reply]

    def _handle_recon(self, subkind: int, *values) -> list[Frame]:
        msg = (RECON_KINDS[subkind], *values)
        if msg[0] == "verify":
            self.corrections = int(msg[2])
        reply = self._responder.on_message(msg)
        self.parity_bits = self._responder.parity_bits
        frames = [self._emit_recon(reply)]
        if reply[0] == "verify_result":
            self.leaked_bits = self._responder.leaked_bits
            if not reply[1]:
                if self._responder.digests == 1:  # the corrector starts a second round
                    self.flags.append("reconciliation_retried")
                    return frames
                self.residual_check = False
                return frames + self._abort(AbortReason.VERIFY_FAILED, "reconciliation digest mismatch")
            self.residual_check = True
            self._finish()
            frames += self._send_pa_seed()
        return frames

    def _send_pa_seed(self) -> list[Frame]:
        n = len(self.remaining_key)
        m = self.decision.length
        seed = generate_pa_seed(n, m, self.coin_rng)
        frame = self._emit(FrameType.PA_SEED, m, n, self._pa_flags(), seed.bits)
        self._apply_pa(seed)
        return [frame]

    _HANDLERS = {
        (FrameType.SYNC_HELLO, Phase.IDLE): _handle_hello_ack,
        (FrameType.BASIS_REVEAL, Phase.SIFTING): _handle_basis_reveal,
        (FrameType.QBER_SAMPLE, Phase.ESTIMATION): _handle_sample_bits,
        (FrameType.RECON_MSG, Phase.RECONCILIATION): _handle_recon,
    }


class BobSession(_Session):
    """Receiver endpoint: corrects its key toward the transmitter's."""

    role = "bob"

    def __init__(
        self,
        view: BobView,
        options: ProtocolOptions,
        config_digest: bytes,
    ):
        super().__init__(options, config_digest, len(view))
        self.view = view
        self._corrector: CascadeCorrector | None = None
        self._clicked_slots = view.slots
        self._matched_positions = np.zeros(0, dtype=np.int64)  # into clicked list

    def _handle_hello(self, role: int, digest: bytes, n_slots: int) -> list[Frame]:
        if role != 0:
            return self._abort(AbortReason.PHASE_VIOLATION, "unexpected hello role")
        if digest != self.config_digest or n_slots != self.n_slots:
            return self._abort(AbortReason.CONFIG_MISMATCH, "peer configuration digest differs")
        self.phase = Phase.SIFTING
        slots = self._clicked_slots
        self.n_clicked = len(slots)
        return [
            self._emit(FrameType.SYNC_HELLO, 1, self.config_digest, self.n_slots),
            self._emit(FrameType.BASIS_REVEAL, slots, self.view.basis_at(slots)),
        ]

    def _handle_sift_ack(self, matched_slots: np.ndarray) -> list[Frame]:
        if not _ascending_in_range(matched_slots, self.n_slots):
            return self._abort(AbortReason.INTERNAL, "matched slot list not strictly ascending in range")
        positions = np.searchsorted(self._clicked_slots, matched_slots)
        if np.any(positions >= len(self._clicked_slots)) or np.any(
            self._clicked_slots[np.minimum(positions, len(self._clicked_slots) - 1)] != matched_slots
        ):
            return self._abort(AbortReason.INTERNAL, "matched slots are not a subset of clicked slots")
        self._matched_positions = positions.astype(np.int64)
        self.n_matched = len(matched_slots)
        return []

    def _handle_intensity_reveal(
        self, n_signal: int, n_decoy: int, n_vacuum: int, kinds: np.ndarray
    ) -> list[Frame]:
        if len(kinds) != len(self._clicked_slots):
            return self._abort(AbortReason.LENGTH_MISMATCH, "intensity reveal size differs from clicks")
        if np.any(kinds >= len(StateClass)):
            raise FrameDecodeError("class byte out of range")
        if n_signal + n_decoy + n_vacuum != self.n_slots:
            return self._abort(AbortReason.LENGTH_MISMATCH, "per-class totals do not cover all slots")
        self.emitted_per_class = {
            StateClass.SIGNAL: int(n_signal),
            StateClass.DECOY: int(n_decoy),
            StateClass.VACUUM: int(n_vacuum),
        }
        empty = self._empty_class()
        if empty is not None:
            return self._abort(AbortReason.INTERNAL, f"no emitted pulses in class {empty.name}")
        matched_bits = self.view.bits[self._matched_positions]
        self._tally_classes(kinds, kinds[self._matched_positions], matched_bits)
        self.phase = Phase.ESTIMATION
        return []

    def _handle_qber_sample(self, subkind: int, *values) -> list[Frame]:
        if subkind == 0:
            sample_seed, cascade_seed, fraction = values
            if not abs(fraction - self.options.sample_fraction) <= 1e-12:  # NaN fails too
                return self._abort(AbortReason.CONFIG_MISMATCH, "sample fraction differs from shared options")
            self.cascade_seed = cascade_seed
            self.sample_positions = self._sample_selection(sample_seed, len(self.matched_signal_bits))
            return [self._sample_disclosure(1)]
        if subkind == 2:
            if not self._tally_sample(*values):
                return self._abort(AbortReason.LENGTH_MISMATCH, "sample echo sizes differ")
            if self._skip_reconciliation():
                return []
            self._corrector = CascadeCorrector(
                self.remaining_key, self.qber_hint, self.cascade_seed, self.options.n_cascade_passes
            )
            self.phase = Phase.RECONCILIATION
            return [self._emit_recon(self._corrector.start())]
        return self._abort(AbortReason.PHASE_VIOLATION, "unexpected sample subkind")

    def _handle_recon(self, subkind: int, *values) -> list[Frame]:
        nxt = self._corrector.on_reply((RECON_KINDS[subkind], *values))
        self.parity_bits = self._corrector.parity_bits
        if nxt is not None:
            return [self._emit_recon(nxt)]
        self.corrections = self._corrector.corrections
        self.leaked_bits = self._corrector.leaked_bits
        self.residual_check = self._corrector.residual_check
        if self._corrector.digests > 1:
            self.flags.append("reconciliation_retried")
        if not self.residual_check:
            return self._abort(AbortReason.VERIFY_FAILED, "reconciliation digest mismatch")
        self.remaining_key = self._corrector.key
        self._finish()
        return []

    def _handle_pa_seed(self, m: int, n: int, flags: int, seed_bits: np.ndarray) -> list[Frame]:
        if n != len(self.remaining_key):
            return self._abort(AbortReason.LENGTH_MISMATCH, "amplification input length differs")
        if m != self.decision.length:
            return self._abort(
                AbortReason.LENGTH_MISMATCH,
                f"peer final length {m} != local decision {self.decision.length}",
            )
        if flags != self._pa_flags():
            return self._abort(
                AbortReason.LENGTH_MISMATCH, f"peer length flags {flags} != local flags {self._pa_flags()}"
            )
        seed = PASeed(bits=seed_bits, input_length=n, output_length=m)
        self._apply_pa(seed)
        return []

    _HANDLERS = {
        (FrameType.SYNC_HELLO, Phase.IDLE): _handle_hello,
        (FrameType.SIFT_ACK, Phase.SIFTING): _handle_sift_ack,
        (FrameType.INTENSITY_REVEAL, Phase.SIFTING): _handle_intensity_reveal,
        (FrameType.QBER_SAMPLE, Phase.ESTIMATION): _handle_qber_sample,
        (FrameType.RECON_MSG, Phase.RECONCILIATION): _handle_recon,
        (FrameType.PA_SEED, Phase.AMPLIFICATION): _handle_pa_seed,
    }
